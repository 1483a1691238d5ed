// Command perfbench is HaoCL's end-to-end benchmark. It runs one workload
// against in-process GPU nodes on loopback TCP — the full stack from the
// haocl API through core, transport, protocol, node, kernel and sim — and
// prints every metric by name and unit, ending with one JSON line:
//
//	go run . --workload tile-stream --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing attached. --trace
// 1 measures the per-layer metrics instead, from a traced run with a probe
// at every layer boundary (see probe.go and layers.go). README.md defines
// every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies the machine and code a result was measured on.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	MemLimitMB int    `json:"mem_limit_mib"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: tile-stream, tenants, migrate or apps")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured operation time per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result files and exported traces")
	flag.Parse()
	// One P: the host goroutine and both nodes share one CPU, so a run
	// measures the whole stack's cost per command without depending on how
	// fast an idle virtual CPU wakes up, which made two-P runs on a shared
	// 2-vCPU machine spread 8-18% between identical runs.
	runtime.GOMAXPROCS(1)
	// Collector pacing is pinned too. At the default GOGC the tenants
	// workload collects about a hundred times a second and 1-2% of its
	// jobs overlap a collection, so job_p99_us sat on the knee of that
	// tail and moved 40% between identical runs. At gcPercent about 0.2%
	// of jobs do, well below the p99; collection cost still shows in
	// cpu_us_per_cmd, and allocation in allocs_per_cmd and
	// alloc_kb_per_cmd. The soft limit keeps the workloads that hold tens
	// of MiB live (tile-stream, migrate) near the memory the default pacing
	// uses (peak RSS 170 and 160 MiB against 135 and 183).
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(memoryLimit)
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	fp := fingerprint{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gcPercent, MemLimitMB: memoryLimit >> 20, NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: gitCommit(),
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *traced == 0 {
		res, err = endToEnd(os.Stdout, w, *seed, budget)
	} else {
		res, err = perLayer(os.Stdout, w, *seed, budget, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := saveResult(*out, fp, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Collector settings every run uses (see main).
const (
	gcPercent   = 800
	memoryLimit = 160 << 20
)

// warmUpTime is how long a run exercises its workload before measuring.
const warmUpTime = time.Second

// warmUp runs the workload unmeasured for warmUpTime, so page faults, heap
// growth and the first connections of a fresh process stay out of every
// measured window.
func warmUp(w workload, seed int64) error {
	_, err := run(w, seed, stopRule{wall: warmUpTime, warmUp: true}, nil)
	return err
}

// endToEnd runs w untraced for budget and computes the end-to-end metrics.
func endToEnd(log io.Writer, w workload, seed int64, budget time.Duration) (result, error) {
	if err := warmUp(w, seed); err != nil {
		return result{}, err
	}
	r, err := run(w, seed, stopRule{wall: budget}, nil)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   endToEndMetrics(w, r),
	}
	report(log, w, r, res.Metrics)
	return res, nil
}

// minTailOps is the fewest operations an epoch may hold for the run's
// latency tail to pool every operation. Below it (apps: five long runs per
// epoch) a run holds too few operations for a pooled p99 to have ten
// samples beyond it, so the tail is each epoch's p99, median over epochs.
const minTailOps = 100

// endToEndMetrics derives the user-visible figures from one untraced run.
// Rates, per-command costs and the median latency are computed per
// complete epoch and reported as the median over epochs, so a burst of
// load from outside the benchmark moves one epoch, not the result; the
// p99 pools every operation of the complete epochs.
func endToEndMetrics(w workload, r *runResult) map[string]metric {
	var ops, cmds, payload, lat, epochP50, epochP99, cpu, allocs, allocKB []float64
	for _, e := range r.perEpoch {
		if !e.complete {
			continue
		}
		wall, n := e.use.wall.Seconds(), float64(e.cmds)
		el := durUS(e.lat)
		lat = append(lat, el...)
		epochP50 = append(epochP50, percentile(el, 0.50))
		epochP99 = append(epochP99, percentile(el, 0.99))
		ops = append(ops, float64(e.ops)/wall)
		cmds = append(cmds, n/wall)
		payload = append(payload, float64(e.payload)/1e6/wall)
		cpu = append(cpu, float64(e.use.cpu.Nanoseconds())/1e3/n)
		allocs = append(allocs, float64(e.use.mallocs)/n)
		allocKB = append(allocKB, float64(e.use.allocBytes)/1024/n)
	}
	setups := make([]float64, len(r.setups))
	for i, s := range r.setups {
		setups[i] = s.total().Seconds()
	}
	// Sub-seeds leave different amounts live (tenants: the aggressor's
	// admission backlog), so each sub-seed's epochs give one median and the
	// run reports the median of those: the result then does not depend on
	// how many epochs of each sub-seed the budget allowed.
	var heaps []float64
	for _, h := range r.heaps {
		heaps = append(heaps, median(h))
	}
	p99 := percentile(lat, 0.99)
	if w.epoch < minTailOps {
		p99 = median(epochP99)
	}
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"ops_per_s":          {median(ops), "1/s"},
		"cmds_per_s":         {median(cmds), "1/s"},
		"payload_mb_per_s":   {median(payload), "MB/s"},
		"job_p50_us":         {median(epochP50), "us"},
		"job_p99_us":         {p99, "us"},
		"cpu_us_per_cmd":     {median(cpu), "us"},
		"allocs_per_cmd":     {median(allocs), "count"},
		"alloc_kb_per_cmd":   {median(allocKB), "KiB"},
		"heap_mb":            {median(heaps), "MiB"},
		"virtual_makespan_s": {r.virtual.makespan.Seconds(), "s"},
		"virtual_p99_ms":     {float64(r.virtual.p99) / 1e6, "ms"},
	}
}

// report prints the run's figures, sample counts and failures, one per
// line, ahead of the JSON result.
func report(log io.Writer, w workload, r *runResult, ms map[string]metric) {
	fmt.Fprintf(log, "workload %s: %d ops, %d commands, %d epochs, %.3fs measured\n",
		w.name, r.ops, r.cmds, r.epochs, r.use.wall.Seconds())
	complete := 0
	for _, e := range r.perEpoch {
		if e.complete {
			complete++
		}
	}
	fmt.Fprintf(log, "samples: setup_s n=%d, complete epochs n=%d (%d ops each), virtual p99 n=%d\n",
		len(r.setups), complete, w.epoch, r.virtual.samples)
	fmt.Fprintf(log, "failed_ops_ratio %.6f (%d of %d, %d virtual divergences)\n",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted, r.divergences)
	for i, e := range r.errors {
		if i == 5 {
			fmt.Fprintf(log, "... %d more errors\n", len(r.errors)-i)
			break
		}
		fmt.Fprintln(log, "error:", e)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "%-42s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// saveResult writes the result stamped with its fingerprint.
func saveResult(dir string, fp fingerprint, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Result      result      `json:"result"`
	}{fp, res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", fp.Workload, fp.Seed, fp.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the commit of the checkout being measured, or "unknown"
// when the working directory is not the root of a git repository.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func durUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// percentile is the nearest-rank p-th percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
