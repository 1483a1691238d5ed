package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/sched"
	"github.com/haocl-project/haocl/internal/vtime"
)

// This file is the multi-tenant serve experiment: an open-loop load
// generator replaying seeded Poisson arrivals of small jobs from several
// tenant sessions onto one shared device, with admission either FIFO (the
// arrival order, what a single shared queue does naturally) or fair-share
// (the weighted DRR queue of internal/sched). The number that moves is the
// light tenants' p99 *virtual* latency under a 10x aggressor: FIFO lets
// the aggressor's backlog push it unboundedly past the tenant's solo run,
// while fair-share holds it within a small constant factor (DESIGN.md §8).
//
// Everything is deterministic for a fixed seed: arrivals come from a
// seeded PRNG, service times from the virtual-time device model, and the
// dispatcher is a single-threaded discrete-event loop — so the fair leg
// rerun reproduces every job latency bit for bit.

// serveJob is one generated request.
type serveJob struct {
	tenant  string
	arrival vtime.Time
	kind    int // index into serveJobTypes
	opts    *haocl.LaunchOptions
	latency vtime.Duration // filled by the dispatch loop
}

// serveTenant is one load-generating session.
type serveTenant struct {
	name  string
	rate  float64 // mean arrivals per virtual second
	jobs  int
	kinds []int // job-type indices cycled across the trace
}

// serveJobTypes are the request shapes, cycled per tenant: a compute-heavy
// matmul tile, a byte-heavy BFS frontier and a balanced SpMV iteration.
// Only the modeled costs differ — the functional launch is the same tiny
// tile — so the service-time mix is heterogeneous the way a real serving
// workload is.
var serveJobTypes = []haocl.LaunchOptions{
	{CostFlops: 2 * 256 * 256 * 256, CostBytes: 3 * 4 * 256 * 256}, // matmul 256³
	{CostFlops: 2 << 20, CostBytes: 48 << 20},                      // bfs frontier
	{CostFlops: 16 << 20, CostBytes: 16 << 20},                     // spmv iteration
}

// genArrivals draws a tenant's Poisson arrival times (exponential
// interarrivals at the tenant's rate) and assigns job types round-robin.
// The PRNG is seeded per tenant, so every leg regenerates the identical
// trace.
func genArrivals(t serveTenant, seed int64) []*serveJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*serveJob, 0, t.jobs)
	var at float64 // virtual seconds
	for i := 0; i < t.jobs; i++ {
		at += rng.ExpFloat64() / t.rate
		kind := t.kinds[i%len(t.kinds)]
		jobs = append(jobs, &serveJob{
			tenant:  t.name,
			arrival: vtime.Time(at * 1e9),
			kind:    kind,
			opts:    &serveJobTypes[kind],
		})
	}
	return jobs
}

// mergeByArrival interleaves per-tenant traces into one arrival-ordered
// stream, breaking exact ties by tenant name so the order is total.
func mergeByArrival(traces ...[]*serveJob) []*serveJob {
	var all []*serveJob
	for _, t := range traces {
		all = append(all, t...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].arrival != all[j].arrival {
			return all[i].arrival < all[j].arrival
		}
		return all[i].tenant < all[j].tenant
	})
	return all
}

// tenantLane is one session's objects on the shared device.
type tenantLane struct {
	sess *haocl.Session
	q    *haocl.Queue
	k    *haocl.Kernel
}

// openLanes opens one session per tenant on the shared device and builds
// each a queue, a program and a bound kernel. The per-job launch is the
// same n=8 functional tile the pipeline experiment uses; modeled costs
// come from the job.
func openLanes(p *haocl.Platform, dev *haocl.Device, tenants []string) (map[string]*tenantLane, error) {
	const n = 8
	tile := make([]float32, n*n)
	for i := range tile {
		tile[i] = float32(i%5) * 0.5
	}
	tileBytes := mem.F32Bytes(tile)
	lanes := make(map[string]*tenantLane, len(tenants))
	for _, name := range tenants {
		sess := p.OpenSession(name)
		ctx, err := sess.CreateContext([]*haocl.Device{dev})
		if err != nil {
			return nil, err
		}
		prog, err := ctx.CreateProgram(matmul.Source)
		if err != nil {
			return nil, err
		}
		if err := prog.Build(); err != nil {
			return nil, err
		}
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			return nil, err
		}
		a, err := ctx.CreateBuffer(int64(len(tileBytes)))
		if err != nil {
			return nil, err
		}
		b, err := ctx.CreateBuffer(int64(len(tileBytes)))
		if err != nil {
			return nil, err
		}
		c, err := ctx.CreateBuffer(int64(len(tileBytes)))
		if err != nil {
			return nil, err
		}
		k, err := prog.CreateKernel("matmul")
		if err != nil {
			return nil, err
		}
		for idx, v := range []any{a, b, c, int32(n), int32(n), int32(n)} {
			if err := k.SetArg(idx, v); err != nil {
				return nil, err
			}
		}
		// Stage the inputs before the open-loop stream starts so per-job
		// service is pure kernel time.
		if _, err := q.EnqueueWrite(a, 0, tileBytes); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWrite(b, 0, tileBytes); err != nil {
			return nil, err
		}
		if _, err := q.Finish(); err != nil {
			return nil, err
		}
		lanes[name] = &tenantLane{sess: sess, q: q, k: k}
	}
	return lanes, nil
}

func closeLanes(lanes map[string]*tenantLane) {
	for _, l := range lanes {
		l.sess.Close()
	}
}

// laneCommands reports the commands each tenant's session has issued.
func laneCommands(lanes map[string]*tenantLane) map[string]int64 {
	out := make(map[string]int64, len(lanes))
	for name, l := range lanes {
		out[name] = l.sess.Metrics().Commands
	}
	return out
}

// dispatch launches one job no earlier than floor on its tenant's lane and
// returns the completion instant. The floor event serializes the shared
// device: each job starts after the previous dispatched job finished,
// whichever session issued it.
func dispatch(lanes map[string]*tenantLane, job *serveJob, floor vtime.Time) (vtime.Time, error) {
	const n = 8
	l := lanes[job.tenant]
	ev, err := l.q.EnqueueKernel(l.k, []int{n, n}, []int{n, n},
		[]*haocl.Event{haocl.FloorEvent(floor)}, job.opts)
	if err != nil {
		return 0, err
	}
	return ev.End(), nil
}

// runFIFO serves jobs in pure arrival order — the shared-queue baseline.
func runFIFO(lanes map[string]*tenantLane, jobs []*serveJob) (vtime.Time, error) {
	var now vtime.Time
	for _, job := range jobs {
		floor := job.arrival
		if now > floor {
			floor = now
		}
		end, err := dispatch(lanes, job, floor)
		if err != nil {
			return 0, err
		}
		job.latency = vtime.Duration(end - job.arrival)
		now = end
	}
	return now, nil
}

// runFair serves jobs through the weighted DRR admission queue: arrivals
// up to the current virtual instant are admitted, then the next grant in
// fair order occupies the device. The aggressor's backlog waits inside the
// admission queue instead of ahead of everyone on the device. Each item's
// deficit cost is its job type's calibrated virtual service time, so the
// shares are fair in device time, not job counts.
func runFair(p *haocl.Platform, lanes map[string]*tenantLane, jobs []*serveJob, svcByType []vtime.Duration, quantum vtime.Duration, weights map[string]int64) (vtime.Time, error) {
	fq := sched.NewFairQueue(quantum)
	for tenant, w := range weights {
		fq.SetWeight(tenant, w)
	}
	// When the leg is traced, each grant records an admission span from the
	// job's arrival to its grant instant (nil run = tracing off, no-op).
	fq.SetTracer(p.Runtime().TraceRun())
	var now vtime.Time
	next := 0
	for {
		for next < len(jobs) && jobs[next].arrival <= now {
			fq.Submit(sched.FairItem{
				Tenant:  jobs[next].tenant,
				Cost:    svcByType[jobs[next].kind],
				Arrival: jobs[next].arrival,
				Payload: jobs[next],
			})
			next++
		}
		item, ok := fq.NextAt(now)
		if !ok {
			if next >= len(jobs) {
				return now, nil
			}
			// Device idle: jump to the next arrival.
			now = jobs[next].arrival
			continue
		}
		job := item.Payload.(*serveJob)
		end, err := dispatch(lanes, job, now)
		if err != nil {
			return 0, err
		}
		job.latency = vtime.Duration(end - job.arrival)
		now = end
		fq.Done(job.tenant)
	}
}

// calibrate measures each job type's virtual service time on a scratch
// cluster, so arrival rates can be expressed as device utilizations and
// admission costs in device time.
func calibrate() (svcByType []vtime.Duration, mean vtime.Duration, err error) {
	lc, err := cluster(1, 0)
	if err != nil {
		return nil, 0, err
	}
	defer lc.Close()
	p := lc.Platform
	dev := p.Devices(haocl.GPU)[0]
	lanes, err := openLanes(p, dev, []string{"calibrate"})
	if err != nil {
		return nil, 0, err
	}
	defer closeLanes(lanes)
	// Warmup launch: the fresh queue's clock still trails the staged
	// input writes, so the first measured interval would otherwise absorb
	// that tail and overstate the service time.
	warm := &serveJob{tenant: "calibrate", kind: 0, opts: &serveJobTypes[0]}
	now, err := dispatch(lanes, warm, 0)
	if err != nil {
		return nil, 0, err
	}
	var total vtime.Duration
	for i := range serveJobTypes {
		job := &serveJob{tenant: "calibrate", kind: i, opts: &serveJobTypes[i]}
		end, err := dispatch(lanes, job, now)
		if err != nil {
			return nil, 0, err
		}
		svcByType = append(svcByType, vtime.Duration(end-now))
		total += vtime.Duration(end - now)
		now = end
	}
	return svcByType, total / vtime.Duration(len(serveJobTypes)), nil
}

// percentileMS returns the p-th percentile of the latencies in virtual
// milliseconds (nearest-rank).
func percentileMS(lats []vtime.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := make([]vtime.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(float64(len(sorted))*p+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / 1e6
}

// latenciesByTenant buckets measured job latencies per tenant.
func latenciesByTenant(jobs []*serveJob) map[string][]vtime.Duration {
	out := make(map[string][]vtime.Duration)
	for _, j := range jobs {
		out[j.tenant] = append(out[j.tenant], j.latency)
	}
	return out
}

// serveRow summarizes one (leg, tenant) cell: the jobs' latencies and the
// commands the cell's sessions issued during the leg's wall time.
func serveRow(mode, tenant string, lats []vtime.Duration, commands int64, wall time.Duration) PipelineRow {
	return PipelineRow{
		Workload:     "Serve",
		Transport:    "mem",
		Mode:         mode,
		Tenant:       tenant,
		Jobs:         int64(len(lats)),
		Commands:     commands,
		WallMS:       float64(wall.Microseconds()) / 1000,
		CmdsPerSec:   float64(commands) / wall.Seconds(),
		P50VirtualMS: percentileMS(lats, 0.50),
		P99VirtualMS: percentileMS(lats, 0.99),
	}
}

// serveSizes returns per-light-tenant job counts for the experiment.
func serveSizes(quick bool) int {
	if quick {
		return 100
	}
	return 400
}

// ServeReport runs the full serve experiment. Tenants light-0 and light-1
// submit at 10% device utilization each; tenant aggressor submits the same
// job mix at 10x their rate (100% utilization), overloading the device.
// Legs:
//
//	solo — each light tenant alone on the cluster (its baseline p99);
//	fifo — all three tenants admitted in arrival order;
//	fair — all three through the weighted DRR queue, then rerun with the
//	       same seed to prove grant-order and latency determinism.
func ServeReport(quick bool, seed int64) (*Report, error) {
	return serveReport("serve", serveSizes(quick), quick, seed)
}

// ServeTraceReport is the compact serve variant behind the serve-trace
// experiment: the same legs and admission modes at a handful of jobs per
// light tenant, sized so its exported trace stays a small committed
// artifact while still showing per-tenant lane timelines, admission waits
// and the fair-rerun determinism in Perfetto.
func ServeTraceReport(seed int64) (*Report, error) {
	return serveReport("serve-trace", 8, true, seed)
}

// serveReport runs the serve legs at the given per-light-tenant job count.
func serveReport(experiment string, jobsPerLight int, quick bool, seed int64) (*Report, error) {
	rep := &Report{Experiment: experiment, Quick: quick}

	svcByType, meanSvc, err := calibrate()
	if err != nil {
		return nil, err
	}
	// Light tenants run the full mix at 10% device utilization each; the
	// aggressor streams uniform matmul-type jobs at 100% utilization —
	// 10x the lights' combined demand, overloading the device — over the
	// same arrival horizon as the lights.
	allKinds := []int{0, 1, 2}
	lightRate := 0.10 * 1e9 / float64(meanSvc)
	aggRate := 1e9 / float64(svcByType[0])
	horizon := float64(jobsPerLight) / lightRate // virtual seconds
	tenants := []serveTenant{
		{name: "light-0", rate: lightRate, jobs: jobsPerLight, kinds: allKinds},
		{name: "light-1", rate: lightRate, jobs: jobsPerLight, kinds: allKinds},
		{name: "aggressor", rate: aggRate, jobs: int(aggRate * horizon), kinds: []int{0}},
	}
	// DRR quantum at the cheapest job's service time: a grant's leftover
	// deficit then never covers another job, so the aggressor cannot burst
	// twice between two light-tenant grants. The latency-sensitive lights
	// get enough weight that a single visit's top-up covers their largest
	// job — otherwise a heavy light job sits accumulating deficit across
	// rounds while the aggressor takes a grant in every one of them.
	quantum, maxSvc := svcByType[0], svcByType[0]
	for _, s := range svcByType {
		if s < quantum {
			quantum = s
		}
		if s > maxSvc {
			maxSvc = s
		}
	}
	wLight := int64(maxSvc/quantum) + 1
	weights := map[string]int64{"light-0": wLight, "light-1": wLight, "aggressor": 1}
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = t.name
	}

	type legResult struct {
		byTenant map[string][]vtime.Duration
		commands map[string]int64
		makespan vtime.Time
		arrival0 vtime.Time
		jobs     int
		wall     time.Duration
	}
	// Every leg gets a fresh cluster: the virtual clocks (NIC, queues,
	// devices) are global and monotonic within one platform, so reusing it
	// would bleed one leg's virtual time into the next and break the
	// rerun-determinism check.
	runLeg := func(fair bool, active []serveTenant) (*legResult, error) {
		lc, err := cluster(1, 0)
		if err != nil {
			return nil, err
		}
		defer lc.Close()
		p := lc.Platform
		dev := p.Devices(haocl.GPU)[0]
		legTraces := make([][]*serveJob, len(active))
		legNames := make([]string, len(active))
		for i, t := range active {
			legTraces[i] = genArrivals(t, seed+int64(len(t.name)))
			legNames[i] = t.name
		}
		merged := mergeByArrival(legTraces...)
		lanes, err := openLanes(p, dev, legNames)
		if err != nil {
			return nil, err
		}
		defer closeLanes(lanes)
		before := laneCommands(lanes)
		sw := startStopwatch()
		var end vtime.Time
		if fair {
			end, err = runFair(p, lanes, merged, svcByType, quantum, weights)
		} else {
			end, err = runFIFO(lanes, merged)
		}
		if err != nil {
			return nil, err
		}
		wall := sw.elapsed()
		commands := laneCommands(lanes)
		for name := range commands {
			commands[name] -= before[name]
		}
		return &legResult{
			byTenant: latenciesByTenant(merged),
			commands: commands,
			makespan: end,
			arrival0: merged[0].arrival,
			jobs:     len(merged),
			wall:     wall,
		}, nil
	}

	// Solo baselines: each light tenant alone on its own cluster, FIFO
	// over its own arrivals.
	soloP99 := make(map[string]float64)
	for _, t := range tenants[:2] {
		res, err := runLeg(false, []serveTenant{t})
		if err != nil {
			return nil, err
		}
		row := serveRow("solo", t.name, res.byTenant[t.name], res.commands[t.name], res.wall)
		soloP99[t.name] = row.P99VirtualMS
		rep.Rows = append(rep.Rows, row)
	}

	legs := []struct {
		mode string
		fair bool
	}{{"fifo", false}, {"fair", true}, {"fair-rerun", true}}
	results := make(map[string]*legResult)
	for _, leg := range legs {
		res, err := runLeg(leg.fair, tenants)
		if err != nil {
			return nil, err
		}
		results[leg.mode] = res
		for _, name := range names {
			rep.Rows = append(rep.Rows, serveRow(leg.mode, name, res.byTenant[name], res.commands[name], res.wall))
		}
		// Aggregate row carries the leg's saturation throughput.
		var all []vtime.Duration
		var commands int64
		for _, name := range names {
			all = append(all, res.byTenant[name]...)
			commands += res.commands[name]
		}
		agg := serveRow(leg.mode, "all", all, commands, res.wall)
		agg.JobsPerVirtSec = float64(res.jobs) / vtime.Duration(res.makespan-res.arrival0).Seconds()
		agg.VirtualSec = res.makespan.Seconds()
		rep.Rows = append(rep.Rows, agg)
	}

	// Light-tenant p99 vs solo, per admission mode: Speedup holds the
	// ratio (>1 = worse than solo). Fair-share must bound it; FIFO must
	// show the aggressor blowing it up.
	for _, mode := range []string{"fifo", "fair"} {
		for _, t := range tenants[:2] {
			p99 := percentileMS(results[mode].byTenant[t.name], 0.99)
			rep.Comparisons = append(rep.Comparisons, Comparison{
				Workload: t.name,
				Baseline: "solo",
				Mode:     mode,
				Speedup:  p99 / soloP99[t.name],
			})
		}
	}
	// Determinism: the fair rerun must reproduce every latency exactly.
	match := true
	for _, name := range names {
		a, b := results["fair"].byTenant[name], results["fair-rerun"].byTenant[name]
		if len(a) != len(b) {
			match = false
			break
		}
		for i := range a {
			if a[i] != b[i] {
				match = false
				break
			}
		}
	}
	rep.Comparisons = append(rep.Comparisons, Comparison{
		Workload:     "Serve",
		Baseline:     "fair",
		Mode:         "fair-rerun",
		Speedup:      1,
		VirtualMatch: match,
	})
	return rep, nil
}

// Serve runs the multi-tenant serve experiment and prints the rows.
func Serve(w io.Writer, quick bool) error {
	jobs := serveSizes(quick)
	fmt.Fprintln(w, "=== Multi-tenant serving: fair-share vs FIFO admission under a 10x aggressor ===")
	fmt.Fprintf(w, "(2 light tenants at 10%% utilization x %d jobs each + 1 aggressor at 100%% utilization,\n", jobs)
	fmt.Fprintln(w, " seeded Poisson arrivals on one shared GPU; latencies are virtual time from arrival)")
	rep, err := ServeReport(quick, 1)
	if err != nil {
		return err
	}
	printServeReport(w, rep)
	return nil
}

// ServeTrace runs the trace-sized serve variant and prints its rows.
func ServeTrace(w io.Writer) error {
	fmt.Fprintln(w, "=== Serve (trace-sized): fair-share vs FIFO at 8 jobs per light tenant ===")
	rep, err := ServeTraceReport(1)
	if err != nil {
		return err
	}
	printServeReport(w, rep)
	return nil
}

func printServeReport(w io.Writer, rep *Report) {
	for _, r := range rep.Rows {
		fmt.Fprintln(w, r)
	}
	for _, c := range rep.Comparisons {
		if c.Mode == "fair-rerun" {
			verdict := "every latency reproduced exactly"
			if !c.VirtualMatch {
				verdict = "LATENCIES DIVERGED ACROSS RERUNS"
			}
			fmt.Fprintf(w, "%s: %s vs %s — %s\n", c.Workload, c.Mode, c.Baseline, verdict)
			continue
		}
		fmt.Fprintf(w, "%s: %s p99 latency %.2fx solo\n", c.Workload, c.Mode, c.Speedup)
	}
}
