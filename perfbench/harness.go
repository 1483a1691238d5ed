package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/vtime"
)

// A run is a sequence of epochs. Each epoch starts a fresh cluster, sets it
// up (one setup_s sample), runs a fixed number of operations in one
// long-lived session and tears the cluster down. Epochs bound the memory a
// run holds — the runtime keeps a per-session command log and a per-
// connection node event table that only teardown frees — and start every
// epoch on fresh virtual clocks, so an epoch's virtual timeline is a pure
// function of its seeded inputs: each complete epoch must reproduce the
// earlier one that shares its sub-seed exactly, which is the run's
// determinism check. Set-up, the end-of-epoch verification and the forced
// GC behind heap_mb happen outside the measured window.

// opResult is what one workload operation did.
type opResult struct {
	cmds    int            // API commands issued
	payload int64          // payload bytes moved by those commands
	vlat    vtime.Duration // virtual duration of the operation
	vsample bool           // vlat counts toward the virtual latency percentile
	bad     bool           // the operation returned a wrong result
}

// runner is one epoch of a workload, bound to its seed.
type runner interface {
	// build creates the epoch's contexts, kernels and programs on p.
	build(p *haocl.Platform) error
	// stage creates buffers and stages their initial contents.
	stage() error
	// op runs operation i of the epoch.
	op(i int) (opResult, error)
	// verify runs the end-of-epoch correctness check and reports how many
	// results it compared and how many were wrong.
	verify() (checks, bad int, err error)
}

// workload describes one benchmark workload.
type workload struct {
	name  string
	gpus  int
	epoch int // operations per epoch
	// vepochs is how many epochs, each with its own sub-seed, the virtual
	// metrics pool: enough samples that a seed's tail percentile is
	// stable.
	vepochs int
	// traceOps is how many operations at the start of epoch 0 the traced
	// run records with the program's own virtual-time tracer: enough for
	// stable phase percentiles, few enough that the exported timeline
	// stays small.
	traceOps int
	new      func(seed int64, pr *probe) runner
}

// tracerUser is a runner that records into the program tracer itself (the
// FairQueue's admission spans).
type tracerUser interface {
	attach(run *haocl.TraceRun)
}

// stopRule ends a run after a wall-clock budget of measured operation time
// or after an exact operation count. The first vepochs epochs complete
// however short the budget, so the virtual metrics exist, unless the run
// is only a warm-up.
type stopRule struct {
	wall   time.Duration
	ops    int
	warmUp bool
}

// usage is the process resources consumed by one stretch of operations.
type usage struct {
	wall          time.Duration
	cpu           time.Duration
	mallocs       uint64
	allocBytes    uint64
	hostWireBytes int64
	peerWireBytes int64
	traffic       connCounts
}

type meter struct {
	t0       time.Time
	cpu0     time.Duration
	ms0      runtime.MemStats
	m0       haocl.Metrics
	p        *haocl.Platform
	pr       *probe
	traffic0 connCounts
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter(p *haocl.Platform, pr *probe) *meter {
	m := &meter{p: p, pr: pr, m0: p.Metrics()}
	if pr != nil {
		m.traffic0 = pr.hostTraffic()
		pr.active.Store(true)
	}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() usage {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		wall:       wall,
		cpu:        cpu,
		mallocs:    ms.Mallocs - m.ms0.Mallocs,
		allocBytes: ms.TotalAlloc - m.ms0.TotalAlloc,
	}
	m1 := m.p.Metrics()
	u.hostWireBytes = m1.HostWireBytes - m.m0.HostWireBytes
	u.peerWireBytes = m1.PeerWireBytes - m.m0.PeerWireBytes
	if m.pr != nil {
		m.pr.active.Store(false)
		u.traffic = m.pr.hostTraffic().sub(m.traffic0)
	}
	return u
}

func (u *usage) add(v usage) {
	u.wall += v.wall
	u.cpu += v.cpu
	u.mallocs += v.mallocs
	u.allocBytes += v.allocBytes
	u.hostWireBytes += v.hostWireBytes
	u.peerWireBytes += v.peerWireBytes
	u.traffic.add(v.traffic)
}

// virtualSummary condenses a virtual timeline: its makespan and the
// distribution of the operations' virtual latencies.
type virtualSummary struct {
	makespan vtime.Duration
	p99      vtime.Duration
	sum      vtime.Duration
	samples  int
}

func summarize(makespan vtime.Duration, lats []vtime.Duration) virtualSummary {
	v := virtualSummary{makespan: makespan, p99: percentileDur(lats, 0.99), samples: len(lats)}
	for _, l := range lats {
		v.sum += l
	}
	return v
}

// setupTimes is one epoch's set-up, split into phases.
type setupTimes struct {
	connect, build, stage time.Duration
}

func (s setupTimes) total() time.Duration { return s.connect + s.build + s.stage }

// epochStat is what one epoch's measured window did.
type epochStat struct {
	ops, cmds int
	payload   int64
	use       usage
	lat       []time.Duration
	complete  bool
}

// runResult is everything one run measured.
type runResult struct {
	ops, cmds   int
	payload     int64
	attempted   int
	failed      int
	errors      []string
	use         usage
	latencies   []time.Duration // per operation
	setups      []setupTimes
	heaps       [][]float64    // MiB each complete epoch left live, by sub-seed
	virtual     virtualSummary // over the first vepochs epochs, pooled
	epochs      int
	perEpoch    []epochStat
	divergences int
	tracer      *haocl.Tracer // program tracer spans of epoch 0 (traced runs)
}

// maxErrors bounds how many failed operations a run tolerates before it
// stops: a latched sticky error would otherwise fail every later command.
const maxErrors = 16

// run executes w under rule, with every layer probe attached when pr is
// non-nil.
func run(w workload, seed int64, rule stopRule, pr *probe) (*runResult, error) {
	res := &runResult{heaps: make([][]float64, w.vepochs)}
	refs := make([]virtualSummary, w.vepochs)
	var makespan vtime.Duration
	var pooled []vtime.Duration
	for epoch := 0; ; epoch++ {
		v, lats, done, err := runEpoch(w, seed, rule, pr, epoch, res)
		if err != nil {
			return res, err
		}
		if v != nil {
			switch k := epoch % w.vepochs; {
			case epoch < w.vepochs:
				refs[k] = *v
				makespan += v.makespan
				pooled = append(pooled, lats...)
				if epoch == w.vepochs-1 {
					res.virtual = summarize(makespan, pooled)
				}
			case *v != refs[k]:
				res.divergences++
				res.failed++
				res.errors = append(res.errors, fmt.Sprintf("epoch %d virtual timeline %+v diverged from epoch %d's %+v", epoch, *v, k, refs[k]))
			}
		}
		if done {
			return res, nil
		}
	}
}

// budgetLeft reports whether rule allows another operation.
func (r stopRule) budgetLeft(res *runResult, elapsed time.Duration) bool {
	if r.ops > 0 {
		return res.ops < r.ops
	}
	return res.use.wall+elapsed < r.wall
}

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// runEpoch runs one epoch on a fresh cluster. Epoch k uses sub-seed k mod
// vepochs, and the first vepochs epochs always complete: their pooled
// virtual timeline is the run's, and every later complete epoch must
// reproduce the one that shares its sub-seed. It returns the epoch's
// virtual summary and latencies when it completed, and whether the run is
// done.
func runEpoch(w workload, seed int64, rule stopRule, pr *probe, epoch int, res *runResult) (*virtualSummary, []vtime.Duration, bool, error) {
	heap0 := liveHeap()
	var st setupTimes
	t0 := time.Now()
	c, err := startCluster(w.gpus, pr)
	if err != nil {
		return nil, nil, true, fmt.Errorf("%s: start cluster: %w", w.name, err)
	}
	defer c.Close()
	st.connect = time.Since(t0)
	r := w.new(seed*1_000_003+int64(epoch%w.vepochs), pr)
	t1 := time.Now()
	if err := r.build(c.P); err != nil {
		return nil, nil, true, fmt.Errorf("%s: build: %w", w.name, err)
	}
	st.build = time.Since(t1)
	t2 := time.Now()
	if err := r.stage(); err != nil {
		return nil, nil, true, fmt.Errorf("%s: stage: %w", w.name, err)
	}
	st.stage = time.Since(t2)
	res.setups = append(res.setups, st)
	if pr != nil {
		at := func(t time.Time) int64 { return int64(t.Sub(pr.origin)) }
		pr.add(span{kind: spanConnect, op: -1, start: at(t0), end: at(t1)})
		pr.add(span{kind: spanBuild, op: -1, start: at(t1), end: at(t2)})
		pr.add(span{kind: spanStage, op: -1, start: at(t2), end: pr.now()})
	}

	tracing := pr != nil && epoch == 0
	setTracer := func(t *haocl.Tracer) {
		run := c.P.SetTracer(t)
		if tu, ok := r.(tracerUser); ok {
			tu.attach(run)
		}
	}
	if tracing {
		res.tracer = haocl.NewTracer()
		setTracer(res.tracer)
	}
	mustComplete := epoch < w.vepochs && !rule.warmUp
	ops0, cmds0, payload0, lat0 := res.ops, res.cmds, res.payload, len(res.latencies)
	startMakespan := c.P.Metrics().Makespan
	vlats := make([]vtime.Duration, 0, w.epoch)
	m := startMeter(c.P, pr)
	opStart := time.Now()
	errs := 0
	i := 0
	for ; i < w.epoch; i++ {
		if !mustComplete && !rule.budgetLeft(res, time.Since(opStart)) {
			break
		}
		if tracing && i == w.traceOps {
			setTracer(nil)
		}
		pr.setOp(res.ops)
		t := time.Now()
		tp := pr.now()
		or, err := r.op(i)
		res.latencies = append(res.latencies, time.Since(t))
		pr.end(spanOp, tp)
		res.ops++
		res.attempted++
		res.cmds += or.cmds
		res.payload += or.payload
		if or.vsample {
			vlats = append(vlats, or.vlat)
		}
		if err != nil || or.bad {
			res.failed++
			if err != nil {
				errs++
				res.errors = append(res.errors, err.Error())
				if errs >= maxErrors {
					break
				}
			}
		}
	}
	u := m.stop()
	complete := i == w.epoch
	res.use.add(u)
	res.perEpoch = append(res.perEpoch, epochStat{
		ops: res.ops - ops0, cmds: res.cmds - cmds0, payload: res.payload - payload0,
		use: u, lat: res.latencies[lat0:], complete: complete,
	})
	if tracing {
		setTracer(nil)
	}
	var v *virtualSummary
	if complete {
		s := summarize(vtime.Duration(c.P.Metrics().Makespan-startMakespan), vlats)
		v = &s
	}
	checks, bad, err := r.verify()
	res.attempted += checks
	res.failed += bad
	if err != nil {
		res.failed++
		res.errors = append(res.errors, err.Error())
	}
	if complete {
		k := epoch % w.vepochs
		res.heaps[k] = append(res.heaps[k], float64(liveHeap()-heap0)/(1<<20))
	}
	res.epochs++
	if errs >= maxErrors {
		return v, vlats, true, fmt.Errorf("%s: %d operations failed, last: %s", w.name, errs, res.errors[len(res.errors)-1])
	}
	done := !rule.budgetLeft(res, 0) && (epoch >= w.vepochs-1 || rule.warmUp)
	return v, vlats, done, nil
}
