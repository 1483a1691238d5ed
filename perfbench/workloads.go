package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/apps"
	"github.com/haocl-project/haocl/internal/apps/bfs"
	"github.com/haocl-project/haocl/internal/apps/cfd"
	"github.com/haocl-project/haocl/internal/apps/knn"
	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/apps/spmv"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/sched"
	"github.com/haocl-project/haocl/internal/vtime"
)

// workloads lists the benchmark's workloads by name. Why each exists is
// recorded in BENCHMARK.json; the layers each is predicted to move are in
// interactions.json.
var workloads = map[string]workload{
	"tile-stream": {name: "tile-stream", gpus: 2, epoch: 500, vepochs: 1, traceOps: 64, new: newTileStream},
	"tenants":     {name: "tenants", gpus: 1, epoch: 5000, vepochs: 8, traceOps: 4000, new: newTenants},
	"migrate":     {name: "migrate", gpus: 2, epoch: 192, vepochs: 1, traceOps: 192, new: newMigrate},
	"apps":        {name: "apps", gpus: 2, epoch: len(appCases), vepochs: 1, traceOps: len(appCases), new: newApps},
}

// tile is the functional edge of every matmul tile the command-bound
// workloads launch: 8×8 float32, 256 bytes, small enough that command
// handling, not kernel execution, is the cost.
const tile = 8

// tileCost models each tile launch at the paper's 1000³ scale, so virtual
// times stay in the regime the figures report.
var tileCost = matmul.Cost(1000, 1000, 1000)

// tilePool is a seeded set of input tiles. Values are small integers, so
// every product and sum is exact in float32 and a device result must equal
// the host reference bit for bit.
type tilePool struct {
	f [][]float32
	b [][]byte
}

func newTilePool(rng *rand.Rand, n int) tilePool {
	var p tilePool
	for i := 0; i < n; i++ {
		t := make([]float32, tile*tile)
		for j := range t {
			t[j] = float32(rng.Intn(9) - 4)
		}
		p.f = append(p.f, t)
		p.b = append(p.b, mem.F32Bytes(t))
	}
	return p
}

// hostMatmul is the sequential reference for one tile product.
func hostMatmul(a, b []float32) []byte {
	c := make([]float32, tile*tile)
	for i := 0; i < tile; i++ {
		for j := 0; j < tile; j++ {
			var acc float32
			for k := 0; k < tile; k++ {
				acc += a[i*tile+k] * b[k*tile+j]
			}
			c[i*tile+j] = acc
		}
	}
	return mem.F32Bytes(c)
}

// tileKernel is one queue with a bound matmul kernel over its own A, B and
// C tile buffers.
type tileKernel struct {
	q       *haocl.Queue
	k       *haocl.Kernel
	a, b, c *haocl.Buffer
}

// newTileKernel creates the buffers on ctx, binds k to them and stages the
// initial contents of a and b on q.
func newTileKernel(ctx *haocl.Context, q *haocl.Queue, k *haocl.Kernel, a, b []byte) (*tileKernel, error) {
	tk := &tileKernel{q: q, k: k}
	for _, buf := range []**haocl.Buffer{&tk.a, &tk.b, &tk.c} {
		var err error
		if *buf, err = ctx.CreateBuffer(tile * tile * 4); err != nil {
			return nil, err
		}
	}
	for i, v := range []any{tk.a, tk.b, tk.c, int32(tile), int32(tile), int32(tile)} {
		if err := k.SetArg(i, v); err != nil {
			return nil, err
		}
	}
	if _, err := q.EnqueueWrite(tk.a, 0, a); err != nil {
		return nil, err
	}
	if _, err := q.EnqueueWrite(tk.b, 0, b); err != nil {
		return nil, err
	}
	if _, err := q.Finish(); err != nil {
		return nil, err
	}
	return tk, nil
}

var tileOpts = &haocl.LaunchOptions{CostFlops: tileCost.Flops, CostBytes: tileCost.Bytes}

// launch enqueues the tile kernel, one work-group per tile.
func (tk *tileKernel) launch(pr *probe, opts *haocl.LaunchOptions) error {
	t := pr.now()
	_, err := tk.q.EnqueueKernel(tk.k, []int{tile, tile}, []int{tile, tile}, nil, opts)
	pr.end(spanKernel, t)
	return err
}

// write enqueues a write of data into buf.
func write(pr *probe, q *haocl.Queue, buf *haocl.Buffer, off int64, data []byte, waits ...*haocl.Event) error {
	t := pr.now()
	_, err := q.EnqueueWrite(buf, off, data, waits...)
	pr.end(spanWrite, t)
	return err
}

// read reads size bytes of buf back, blocking.
func read(pr *probe, q *haocl.Queue, buf *haocl.Buffer, size int64) ([]byte, *haocl.Event, error) {
	t := pr.now()
	data, ev, err := q.EnqueueRead(buf, 0, size)
	pr.end(spanRead, t)
	return data, ev, err
}

// finish drains q.
func finish(pr *probe, q *haocl.Queue) (vtime.Time, error) {
	t := pr.now()
	end, err := q.Finish()
	pr.end(spanFinish, t)
	return end, err
}

// ---- tile-stream ----

// tileWindow is how many tiles the host issues between Finish calls.
const tileWindow = 64

// tileStream streams MatrixMul tiles to two GPU nodes in one long-lived
// session: per tile, two 256 B writes and one launch on a device picked by
// the seeded generator; every tileWindow tiles the host finishes both
// queues. An operation is one window.
type tileStream struct {
	pr   *probe
	rng  *rand.Rand
	pool tilePool
	ctx  *haocl.Context
	devs []*tileKernel
	last []struct{ a, b int } // pool indices of the last tile per device
	prev vtime.Time
}

func newTileStream(seed int64, pr *probe) runner {
	rng := rand.New(rand.NewSource(seed))
	return &tileStream{pr: pr, rng: rng, pool: newTilePool(rng, 16)}
}

func (w *tileStream) build(p *haocl.Platform) error {
	devs := p.Devices(haocl.GPU)
	ctx, err := p.CreateContext(devs)
	if err != nil {
		return err
	}
	w.ctx = ctx
	prog, err := ctx.CreateProgram(matmul.Source)
	if err != nil {
		return err
	}
	if err := prog.Build(); err != nil {
		return err
	}
	for _, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			return err
		}
		k, err := prog.CreateKernel("matmul")
		if err != nil {
			return err
		}
		w.devs = append(w.devs, &tileKernel{q: q, k: k})
	}
	w.last = make([]struct{ a, b int }, len(w.devs))
	return nil
}

func (w *tileStream) stage() error {
	for i, d := range w.devs {
		tk, err := newTileKernel(w.ctx, d.q, d.k, w.pool.b[0], w.pool.b[1])
		if err != nil {
			return err
		}
		w.devs[i] = tk
		w.last[i] = struct{ a, b int }{0, 1}
		end, err := tk.q.Finish()
		if err != nil {
			return err
		}
		w.prev = max(w.prev, end)
	}
	return nil
}

func (w *tileStream) op(int) (opResult, error) {
	res := opResult{vsample: true}
	for t := 0; t < tileWindow; t++ {
		di := w.rng.Intn(len(w.devs))
		ia, ib := w.rng.Intn(len(w.pool.b)), w.rng.Intn(len(w.pool.b))
		d := w.devs[di]
		if err := write(w.pr, d.q, d.a, 0, w.pool.b[ia]); err != nil {
			return res, err
		}
		if err := write(w.pr, d.q, d.b, 0, w.pool.b[ib]); err != nil {
			return res, err
		}
		if err := d.launch(w.pr, tileOpts); err != nil {
			return res, err
		}
		w.last[di] = struct{ a, b int }{ia, ib}
		res.cmds += 3
		res.payload += 2 * tile * tile * 4
	}
	end := w.prev
	for _, d := range w.devs {
		e, err := finish(w.pr, d.q)
		if err != nil {
			return res, err
		}
		if e > end {
			end = e
		}
	}
	res.vlat = vtime.Duration(end - w.prev)
	w.prev = end
	return res, nil
}

// verify reads back the last C tile of each device and compares it with
// the host product of the tiles last written there.
func (w *tileStream) verify() (int, int, error) {
	bad := 0
	for i, d := range w.devs {
		got, _, err := d.q.EnqueueRead(d.c, 0, tile*tile*4)
		if err != nil {
			return i, bad, err
		}
		if !bytes.Equal(got, hostMatmul(w.pool.f[w.last[i].a], w.pool.f[w.last[i].b])) {
			bad++
		}
	}
	return len(w.devs), bad, nil
}

// ---- tenants ----

// tenantJobKinds are the request shapes: a compute-heavy matmul tile, a
// byte-heavy BFS frontier and a balanced SpMV iteration. Only the modeled
// cost differs; the functional launch is always one tile.
var tenantJobKinds = []haocl.LaunchOptions{
	{CostFlops: 2 * 256 * 256 * 256, CostBytes: 3 * 4 * 256 * 256},
	{CostFlops: 2 << 20, CostBytes: 48 << 20},
	{CostFlops: 16 << 20, CostBytes: 16 << 20},
}

// tenantSpec is one load-generating tenant: its device utilization and the
// job kinds it cycles through.
type tenantSpec struct {
	name  string
	util  float64
	kinds []int
}

var tenantSpecs = []tenantSpec{
	{"light-0", 0.10, []int{0, 1, 2}},
	{"light-1", 0.10, []int{0, 1, 2}},
	{"aggressor", 1.00, []int{0}},
}

// tenantLane is one tenant's session, queue and kernel on the shared GPU.
type tenantLane struct {
	spec tenantSpec
	ctx  *haocl.Context
	tk   *tileKernel
	rng  *rand.Rand
	next vtime.Time // next arrival
	n    int        // jobs generated
	want [][]byte   // expected C for each pool tile
}

type tenantJob struct {
	lane    *tenantLane
	arrival vtime.Time
	kind    int
	tile    int
}

// tenants serves three tenants' seeded Poisson arrivals, in virtual time,
// on one shared GPU node through the weighted DRR FairQueue: two light
// tenants at 10% device utilization and an aggressor at 100%. One job is
// in flight at a time in wall time; each is a 256 B write, a launch and a
// blocking read whose result is verified. An operation is one job.
type tenants struct {
	seed    int64
	pr      *probe
	pool    tilePool
	lanes   []*tenantLane
	fq      *sched.FairQueue
	svc     []vtime.Duration // virtual service time per job kind
	meanSvc vtime.Duration
	now     vtime.Time
}

func newTenants(seed int64, pr *probe) runner {
	return &tenants{seed: seed, pr: pr, pool: newTilePool(rand.New(rand.NewSource(seed)), 16)}
}

func (w *tenants) build(p *haocl.Platform) error {
	dev := p.Devices(haocl.GPU)[0]
	for i, spec := range tenantSpecs {
		sess := p.OpenSession(spec.name)
		ctx, err := sess.CreateContext([]*haocl.Device{dev})
		if err != nil {
			return err
		}
		prog, err := ctx.CreateProgram(matmul.Source)
		if err != nil {
			return err
		}
		if err := prog.Build(); err != nil {
			return err
		}
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			return err
		}
		k, err := prog.CreateKernel("matmul")
		if err != nil {
			return err
		}
		w.lanes = append(w.lanes, &tenantLane{
			spec: spec, ctx: ctx, tk: &tileKernel{q: q, k: k},
			rng: rand.New(rand.NewSource(w.seed*31 + int64(i) + 1)),
		})
	}
	return nil
}

// stage binds each lane's buffers, stages its fixed B tile, measures each
// job kind's virtual service time on the shared device, and starts the
// arrival processes at the instant calibration ended.
func (w *tenants) stage() error {
	for i, l := range w.lanes {
		b := w.pool.f[(i+1)%len(w.pool.f)]
		tk, err := newTileKernel(l.ctx, l.tk.q, l.tk.k, w.pool.b[0], mem.F32Bytes(b))
		if err != nil {
			return err
		}
		l.tk = tk
		for _, a := range w.pool.f {
			l.want = append(l.want, hostMatmul(a, b))
		}
	}
	var err error
	w.now, err = w.lanes[0].tk.q.Finish()
	if err != nil {
		return err
	}
	for kind := range tenantJobKinds {
		job := &tenantJob{lane: w.lanes[0], arrival: w.now, kind: kind}
		end, _, err := w.dispatch(job, w.now)
		if err != nil {
			return err
		}
		w.svc = append(w.svc, vtime.Duration(end-w.now))
		w.now = end
	}
	quantum, maxSvc := w.svc[0], w.svc[0]
	for _, s := range w.svc {
		w.meanSvc += s / vtime.Duration(len(w.svc))
		quantum = min(quantum, s)
		maxSvc = max(maxSvc, s)
	}
	// As in the serve experiment: a quantum of the cheapest job, and light
	// weights large enough that one visit covers their largest job.
	w.fq = sched.NewFairQueue(quantum)
	for _, l := range w.lanes {
		if l.spec.util < 1 {
			w.fq.SetWeight(l.spec.name, int64(maxSvc/quantum)+1)
		} else {
			w.fq.SetWeight(l.spec.name, 1)
		}
		l.next = w.now
		w.arrive(l)
	}
	return nil
}

// arrive draws the lane's next arrival: exponential interarrivals at the
// rate that loads the device to the tenant's utilization.
func (w *tenants) arrive(l *tenantLane) {
	svc := w.meanSvc
	if len(l.spec.kinds) == 1 {
		svc = w.svc[l.spec.kinds[0]]
	}
	l.next += vtime.Time(l.rng.ExpFloat64() * float64(svc) / l.spec.util)
}

// dispatch runs one job no earlier than floor and returns its completion.
func (w *tenants) dispatch(job *tenantJob, floor vtime.Time) (vtime.Time, bool, error) {
	tk := job.lane.tk
	if err := write(w.pr, tk.q, tk.a, 0, w.pool.b[job.tile], haocl.FloorEvent(floor)); err != nil {
		return 0, false, err
	}
	if err := tk.launch(w.pr, &tenantJobKinds[job.kind]); err != nil {
		return 0, false, err
	}
	got, ev, err := read(w.pr, tk.q, tk.c, tile*tile*4)
	if err != nil {
		return 0, false, err
	}
	return ev.End(), bytes.Equal(got, job.lane.want[job.tile]), nil
}

func (w *tenants) op(int) (opResult, error) {
	for {
		// Admit every arrival up to the current virtual instant.
		for {
			l := w.nextArrival()
			if l.next > w.now {
				break
			}
			job := &tenantJob{lane: l, arrival: l.next, kind: l.spec.kinds[l.n%len(l.spec.kinds)], tile: l.rng.Intn(len(w.pool.b))}
			l.n++
			t := w.pr.now()
			w.fq.Submit(sched.FairItem{Tenant: l.spec.name, Cost: w.svc[job.kind], Arrival: job.arrival, Payload: job})
			w.pr.end(spanSubmit, t)
			w.arrive(l)
		}
		t := w.pr.now()
		item, ok := w.fq.NextAt(w.now)
		w.pr.end(spanNext, t)
		if !ok {
			w.now = w.nextArrival().next // device idle until the next arrival
			continue
		}
		job := item.Payload.(*tenantJob)
		w.pr.grant()
		end, good, err := w.dispatch(job, w.now)
		w.fq.Done(job.lane.spec.name)
		if err != nil {
			return opResult{cmds: 3}, err
		}
		w.now = end
		return opResult{
			cmds:    3,
			payload: 2 * tile * tile * 4,
			vlat:    vtime.Duration(end - job.arrival),
			vsample: job.lane.spec.util < 1,
			bad:     !good,
		}, nil
	}
}

// attach records the FairQueue's admission grants into the program
// tracer's run (nil detaches).
func (w *tenants) attach(run *haocl.TraceRun) { w.fq.SetTracer(run) }

// nextArrival returns the lane whose next arrival is earliest, ties to the
// first lane.
func (w *tenants) nextArrival() *tenantLane {
	best := w.lanes[0]
	for _, l := range w.lanes[1:] {
		if l.next < best.next {
			best = l
		}
	}
	return best
}

// verify has nothing left to check: every job's read was compared.
func (w *tenants) verify() (int, int, error) { return 0, 0, nil }

// ---- migrate ----

const (
	migrateSize  = 4 << 20
	migrateAlign = 4 << 10
	// Chunks are 224–288 KiB, 256 KiB on average: the seed varies the
	// sizes so each seed has its own virtual timeline.
	migrateChunkMin   = 224 << 10
	migrateChunkSteps = 16 // of migrateAlign above the minimum
	migrateReadEvery  = 8
)

// migrate shares a 4 MiB buffer between two GPU nodes. Each round the host
// writes a chunk on node A and node B copies the whole buffer, so the stale
// range moves node to node; every 8th round (phase set by the seed) the
// host reads B's copy back and compares it with a host mirror. An
// operation is one round, finished on both queues.
type migrate struct {
	pr           *probe
	rng          *rand.Rand
	src          []byte // seeded source of chunk contents
	mirror       []byte
	qA, qB       *haocl.Queue
	ctx          *haocl.Context
	buf, scratch *haocl.Buffer
	phase        int
	prev         vtime.Time
}

func newMigrate(seed int64, pr *probe) runner {
	rng := rand.New(rand.NewSource(seed))
	src := make([]byte, migrateSize)
	rng.Read(src)
	return &migrate{pr: pr, rng: rng, src: src, phase: rng.Intn(migrateReadEvery)}
}

func (w *migrate) build(p *haocl.Platform) error {
	devs := p.Devices(haocl.GPU)
	ctx, err := p.CreateContext(devs)
	if err != nil {
		return err
	}
	w.ctx = ctx
	if w.qA, err = ctx.CreateQueue(devs[0]); err != nil {
		return err
	}
	w.qB, err = ctx.CreateQueue(devs[1])
	return err
}

// stage fills the shared buffer on A and settles B's replica of it, so the
// measured rounds move only what each round stales.
func (w *migrate) stage() error {
	var err error
	if w.buf, err = w.ctx.CreateBuffer(migrateSize); err != nil {
		return err
	}
	if w.scratch, err = w.ctx.CreateBuffer(migrateSize); err != nil {
		return err
	}
	w.mirror = append([]byte(nil), w.src...)
	if _, err := w.qA.EnqueueWrite(w.buf, 0, w.mirror); err != nil {
		return err
	}
	if _, err := w.qB.EnqueueCopy(w.buf, w.scratch, 0, 0, migrateSize); err != nil {
		return err
	}
	if _, err := w.qA.Finish(); err != nil {
		return err
	}
	w.prev, err = w.qB.Finish()
	return err
}

func (w *migrate) op(i int) (opResult, error) {
	var res opResult
	n := int64(migrateChunkMin + migrateAlign*w.rng.Intn(migrateChunkSteps+1))
	off := migrateAlign * w.rng.Int63n((migrateSize-n)/migrateAlign+1)
	so := migrateAlign * w.rng.Int63n((migrateSize-n)/migrateAlign+1)
	chunk := w.src[so : so+n]
	if err := write(w.pr, w.qA, w.buf, off, chunk); err != nil {
		return res, err
	}
	copy(w.mirror[off:], chunk)
	t := w.pr.now()
	_, err := w.qB.EnqueueCopy(w.buf, w.scratch, 0, 0, migrateSize)
	w.pr.end(spanCopy, t)
	if err != nil {
		return res, err
	}
	res.cmds = 2
	res.payload = 2 * n // written to A, then moved A→B
	if (i+w.phase)%migrateReadEvery == 0 {
		got, _, err := read(w.pr, w.qB, w.scratch, migrateSize)
		if err != nil {
			return res, err
		}
		res.cmds++
		res.payload += migrateSize
		res.bad = !bytes.Equal(got, w.mirror)
	}
	endA, err := finish(w.pr, w.qA)
	if err != nil {
		return res, err
	}
	endB, err := finish(w.pr, w.qB)
	if err != nil {
		return res, err
	}
	end := max(endA, endB)
	res.vlat, res.vsample = vtime.Duration(end-w.prev), true
	w.prev = end
	return res, nil
}

// verify compares B's final copy with the mirror.
func (w *migrate) verify() (int, int, error) {
	got, _, err := w.qB.EnqueueRead(w.scratch, 0, migrateSize)
	if err != nil {
		return 1, 0, err
	}
	if !bytes.Equal(got, w.mirror) {
		return 1, 1, nil
	}
	return 1, 0, nil
}

// ---- apps ----

// appCase is one Table I application at raised functional size: large
// enough that functional kernel execution dominates wall time, while the
// logical (modeled) size stays at paper scale, scaled by the run's jitter.
type appCase struct {
	name   string
	source string
	bytes  int64 // functional input bytes, the payload of one run
	run    func(p *haocl.Platform, devs []*haocl.Device, jitter float64) (apps.Result, error)
}

// scaled jitters a logical size by the seed's factor in [1, 1+appJitter):
// each seed gets its own virtual timeline at paper scale. The range is
// kept small because the apps of a pass overlap on the shared virtual
// clocks: past about 1% the overlap changes shape and a seed's per-app
// virtual latencies jump.
func scaled(n int, jitter float64) int { return int(float64(n) * jitter) }

const (
	appJitter      = 0.005
	appMatmulN     = 128
	appCFDElems    = 4096
	appKNNPoints   = 20000
	appKNNQueries  = 8
	appBFSSide     = 16
	appSpMVRows    = 8192
	appSpMVNNZ     = 16
	appIters       = 2
	appKNNDims     = knn.DefaultDims
	appBytesPerF32 = 4
)

var appCases = []appCase{
	{"MatrixMul", matmul.Source, 3 * appBytesPerF32 * appMatmulN * appMatmulN,
		func(p *haocl.Platform, devs []*haocl.Device, j float64) (apps.Result, error) {
			return matmul.Run(p, matmul.Config{LogicalN: scaled(matmul.DefaultLogicalN, j), FuncN: appMatmulN, Devices: devs})
		}},
	{"CFD", cfd.Source, cfd.InputBytes(appCFDElems),
		func(p *haocl.Platform, devs []*haocl.Device, j float64) (apps.Result, error) {
			return cfd.Run(p, cfd.Config{LogicalElems: scaled(cfd.DefaultLogicalElems, j), FuncElems: appCFDElems,
				LogicalIters: cfd.DefaultLogicalIters, FuncIters: appIters, Devices: devs})
		}},
	{"kNN", knn.Source, knn.InputBytes(appKNNPoints, appKNNQueries, appKNNDims),
		func(p *haocl.Platform, devs []*haocl.Device, j float64) (apps.Result, error) {
			return knn.Run(p, knn.Config{LogicalPoints: scaled(knn.DefaultLogicalPoints, j),
				LogicalQueries: knn.DefaultLogicalQueries, FuncPoints: appKNNPoints, FuncQueries: appKNNQueries,
				Dims: appKNNDims, K: knn.DefaultK, Devices: devs})
		}},
	{"BFS", bfs.Source, bfs.InputBytes(appBFSSide),
		func(p *haocl.Platform, devs []*haocl.Device, j float64) (apps.Result, error) {
			return bfs.Run(p, bfs.Config{LogicalSide: scaled(bfs.DefaultLogicalSide, j), FuncSide: appBFSSide,
				Sources: bfs.DefaultSources, Devices: devs})
		}},
	{"SpMV", spmv.Source, spmv.InputBytes(appSpMVRows, appSpMVNNZ),
		func(p *haocl.Platform, devs []*haocl.Device, j float64) (apps.Result, error) {
			return spmv.Run(p, spmv.Config{LogicalRows: scaled(spmv.DefaultLogicalRows, j),
				LogicalNNZPerRow: spmv.DefaultLogicalNNZPerRow, FuncRows: appSpMVRows, FuncNNZPerRow: appSpMVNNZ,
				LogicalIters: spmv.DefaultLogicalIters, FuncIters: appIters,
				PartitionDevices: devs[:1], ComputeDevices: devs})
		}},
}

// appsRun runs the five Table I applications on two GPU nodes, each
// verified against its sequential reference. An epoch is one pass on a
// fresh cluster (the apps release nothing, so a pass's buffers live until
// its cluster goes); an operation is one app run.
type appsRun struct {
	p      *haocl.Platform
	devs   []*haocl.Device
	jitter float64
	prev   vtime.Time
}

// newApps takes no probe: the apps make their API calls inside
// internal/apps, so the traced run measures them at the node, kernel,
// transport and protocol layers only.
func newApps(seed int64, _ *probe) runner {
	rng := rand.New(rand.NewSource(seed))
	return &appsRun{jitter: 1 + appJitter*rng.Float64()}
}

// build compiles every app's program once, on both nodes: the program
// build cost of the workload's set-up.
func (w *appsRun) build(p *haocl.Platform) error {
	w.p, w.devs = p, p.Devices(haocl.GPU)
	ctx, err := p.CreateContext(w.devs)
	if err != nil {
		return err
	}
	for _, c := range appCases {
		prog, err := ctx.CreateProgram(c.source)
		if err != nil {
			return err
		}
		if err := prog.Build(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

func (w *appsRun) stage() error { return nil }

func (w *appsRun) op(i int) (opResult, error) {
	c := appCases[i]
	before := w.p.Metrics().Commands
	r, err := c.run(w.p, w.devs, w.jitter)
	res := opResult{cmds: int(w.p.Metrics().Commands - before), payload: c.bytes}
	if err != nil {
		return res, fmt.Errorf("%s: %w", c.name, err)
	}
	end := vtime.Time(r.Makespan)
	res.vlat, res.vsample, res.bad = vtime.Duration(end-w.prev), true, !r.Verified
	w.prev = end
	return res, nil
}

// verify has nothing left to check: every app run verified itself.
func (w *appsRun) verify() (int, int, error) { return 0, 0, nil }

// percentileDur is the nearest-rank p-th percentile.
func percentileDur(d []vtime.Duration, p float64) vtime.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]vtime.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), p)]
}

func rank(n int, p float64) int {
	r := int(float64(n)*p+0.5) - 1
	return min(max(r, 0), n-1)
}
