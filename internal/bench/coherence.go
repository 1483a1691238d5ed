package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/core"
)

// This file measures the range-aware coherence layer (DESIGN.md §5). The
// pre-range runtime migrated whole buffers whenever a replica was stale at
// all; the range layer tracks per-replica validity as interval sets and
// delta migration moves only the stale byte ranges. The experiment drives
// a partial-update loop — the halo-exchange / incremental-update shape the
// layer exists for — over loopback TCP in two migration modes:
//
//	full   — core.MigrateFull: any staleness re-migrates the whole
//	         replica, the pre-range behavior;
//	delta  — core.MigrateHostRelay: only the stale ranges travel, relayed
//	         through the host (the pre-p2p data path).
//
// The default MigrateDelta mode additionally moves owner-covered ranges
// node→node; it is measured against host-relay by the p2p experiment
// (p2p.go), which keeps this one a pure range-layer comparison.
//
// The number that moves is modeled wire traffic (Metrics.WireBytes) and
// with it the virtual makespan; functional results are byte-identical, and
// on the fully-stale workload — where the delta IS the whole buffer — the
// two modes must produce bit-identical virtual makespans and byte counts.

// coherenceModeName names a migration mode in report rows.
func coherenceModeName(m core.MigrationMode) string {
	switch m {
	case core.MigrateFull:
		return "full"
	case core.MigrateHostRelay:
		return "delta"
	default:
		return "p2p"
	}
}

// coherenceSizes returns the buffer geometry for the experiment.
func coherenceSizes(quick bool) (size, chunk int64, partialIters, staleIters int) {
	if quick {
		return 64 << 10, 4 << 10, 8, 4
	}
	return 256 << 10, 16 << 10, 32, 8
}

// coherenceHarness builds the 2-node loopback-TCP cluster with one buffer
// plus both replicas materialized, so the measured loop starts from a
// settled coherence state, and returns the metrics baseline at that point.
type coherenceHarness struct {
	p        *haocl.Platform
	cleanup  func()
	ctx      *haocl.Context
	qA, qB   *haocl.Queue
	buf      *haocl.Buffer
	expected []byte
	base     haocl.Metrics
}

func newCoherenceHarness(size int64, mode core.MigrationMode) (*coherenceHarness, error) {
	p, cleanup, err := pipelinePlatform(2, true)
	if err != nil {
		return nil, err
	}
	h := &coherenceHarness{p: p, cleanup: cleanup}
	ok := false
	defer func() {
		if !ok {
			cleanup()
		}
	}()
	p.Runtime().SetMigrationMode(mode)

	devs := p.Devices(haocl.GPU)
	if len(devs) != 2 {
		return nil, fmt.Errorf("coherence: cluster exposes %d devices, want 2", len(devs))
	}
	ctx, err := p.CreateContext(devs)
	if err != nil {
		return nil, err
	}
	h.ctx = ctx
	if h.qA, err = ctx.CreateQueue(devs[0]); err != nil {
		return nil, err
	}
	if h.qB, err = ctx.CreateQueue(devs[1]); err != nil {
		return nil, err
	}
	if h.buf, err = ctx.CreateBuffer(size); err != nil {
		return nil, err
	}
	h.expected = make([]byte, size)
	for i := range h.expected {
		h.expected[i] = byte(i % 251)
	}
	if _, err := h.qA.EnqueueWrite(h.buf, 0, h.expected); err != nil {
		return nil, err
	}
	if got, _, err := h.qB.EnqueueRead(h.buf, 0, size); err != nil {
		return nil, err
	} else if !bytes.Equal(got, h.expected) {
		return nil, fmt.Errorf("coherence: setup read mismatch")
	}
	h.base = p.Metrics()
	ok = true
	return h, nil
}

// finish folds the loop's wall clock and metrics delta into the row and
// verifies the final buffer contents on both nodes.
func (h *coherenceHarness) finish(row *PipelineRow, wall time.Duration) error {
	for _, q := range []*haocl.Queue{h.qA, h.qB} {
		got, _, err := q.EnqueueRead(h.buf, 0, int64(len(h.expected)))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, h.expected) {
			return fmt.Errorf("coherence: final contents diverged on %s", q.Device().Key())
		}
	}
	m := h.p.Metrics()
	row.Commands = m.Commands - h.base.Commands
	row.WallMS = float64(wall.Microseconds()) / 1000
	row.CmdsPerSec = float64(row.Commands) / wall.Seconds()
	row.VirtualSec = m.Makespan.Seconds()
	row.WireMB = float64(m.WireBytes-h.base.WireBytes) / (1 << 20)
	row.HostWireMB = float64(m.HostWireBytes-h.base.HostWireBytes) / (1 << 20)
	row.PeerWireMB = float64(m.PeerWireBytes-h.base.PeerWireBytes) / (1 << 20)
	return nil
}

// CoherencePartialUpdate runs the partial-update loop: each iteration the
// host rewrites one chunk-sized slice of the buffer through node A, then
// node B consumes the whole buffer. Only the chunk is stale on B, so
// delta migration pushes chunk bytes where full migration pushes the
// whole buffer — every iteration, forever. The consumer read checks the
// full contents against the expected mirror each time.
func CoherencePartialUpdate(size, chunk int64, iters int, mode core.MigrationMode) (PipelineRow, error) {
	row := PipelineRow{Workload: "partial-update", Transport: "tcp", Mode: coherenceModeName(mode)}
	h, err := newCoherenceHarness(size, mode)
	if err != nil {
		return row, err
	}
	defer h.cleanup()

	sw := startStopwatch()
	for i := 0; i < iters; i++ {
		off := (int64(i) * chunk) % (size - chunk + 1)
		data := make([]byte, chunk)
		for j := range data {
			data[j] = byte((i + j*3) % 253)
		}
		if _, err := h.qA.EnqueueWrite(h.buf, off, data); err != nil {
			return row, err
		}
		copy(h.expected[off:], data)
		got, _, err := h.qB.EnqueueRead(h.buf, 0, size)
		if err != nil {
			return row, err
		}
		if !bytes.Equal(got, h.expected) {
			return row, fmt.Errorf("coherence: iteration %d read diverged from mirror", i)
		}
	}
	wall := sw.elapsed()
	return row, h.finish(&row, wall)
}

// CoherenceFullyStale rewrites the whole buffer through node A each
// iteration before node B consumes it: the delta is the entire buffer, so
// the two migration modes must move identical bytes and produce
// bit-identical virtual makespans — the invariance CI's bench-smoke
// asserts.
func CoherenceFullyStale(size int64, iters int, mode core.MigrationMode) (PipelineRow, error) {
	row := PipelineRow{Workload: "fully-stale", Transport: "tcp", Mode: coherenceModeName(mode)}
	h, err := newCoherenceHarness(size, mode)
	if err != nil {
		return row, err
	}
	defer h.cleanup()

	sw := startStopwatch()
	for i := 0; i < iters; i++ {
		for j := range h.expected {
			h.expected[j] = byte((i + j) % 249)
		}
		if _, err := h.qA.EnqueueWrite(h.buf, 0, h.expected); err != nil {
			return row, err
		}
		got, _, err := h.qB.EnqueueRead(h.buf, 0, size)
		if err != nil {
			return row, err
		}
		if !bytes.Equal(got, h.expected) {
			return row, fmt.Errorf("coherence: iteration %d read diverged from mirror", i)
		}
	}
	wall := sw.elapsed()
	return row, h.finish(&row, wall)
}

// CoherenceReport measures both workloads in both migration modes and
// compares delta against the full-migration baseline.
func CoherenceReport(quick bool) (*Report, error) {
	size, chunk, partialIters, staleIters := coherenceSizes(quick)
	rep := &Report{Experiment: "coherence", Quick: quick}

	type workload struct {
		name   string
		sample func(mode core.MigrationMode) (PipelineRow, error)
	}
	workloads := []workload{
		{"partial-update", func(mode core.MigrationMode) (PipelineRow, error) {
			return CoherencePartialUpdate(size, chunk, partialIters, mode)
		}},
		{"fully-stale", func(mode core.MigrationMode) (PipelineRow, error) {
			return CoherenceFullyStale(size, staleIters, mode)
		}},
	}
	for _, wl := range workloads {
		full, err := wl.sample(core.MigrateFull)
		if err != nil {
			return nil, err
		}
		delta, err := wl.sample(core.MigrateHostRelay)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, full, delta)
		rep.Comparisons = append(rep.Comparisons, Comparison{
			Workload:     wl.name,
			Baseline:     full.Mode,
			Mode:         delta.Mode,
			Speedup:      delta.CmdsPerSec / full.CmdsPerSec,
			VirtualMatch: delta.VirtualSec == full.VirtualSec,
			BytesRatio:   delta.WireMB / full.WireMB,
		})
	}
	return rep, nil
}

// Coherence runs the full-vs-delta migration comparison and prints it.
func Coherence(w io.Writer, quick bool) error {
	size, chunk, partialIters, staleIters := coherenceSizes(quick)
	fmt.Fprintln(w, "=== Range-aware coherence: full-buffer vs delta migration ===")
	fmt.Fprintf(w, "(partial-update: %d iterations rewriting one %d KiB chunk of a %d KiB buffer on node A,\n",
		partialIters, chunk>>10, size>>10)
	fmt.Fprintf(w, " consumed in full on node B; fully-stale: %d full rewrites — the control where both\n", staleIters)
	fmt.Fprintln(w, " modes must move identical bytes and produce bit-identical virtual makespans)")
	rep, err := CoherenceReport(quick)
	if err != nil {
		return err
	}
	printReport(w, rep)
	return nil
}
