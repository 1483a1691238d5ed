package bench

import (
	"strings"
	"sync"
	"testing"
)

// The MatrixMul sync/pipelined legs and the printed experiment are
// measured once and shared by the tests that assert on them.
var (
	matmulOnce              sync.Once
	matmulSync, matmulPiped PipelineRow
	matmulErr               error

	printedOnce sync.Once
	printedOut  string
	printedErr  error
)

// matmulLegs runs the MatrixMul tile stream over loopback TCP in both
// modes. Loopback TCP is the deployment shape: socket buffering lets the
// pipeline stream while the blocking baseline pays each round trip. Each
// leg is the best of three samples, as in PipelineReport: a leg lasts
// about ten milliseconds, so one scheduler hiccup can swamp a sample.
func matmulLegs(t *testing.T) (syncRow, pipeRow PipelineRow) {
	t.Helper()
	matmulOnce.Do(func() {
		const gpus, launches, reps = 2, 150, 3
		leg := func(mode StreamMode) (PipelineRow, error) {
			return bestOf(reps, func() (PipelineRow, error) {
				return PipelineMatmul(gpus, launches, mode, true)
			})
		}
		if matmulSync, matmulErr = leg(ModeSync); matmulErr != nil {
			return
		}
		matmulPiped, matmulErr = leg(ModePipelined)
	})
	if matmulErr != nil {
		t.Fatal(matmulErr)
	}
	t.Logf("sync: %v", matmulSync)
	t.Logf("pipelined: %v", matmulPiped)
	return matmulSync, matmulPiped
}

// printedPipeline returns the printed pipeline experiment (quick sizes).
func printedPipeline(t *testing.T) string {
	t.Helper()
	printedOnce.Do(func() {
		var sb strings.Builder
		printedErr = Pipeline(&sb, true)
		printedOut = sb.String()
	})
	if printedErr != nil {
		t.Fatal(printedErr)
	}
	return printedOut
}

// TestPipelineBeatsSyncMatmul is the acceptance gate for the async
// command path: on the MatrixMul tile stream, issuing without per-command
// round trips must push more commands per second than the synchronous
// baseline.
func TestPipelineBeatsSyncMatmul(t *testing.T) {
	syncRow, pipeRow := matmulLegs(t)
	if pipeRow.CmdsPerSec <= syncRow.CmdsPerSec {
		t.Fatalf("pipelined rate %.0f cmds/s does not beat sync %.0f cmds/s",
			pipeRow.CmdsPerSec, syncRow.CmdsPerSec)
	}
	if syncRow.VirtualSec <= 0 || pipeRow.VirtualSec <= 0 {
		t.Fatalf("virtual makespan missing: sync=%v pipelined=%v",
			syncRow.VirtualSec, pipeRow.VirtualSec)
	}
}

// TestBatchedBeatsSyncMatmul is the acceptance gate for wire-frame
// coalescing: the pipelined leg packs its bursts into Batch envelopes, and
// it must still beat the synchronous baseline while virtual time stays
// identical (coalescing changes syscalls, never the modeled hardware).
func TestBatchedBeatsSyncMatmul(t *testing.T) {
	syncRow, pipeRow := matmulLegs(t)
	if pipeRow.CmdsPerSec <= syncRow.CmdsPerSec {
		t.Fatalf("batched rate %.0f cmds/s does not beat sync %.0f cmds/s",
			pipeRow.CmdsPerSec, syncRow.CmdsPerSec)
	}
	if pipeRow.VirtualSec != syncRow.VirtualSec {
		t.Fatalf("virtual makespans diverged: sync=%v batched=%v",
			syncRow.VirtualSec, pipeRow.VirtualSec)
	}
}

// TestPipelineBFSChain checks the dependency-chain workload runs in both
// modes and reports sane numbers (the chain is fully serialized in virtual
// time, so only the wall-clock rate may differ).
func TestPipelineBFSChain(t *testing.T) {
	for _, mode := range []StreamMode{ModeSync, ModePipelined} {
		row, err := PipelineBFS(60, mode, false)
		if err != nil {
			t.Fatal(err)
		}
		if row.Commands != 61 || row.CmdsPerSec <= 0 {
			t.Fatalf("row = %v", row)
		}
	}
}

// TestPipelineReportPrints smoke-tests the printed experiment.
func TestPipelineReportPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in short mode")
	}
	out := printedPipeline(t)
	for _, want := range []string{"MatrixMul", "BFS", "pipelined", "sync"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestBatchReportPrints checks the printed experiment reports its
// pipelined leg as the coalesced one, with virtual time unchanged on both
// workloads.
func TestBatchReportPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in short mode")
	}
	out := printedPipeline(t)
	if !strings.Contains(out, "Batch envelopes") {
		t.Fatalf("report does not say the pipelined leg coalesces:\n%s", out)
	}
	if n := strings.Count(out, "virtual makespan unchanged"); n != 2 {
		t.Fatalf("%d of 2 comparisons report an unchanged virtual makespan:\n%s", n, out)
	}
}

// TestPipelineReportShape checks the machine-readable report carries every
// (workload, mode) cell and the comparisons the JSON baseline relies on,
// with virtual time identical between sync and pipelined enqueue.
func TestPipelineReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in short mode")
	}
	rep, err := PipelineReport(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "pipeline" {
		t.Fatalf("experiment = %q", rep.Experiment)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 2 workloads x 2 modes", len(rep.Rows))
	}
	if len(rep.Comparisons) != 2 {
		t.Fatalf("comparisons = %d, want 1 per workload", len(rep.Comparisons))
	}
	for _, c := range rep.Comparisons {
		if !c.VirtualMatch {
			t.Fatalf("virtual time diverged in %s/%s", c.Workload, c.Mode)
		}
		if c.Speedup <= 0 {
			t.Fatalf("speedup %v in %s/%s", c.Speedup, c.Workload, c.Mode)
		}
	}
}
