// Command haocl-bench regenerates the tables and figures of the paper's
// evaluation section (§IV) on simulated clusters.
//
// Usage:
//
//	haocl-bench                 # everything
//	haocl-bench -exp table1     # Table I benchmark inventory
//	haocl-bench -exp fig2       # end-to-end speedups, all five benchmarks
//	haocl-bench -exp hetero     # §IV-C heterogeneity evaluation
//	haocl-bench -exp fig3       # §IV-D MatrixMul breakdown analysis
//	haocl-bench -exp overhead   # §IV-B single-node overhead
//	haocl-bench -exp ablation   # design-choice ablations (DESIGN.md)
//	haocl-bench -exp pipeline   # async pipelining: sync vs pipelined enqueue
//	haocl-bench -exp lanes      # per-queue dispatch lanes: 1-lane vs per-queue node
//	haocl-bench -exp coherence  # range coherence: full-buffer vs delta migration
//	haocl-bench -exp p2p        # p2p data plane: host-relay vs direct node→node migration
//	haocl-bench -exp chaos      # fault tolerance: crash, re-placement and rejoin overhead
//	haocl-bench -exp serve      # multi-tenant serving: fair-share vs FIFO admission
//	haocl-bench -exp serve-trace  # trace-sized serve run (the committed BENCH_trace.json)
//	haocl-bench -exp fig2 -quick  # reduced sweeps
//	haocl-bench -exp pipeline -json  # machine-readable result (see below for the list)
//	haocl-bench -exp serve-trace -trace out.json  # export spans as Perfetto JSON
//
// All reported durations are virtual time from the calibrated device and
// network models; see DESIGN.md §1 for the methodology. The -json output
// of the pipeline, lanes, coherence, p2p, chaos and serve
// experiments is the format committed as the BENCH_*.json perf baselines
// at the repository root and uploaded as a CI artifact by the bench-smoke
// job.
//
// -trace records every command's deterministic virtual-time span tree
// while the experiment runs and writes Chrome trace-event JSON on exit —
// load it in Perfetto (ui.perfetto.dev) or chrome://tracing. The same
// seeded experiment exports a byte-identical trace on every run; CI
// asserts this, and the committed BENCH_trace.json is the serve-trace
// export (DESIGN.md §10).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "haocl-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("haocl-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: table1, fig2, hetero, fig3, overhead, ablation, pipeline, lanes, coherence, p2p, chaos, serve, serve-trace, all")
		quick    = fs.Bool("quick", false, "reduced sweeps for a fast look")
		jsonOut  = fs.Bool("json", false, "emit the result as JSON (pipeline, lanes, coherence, p2p, chaos and serve)")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *traceOut != "" {
		tracer := haocl.NewTracer()
		bench.SetTracer(tracer)
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "haocl-bench: trace:", err)
				return
			}
			defer f.Close()
			if err := tracer.WriteChrome(f); err != nil {
				fmt.Fprintln(os.Stderr, "haocl-bench: trace:", err)
			}
		}()
	}

	if *jsonOut {
		var (
			rep *bench.Report
			err error
		)
		switch *exp {
		case "pipeline":
			rep, err = bench.PipelineReport(*quick)
		case "lanes":
			rep, err = bench.LanesReport(*quick)
		case "coherence":
			rep, err = bench.CoherenceReport(*quick)
		case "p2p":
			rep, err = bench.P2PReport(*quick)
		case "chaos":
			rep, err = bench.ChaosReport(*quick)
		case "serve":
			rep, err = bench.ServeReport(*quick, 1)
		case "serve-trace":
			rep, err = bench.ServeTraceReport(1)
		default:
			return fmt.Errorf("-json supports -exp pipeline, lanes, coherence, p2p, chaos, serve and serve-trace, not %q", *exp)
		}
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	opts := bench.DefaultFig2Options()
	mixes := [][2]int{{2, 1}, {4, 2}, {8, 4}, {16, 4}}
	if *quick {
		opts = bench.Fig2Options{
			GPUCounts:    []int{1, 4, 16},
			FPGACounts:   []int{1, 4},
			HeteroMixes:  [][2]int{{4, 2}},
			SnuCLDCounts: []int{1, 16},
		}
		mixes = [][2]int{{2, 1}, {8, 4}}
	}

	w := os.Stdout
	runOne := func(name string) error {
		switch name {
		case "table1":
			return bench.Table1(w)
		case "fig2":
			return bench.Fig2(w, opts)
		case "hetero":
			return bench.Hetero(w, mixes)
		case "fig3":
			return bench.Fig3(w)
		case "overhead":
			return bench.Overhead(w)
		case "ablation":
			return bench.Ablations(w)
		case "pipeline":
			return bench.Pipeline(w, *quick)
		case "lanes":
			return bench.Lanes(w, *quick)
		case "coherence":
			return bench.Coherence(w, *quick)
		case "p2p":
			return bench.P2P(w, *quick)
		case "chaos":
			return bench.Chaos(w, *quick)
		case "serve":
			return bench.Serve(w, *quick)
		case "serve-trace":
			return bench.ServeTrace(w)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if *exp != "all" {
		return runOne(*exp)
	}
	for _, name := range []string{"table1", "overhead", "fig2", "hetero", "fig3", "ablation", "pipeline", "lanes", "coherence", "p2p", "chaos", "serve"} {
		if err := runOne(name); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
