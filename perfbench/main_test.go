package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// spec is the part of BENCHMARK.json the self-tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkNames fails unless got holds exactly the listed metrics, each with
// its listed unit.
func checkNames(t *testing.T, what string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !listed[name] {
			t.Errorf("%s: metric %s is not listed in BENCHMARK.json", what, name)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly in both
// modes and checks the result carries exactly the metrics BENCHMARK.json
// lists, and that nothing failed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, ok := workloads[sw.Name]
		if !ok {
			t.Fatalf("workload %s in BENCHMARK.json is not implemented", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := endToEnd(io.Discard, w, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("end-to-end: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkNames(t, "end-to-end", res.Metrics, s.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			res, err = perLayer(io.Discard, w, 3, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("per-layer: correct=%v failed=%d", res.Correct, res.Failed)
			}
			checkNames(t, "per-layer", res.Metrics, s.PerLayer)
		})
	}
}

// corrupting wraps a runner and damages its expected outputs once staging
// is done.
type corrupting struct {
	runner
	damage func(r runner)
}

func (c corrupting) stage() error {
	if err := c.runner.stage(); err != nil {
		return err
	}
	c.damage(c.runner)
	return nil
}

// TestCorruptedExpectationIsAFailure damages each workload's host-side
// reference after staging and checks the harness counts the mismatches as
// failed operations instead of passing them.
func TestCorruptedExpectationIsAFailure(t *testing.T) {
	cases := map[string]func(r runner){
		"tile-stream": func(r runner) {
			for _, f := range r.(*tileStream).pool.f {
				f[0]++ // the host reference only; devices got the original bytes
			}
		},
		"tenants": func(r runner) {
			for _, l := range r.(*tenants).lanes {
				for _, want := range l.want {
					want[0] ^= 0xff
				}
			}
		},
		"migrate": func(r runner) {
			r.(*migrate).mirror[0] ^= 0xff
		},
	}
	names := make([]string, 0, len(cases))
	for n := range cases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		damage := cases[name]
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			inner := w.new
			w.new = func(seed int64, pr *probe) runner {
				return corrupting{runner: inner(seed, pr), damage: damage}
			}
			r, err := run(w, 5, stopRule{ops: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed == 0 {
				t.Fatalf("%d operations attempted against a corrupted reference, none counted as failed", r.attempted)
			}
		})
	}
}

// TestTracedRunKeepsVirtualTimeline checks that attaching every probe
// changes nothing the program computes: the traced epoch reproduces the
// untraced virtual timeline exactly.
func TestTracedRunKeepsVirtualTimeline(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			plain, err := run(w, 7, stopRule{ops: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := run(w, 7, stopRule{ops: 1}, newProbe())
			if err != nil {
				t.Fatal(err)
			}
			if plain.virtual != traced.virtual || plain.virtual.makespan == 0 {
				t.Fatalf("traced virtual timeline %+v, untraced %+v", traced.virtual, plain.virtual)
			}
			if plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("failures: untraced %d %v, traced %d %v", plain.failed, plain.errors, traced.failed, traced.errors)
			}
		})
	}
}

// TestInteractionTable checks interactions.json against BENCHMARK.json:
// every per-layer metric has a row, and every name a row cites exists.
func TestInteractionTable(t *testing.T) {
	s := loadSpec(t)
	b, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	type effect struct {
		Workload string   `json:"workload"`
		Metrics  []string `json:"metrics"`
	}
	var doc struct {
		Rows []struct {
			LayerMetrics []string `json:"layer_metrics"`
			Moves        []effect `json:"moves"`
			Unchanged    []effect `json:"unchanged"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	perLayer, endToEnd := map[string]bool{}, map[string]bool{}
	for _, m := range s.PerLayer {
		perLayer[m.Name] = true
	}
	for _, m := range s.EndToEnd {
		endToEnd[m.Name] = true
	}
	covered := map[string]bool{}
	for _, r := range doc.Rows {
		for _, m := range r.LayerMetrics {
			if !perLayer[m] {
				t.Errorf("row cites per-layer metric %s, not in BENCHMARK.json", m)
			}
			covered[m] = true
		}
		for _, e := range append(append([]effect(nil), r.Moves...), r.Unchanged...) {
			if _, ok := workloads[e.Workload]; !ok {
				t.Errorf("row cites unknown workload %s", e.Workload)
			}
			for _, m := range e.Metrics {
				if !endToEnd[m] {
					t.Errorf("row cites end-to-end metric %s, not in BENCHMARK.json", m)
				}
			}
		}
	}
	for m := range perLayer {
		if !covered[m] {
			t.Errorf("per-layer metric %s has no row in interactions.json", m)
		}
	}
}
