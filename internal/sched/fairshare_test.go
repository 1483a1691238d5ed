package sched

import (
	"testing"

	"github.com/haocl-project/haocl/internal/vtime"
)

// drain releases up to n items, acknowledging each immediately so inflight
// caps never bind, and returns the tenant grant order.
func drain(f *FairQueue, n int) []string {
	var got []string
	for len(got) < n {
		item, ok := f.Next()
		if !ok {
			break
		}
		got = append(got, item.Tenant)
		f.Done(item.Tenant)
	}
	return got
}

func TestFairQueueEqualWeightsInterleave(t *testing.T) {
	f := NewFairQueue(10)
	for i := 0; i < 4; i++ {
		f.Submit(FairItem{Tenant: "a", Cost: 10})
		f.Submit(FairItem{Tenant: "b", Cost: 10})
	}
	got := drain(f, 8)
	want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("drained %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant %d = %q, want %q (full order %v)", i, got[i], want[i], got)
		}
	}
}

func TestFairQueueWeightProportionality(t *testing.T) {
	f := NewFairQueue(10)
	f.SetWeight("heavy", 3)
	for i := 0; i < 30; i++ {
		f.Submit(FairItem{Tenant: "heavy", Cost: 10})
		f.Submit(FairItem{Tenant: "light", Cost: 10})
	}
	// Over the first 20 grants, weight 3:1 should hand heavy ~3x light's
	// share.
	got := drain(f, 20)
	counts := map[string]int{}
	for _, tenant := range got {
		counts[tenant]++
	}
	if counts["heavy"] != 15 || counts["light"] != 5 {
		t.Fatalf("got heavy=%d light=%d over 20 grants, want 15/5", counts["heavy"], counts["light"])
	}
}

func TestFairQueueAggressorCannotStarveLightTenant(t *testing.T) {
	f := NewFairQueue(10)
	// The aggressor floods 100 jobs before the light tenant's first.
	for i := 0; i < 100; i++ {
		f.Submit(FairItem{Tenant: "aggressor", Cost: 10})
	}
	f.Submit(FairItem{Tenant: "light", Cost: 10})
	got := drain(f, 3)
	saw := false
	for _, tenant := range got {
		if tenant == "light" {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("light tenant not granted within 3 grants of a 100-job backlog: %v", got)
	}
}

func TestFairQueueExpensiveHeadEventuallyServed(t *testing.T) {
	f := NewFairQueue(10)
	// One item costing 5 quanta: the deficit must accumulate across rounds
	// rather than skip the tenant forever.
	f.Submit(FairItem{Tenant: "big", Cost: 50})
	f.Submit(FairItem{Tenant: "small", Cost: 10})
	total := 0
	for {
		_, ok := f.Next()
		if !ok {
			break
		}
		total++
	}
	if total != 2 {
		t.Fatalf("released %d items, want 2 (expensive head starved?)", total)
	}
}

func TestFairQueueInflightCap(t *testing.T) {
	f := NewFairQueue(10)
	f.SetInflightCap(2)
	for i := 0; i < 4; i++ {
		f.Submit(FairItem{Tenant: "a", Cost: 10})
	}
	if _, ok := f.Next(); !ok {
		t.Fatal("first grant refused")
	}
	if _, ok := f.Next(); !ok {
		t.Fatal("second grant refused")
	}
	if _, ok := f.Next(); ok {
		t.Fatal("third grant allowed past inflight cap 2")
	}
	f.Done("a")
	if _, ok := f.Next(); !ok {
		t.Fatal("grant refused after Done freed a slot")
	}
}

func TestFairQueueDeterministicGrantOrder(t *testing.T) {
	run := func() []string {
		f := NewFairQueue(7)
		f.SetWeight("b", 2)
		costs := []vtime.Duration{5, 9, 3, 14, 7, 2, 11, 6}
		for i, c := range costs {
			tenant := []string{"a", "b", "c"}[i%3]
			f.Submit(FairItem{Tenant: tenant, Cost: c})
		}
		return drain(f, len(costs))
	}
	first := run()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("runs released %d vs %d items", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("grant %d differs across identical runs: %q vs %q", i, first[i], second[i])
		}
	}
}
