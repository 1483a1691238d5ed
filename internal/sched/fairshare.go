package sched

import (
	"sync"

	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/vtime"
)

// This file implements the fair-share admission layer between tenant
// sessions and the cluster's service queues: a weighted deficit-round-robin
// (DRR) queue operating in virtual time. Each tenant owns a FIFO backlog;
// the dispatcher visits backlogged tenants in a fixed round-robin order,
// topping each tenant's deficit up by weight×quantum per visit and
// releasing jobs while the deficit covers their virtual cost. A tenant
// submitting 10x more work than its neighbors accumulates backlog instead
// of monopolizing the devices, so a light tenant's p99 latency stays within
// a bounded factor of its solo run (DESIGN.md §8).
//
// Determinism: the queue has no clocks and no randomness — the grant
// sequence is a pure function of the submission sequence, the weights and
// the quantum. The serve benchmark replays seeded arrivals through a
// single-threaded event loop and asserts bit-identical virtual latencies
// across runs.

// FairItem is one unit of admitted work.
type FairItem struct {
	// Tenant names the submitting session's tenant.
	Tenant string
	// Cost is the item's virtual service demand — the deficit currency.
	// Items of unknown cost may use 1; relative magnitudes are what shape
	// the shares.
	Cost vtime.Duration
	// Arrival optionally records the item's virtual submission instant, so
	// a traced dispatcher (NextAt) can span the admission wait. Zero when
	// the caller does not track virtual time.
	Arrival vtime.Time
	// Payload travels with the item untouched.
	Payload any
}

// tenantState is one tenant's backlog and DRR accounting.
type tenantState struct {
	items    []FairItem
	deficit  vtime.Duration
	inflight int
}

// FairQueue is a weighted-fair admission queue: Submit from any tenant,
// Next releases items in deficit-round-robin order. An optional per-tenant
// inflight cap bounds how many released-but-unfinished items one tenant may
// hold (Done returns them). The zero value is not usable; NewFairQueue
// sets the quantum.
type FairQueue struct {
	mu      sync.Mutex
	quantum vtime.Duration
	capPer  int // per-tenant inflight cap; 0 = unlimited

	weights map[string]int64
	order   []string // round-robin visit order: first-submission order
	tenants map[string]*tenantState
	pos     int // next visit position in order
	backlog int

	// trc records one admission span per NextAt grant when attached; the
	// grant order itself is tracing-blind. Guarded by mu.
	trc *trace.Run
}

// NewFairQueue returns an empty fair queue whose DRR quantum is the given
// virtual duration. A reasonable quantum is the typical item cost: much
// smaller quanta cost extra visit rounds, much larger quanta approximate
// per-visit FIFO bursts.
func NewFairQueue(quantum vtime.Duration) *FairQueue {
	if quantum <= 0 {
		quantum = 1
	}
	return &FairQueue{
		quantum: quantum,
		weights: make(map[string]int64),
		tenants: make(map[string]*tenantState),
	}
}

// SetWeight assigns a tenant's share weight (default 1). Weights scale the
// deficit top-up per round: weight 2 drains twice the virtual cost per
// round of weight 1.
func (f *FairQueue) SetWeight(tenant string, w int64) {
	if w <= 0 {
		w = 1
	}
	f.mu.Lock()
	f.weights[tenant] = w
	f.mu.Unlock()
}

// SetInflightCap bounds how many released-but-not-Done items each tenant
// may hold at once; 0 removes the bound. The cap backpressures tenants that
// hold service-queue slots for long, independent of their share weight.
func (f *FairQueue) SetInflightCap(n int) {
	f.mu.Lock()
	f.capPer = n
	f.mu.Unlock()
}

// Submit appends one item to its tenant's backlog.
func (f *FairQueue) Submit(item FairItem) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ts, ok := f.tenants[item.Tenant]
	if !ok {
		ts = &tenantState{}
		f.tenants[item.Tenant] = ts
		f.order = append(f.order, item.Tenant)
	}
	ts.items = append(ts.items, item)
	f.backlog++
}

// Len reports the number of submitted-but-unreleased items.
func (f *FairQueue) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.backlog
}

// Next releases the next item in weighted DRR order. It returns false when
// nothing is releasable — the backlog is empty, or every backlogged tenant
// is at its inflight cap (call Done and try again).
func (f *FairQueue) Next() (FairItem, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.backlog == 0 || len(f.order) == 0 {
		return FairItem{}, false
	}
	// Round until something is released or a full round makes no progress.
	// Every round tops at least one backlogged uncapped tenant's deficit up
	// by a quantum, so a head costing k quanta is covered within k rounds;
	// a zero-progress round means every backlogged tenant is at its cap.
	for {
		progressed := false
		for i := 0; i < len(f.order); i++ {
			tenant := f.order[f.pos%len(f.order)]
			ts := f.tenants[tenant]
			if len(ts.items) == 0 || (f.capPer > 0 && ts.inflight >= f.capPer) {
				f.pos++
				continue
			}
			head := ts.items[0]
			if ts.deficit < head.Cost {
				// Arrival at this tenant's queue: one top-up per visit.
				// The deficit persists across visits, so an expensive head
				// is eventually covered — tenants are never starved by
				// their own job sizes.
				ts.deficit += f.quantum * vtime.Duration(f.weightOf(tenant))
				progressed = true
				if ts.deficit < head.Cost {
					f.pos++
					continue
				}
			}
			ts.deficit -= head.Cost
			ts.items = ts.items[1:]
			if len(ts.items) == 0 {
				// Standard DRR: an emptied queue forfeits its leftover
				// deficit, so idling never banks future bandwidth.
				ts.deficit = 0
			}
			// End this tenant's service opportunity once its deficit cannot
			// cover the next head; the caller resumes mid-visit otherwise
			// (deficit ≥ head skips the top-up above on re-entry).
			if len(ts.items) == 0 || ts.deficit < ts.items[0].Cost {
				f.pos++
			}
			ts.inflight++
			f.backlog--
			return head, true
		}
		if !progressed {
			return FairItem{}, false
		}
	}
}

// SetTracer attaches a trace run that NextAt records admission spans into
// (nil detaches). Tracing never changes the grant order.
func (f *FairQueue) SetTracer(r *trace.Run) {
	f.mu.Lock()
	f.trc = r
	f.mu.Unlock()
}

// NextAt is Next for virtual-time dispatchers: now is the dispatcher's
// current virtual instant, and when a tracer is attached each grant
// records an admission span from the item's Arrival to now — the time the
// item spent waiting for its fair share. Identical grant order to Next.
func (f *FairQueue) NextAt(now vtime.Time) (FairItem, bool) {
	item, ok := f.Next()
	if !ok {
		return item, false
	}
	f.mu.Lock()
	trc := f.trc
	f.mu.Unlock()
	if trc != nil {
		start := item.Arrival
		if start > now {
			start = now
		}
		trc.Add(trace.Span{
			Kind:   trace.KindAdmission,
			Tenant: item.Tenant,
			Start:  start,
			End:    now,
		})
	}
	return item, true
}

// Done returns one of tenant's released items, freeing its inflight slot.
func (f *FairQueue) Done(tenant string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ts, ok := f.tenants[tenant]; ok && ts.inflight > 0 {
		ts.inflight--
	}
}

// weightOf reads a tenant's weight with the default applied.
// Caller holds f.mu.
func (f *FairQueue) weightOf(tenant string) int64 {
	if w, ok := f.weights[tenant]; ok {
		return w
	}
	return 1
}
