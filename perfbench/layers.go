package main

import (
	"fmt"
	"io"
	"time"
)

// tenantNames are the tenants whose virtual phases are reported per
// tenant; other workloads run in the default session and report zeros.
var tenantNames = []string{"light-0", "light-1", "aggressor"}

// perLayer runs w untraced for a third of the budget, then traced for the
// same number of operations on the same seed, then untraced again, and
// derives the per-layer metrics from the traced run. Bracketing the traced
// run keeps the tracing overhead free of whatever drift the machine shows
// over the run. A virtual timeline that differs between the three is a
// failure: the probes must not change behaviour.
func perLayer(log io.Writer, w workload, seed int64, budget time.Duration, out string) (result, error) {
	if err := warmUp(w, seed); err != nil {
		return result{}, err
	}
	before, err := run(w, seed, stopRule{wall: budget / 3}, nil)
	if err != nil {
		return result{}, err
	}
	pr := newProbe()
	traced, err := run(w, seed, stopRule{ops: before.ops}, pr)
	if err != nil {
		return result{}, err
	}
	after, err := run(w, seed, stopRule{ops: before.ops}, nil)
	if err != nil {
		return result{}, err
	}
	res := result{
		Attempted: before.attempted + traced.attempted + after.attempted,
		Failed:    before.failed + traced.failed + after.failed,
	}
	for _, r := range []*runResult{traced, after} {
		if r.virtual != before.virtual {
			res.Failed++
			traced.errors = append(traced.errors, fmt.Sprintf("virtual timeline %+v differs from the first untraced run's %+v", r.virtual, before.virtual))
		}
	}
	res.Correct = res.Failed == 0
	untraced := (before.use.wall + after.use.wall) / 2
	res.Metrics, err = layerMetrics(w, pr, traced, untraced, out)
	if err != nil {
		return result{}, err
	}
	report(log, w, traced, res.Metrics)
	return res, nil
}

// layerMetrics folds the probe's spans and counters into the per-layer
// figures.
func layerMetrics(w workload, pr *probe, traced *runResult, untraced time.Duration, out string) (map[string]metric, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	var spans int64
	for _, c := range pr.count {
		spans += c
	}
	mean := func(k spanKind) float64 {
		if pr.count[k] == 0 {
			return 0
		}
		return float64(pr.sum[k]) / 1e3 / float64(pr.count[k])
	}
	sum := func(k spanKind) float64 { return float64(pr.sum[k]) / 1e3 } // µs
	perOp := func(x float64) float64 { return x / float64(max(traced.ops, 1)) }
	u := traced.use
	wallUS := float64(u.wall.Microseconds())
	cmds := float64(max(traced.cmds, 1))
	t := u.traffic

	m := map[string]metric{
		"core.enqueue_write_us":         {mean(spanWrite), "us"},
		"core.enqueue_kernel_us":        {mean(spanKernel), "us"},
		"core.enqueue_copy_us":          {mean(spanCopy), "us"},
		"core.issue_share":              {(sum(spanWrite) + sum(spanKernel) + sum(spanCopy)) / wallUS, "ratio"},
		"core.wait_us":                  {perOp(sum(spanFinish) + sum(spanRead)), "us"},
		"core.wire_cmds_per_api_call":   {float64(t.requests) / cmds, "ratio"},
		"core.host_wire_mb":             {perOp(float64(u.hostWireBytes) / 1e6), "MB"},
		"core.peer_wire_mb":             {perOp(float64(u.peerWireBytes) / 1e6), "MB"},
		"node.inflight_max":             {float64(pr.inflightM.Load()), "count"},
		"node.register_us.p50":          {percentile(pr.register, 0.50), "us"},
		"node.register_us.p99":          {percentile(pr.register, 0.99), "us"},
		"node.complete_us.p50":          {percentile(pr.complete, 0.50), "us"},
		"node.complete_us.p99":          {percentile(pr.complete, 0.99), "us"},
		"transport.envelopes_per_cmd":   {float64(t.frames) / cmds, "ratio"},
		"transport.in_bytes_per_cmd":    {float64(t.in) / cmds, "B"},
		"transport.out_bytes_per_cmd":   {float64(t.out) / cmds, "B"},
		"transport.resp_writes_per_cmd": {float64(t.writes) / cmds, "ratio"},
		"transport.peer_mb":             {perOp(float64(pr.peerOut.Load()) / 1e6), "MB"},
		"kernel.exec_us":                {mean(spanExec), "us"},
		"kernel.busy_share":             {sum(spanExec) / wallUS, "ratio"},
		"sched.submit_ns":               {mean(spanSubmit) * 1e3, "ns"},
		"sched.next_ns":                 {mean(spanNext) * 1e3, "ns"},
		"sched.grants":                  {float64(pr.grants), "count"},
		"trace.overhead_ratio":          {u.wall.Seconds() / untraced.Seconds(), "ratio"},
	}
	frames := 0.0
	if t.envelopes > 0 {
		frames = float64(t.enveloped) / float64(t.envelopes)
	}
	m["transport.frames_per_envelope"] = metric{frames, "ratio"}
	items := 0.0
	if sum(spanExec) > 0 {
		items = float64(pr.execItems.Load()) / (sum(spanExec) / 1e6)
	}
	m["kernel.items_per_s"] = metric{items, "1/s"}

	var connect, build, stage []float64
	for _, s := range traced.setups {
		connect = append(connect, float64(s.connect.Microseconds())/1e3)
		build = append(build, float64(s.build.Microseconds())/1e3)
		stage = append(stage, float64(s.stage.Microseconds())/1e3)
	}
	m["core.setup.connect_ms"] = metric{median(connect), "ms"}
	m["core.setup.build_ms"] = metric{median(build), "ms"}
	m["core.setup.stage_ms"] = metric{median(stage), "ms"}

	cc, err := replayCodec(pr.captured)
	if err != nil {
		return nil, err
	}
	m["protocol.decode_ns_per_frame"] = metric{cc.decodeNS, "ns"}
	m["protocol.encode_ns_per_frame"] = metric{cc.encodeNS, "ns"}
	m["protocol.allocs_per_frame"] = metric{cc.allocsPerFrame, "count"}

	var vspans int
	v := virtualPhases{}
	if traced.tracer != nil {
		vs := traced.tracer.Spans()
		vspans = len(vs)
		v = foldVirtual(vs)
	}
	m["virtual.wire_ms.p50"] = metric{percentile(v.wire, 0.50), "ms"}
	m["virtual.wire_ms.p99"] = metric{percentile(v.wire, 0.99), "ms"}
	for _, tn := range tenantNames {
		m["virtual.admission_ms.p50."+tn] = metric{percentile(v.admission[tn], 0.50), "ms"}
		m["virtual.admission_ms.p99."+tn] = metric{percentile(v.admission[tn], 0.99), "ms"}
		m["virtual.queue_wait_ms.p50."+tn] = metric{percentile(v.queueWait[tn], 0.50), "ms"}
		m["virtual.queue_wait_ms.p99."+tn] = metric{percentile(v.queueWait[tn], 0.99), "ms"}
		m["virtual.exec_ms.p50."+tn] = metric{percentile(v.exec[tn], 0.50), "ms"}
	}

	exportDur, err := pr.export(out, w.name, traced.tracer)
	if err != nil {
		return nil, err
	}
	m["trace.spans"] = metric{float64(spans + int64(vspans)), "count"}
	m["trace.export_ms"] = metric{float64(exportDur.Microseconds()) / 1e3, "ms"}
	return m, nil
}
