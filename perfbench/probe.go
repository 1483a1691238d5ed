package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
)

// This file is the traced run's instrumentation. Every measurement is taken
// from outside the program, at the public boundary of one layer: spans
// around the benchmark's own calls into the haocl API (core), a wrapper
// around the node's per-connection session (node), a wrapper around the
// ICD's GPU driver (kernel), a tee on the node-side sockets and the peer
// dialer (transport), a replay of the captured request frames through the
// codec (protocol), timed FairQueue calls (sched) and the program's own
// virtual-time tracer (virtual). None of it is attached while end-to-end
// metrics are measured.

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanOp       spanKind = iota // one workload operation (the parent of core spans)
	spanWrite                    // Queue.EnqueueWrite
	spanKernel                   // Queue.EnqueueKernel
	spanCopy                     // Queue.EnqueueCopy
	spanRead                     // Queue.EnqueueRead (blocking)
	spanFinish                   // Queue.Finish
	spanSubmit                   // FairQueue.Submit
	spanNext                     // FairQueue.NextAt
	spanRegister                 // node session HandleCallAsync
	spanComplete                 // node session HandleCallAsync → done
	spanExec                     // device Execute
	spanConnect                  // setup: nodes up and platform connected
	spanBuild                    // setup: programs built
	spanStage                    // setup: buffers created and staged
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "core.EnqueueWrite", "core.EnqueueKernel", "core.EnqueueCopy",
	"core.EnqueueRead", "core.Finish", "sched.Submit", "sched.NextAt",
	"node.register", "node.complete", "kernel.Execute",
	"setup.connect", "setup.build", "setup.stage",
}

// span is one recorded wall-clock interval, in nanoseconds since the
// probe's origin. op links host-side spans to the operation that caused
// them (-1 for node-side and setup spans, which run on other goroutines).
type span struct {
	kind       spanKind
	op         int32
	start, end int64
}

// Retention limits. Every span feeds the aggregates; only the first
// maxKeptSpans are held for export, and the protocol replay captures
// enough frames to time the codec on the run's real traffic without
// holding a whole run's payload.
const (
	maxKeptSpans     = 50000
	maxCaptureFrames = 20000
	maxCaptureBytes  = 32 << 20
)

// probe collects the traced run's spans and counters. A nil *probe is the
// untraced state: every method is a no-op on nil, so the workload code
// calls them unconditionally and the untraced run takes no clock reads.
type probe struct {
	origin time.Time
	curOp  int32 // index of the operation in progress; host goroutine only
	grants int   // FairQueue grants; host goroutine only

	mu       sync.Mutex
	count    [numSpanKinds]int64 // guarded by mu
	sum      [numSpanKinds]int64 // guarded by mu; ns
	register []float64           // guarded by mu; µs per registration
	complete []float64           // guarded by mu; µs per completion
	kept     []span              // guarded by mu; the first maxKeptSpans
	conns    []*teeConn          // guarded by mu
	captured [][]byte            // guarded by mu
	capBytes int                 // guarded by mu

	active              atomic.Bool // inside the measured window
	peerOut             atomic.Int64
	inflight, inflightM atomic.Int64
	execItems           atomic.Int64
}

func newProbe() *probe { return &probe{origin: time.Now(), curOp: -1} }

// now returns nanoseconds since the probe's origin (0 when untraced).
func (p *probe) now() int64 {
	if p == nil {
		return 0
	}
	return int64(time.Since(p.origin))
}

// end records a host-side span of kind begun at t0.
func (p *probe) end(kind spanKind, t0 int64) {
	if p == nil {
		return
	}
	p.add(span{kind: kind, op: p.curOp, start: t0, end: p.now()})
}

// record adds a span from any goroutine, if it falls in the measured
// window.
func (p *probe) record(kind spanKind, t0, t1 int64) {
	if p.active.Load() {
		p.add(span{kind: kind, op: -1, start: t0, end: t1})
	}
}

func (p *probe) add(s span) {
	d := s.end - s.start
	p.mu.Lock()
	p.count[s.kind]++
	p.sum[s.kind] += d
	switch s.kind {
	case spanRegister:
		p.register = append(p.register, float64(d)/1e3)
	case spanComplete:
		p.complete = append(p.complete, float64(d)/1e3)
	}
	if len(p.kept) < maxKeptSpans {
		p.kept = append(p.kept, s)
	}
	p.mu.Unlock()
}

// setOp marks the operation subsequent host-side spans belong to.
func (p *probe) setOp(i int) {
	if p != nil {
		p.curOp = int32(i)
	}
}

// grant counts one FairQueue grant.
func (p *probe) grant() {
	if p != nil {
		p.grants++
	}
}

// ---- node layer ----

// probedSession wraps one node connection's session. The time spent in
// HandleCallAsync is the registration stage (decode, dependency
// resolution, lane routing); the time until done fires is completion.
// Peer connections (node→node pushes) pass through unmeasured, so the node
// figures describe host commands only.
type probedSession struct {
	inner transport.AsyncHandler
	pr    *probe
	peer  bool // set on the dispatch goroutine, the only caller
}

func (s *probedSession) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	return s.inner.HandleCall(op, body)
}

func (s *probedSession) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	if op == protocol.OpHello && isPeerHello(body) {
		s.peer = true
	}
	if s.peer {
		s.inner.HandleCallAsync(op, body, done)
		return
	}
	pr := s.pr
	t0 := pr.now()
	n := pr.inflight.Add(1)
	for m := pr.inflightM.Load(); pr.active.Load() && n > m && !pr.inflightM.CompareAndSwap(m, n); m = pr.inflightM.Load() {
	}
	s.inner.HandleCallAsync(op, body, func(m protocol.Message, err error) {
		pr.record(spanComplete, t0, pr.now())
		pr.inflight.Add(-1)
		done(m, err)
	})
	pr.record(spanRegister, t0, pr.now())
}

// Close releases the wrapped session when its connection ends.
func (s *probedSession) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// isPeerHello reports whether a Hello comes from a sibling node rather
// than the host.
func isPeerHello(body []byte) bool {
	var req protocol.HelloReq
	return protocol.DecodeMessage(&req, body) == nil && strings.HasPrefix(req.ClientName, "peer:")
}

// ---- kernel layer ----

// probedDevice times functional kernel execution on one device.
type probedDevice struct {
	device.Device
	pr *probe
}

func (d *probedDevice) Execute(name string, l kernel.Launch) error {
	t0 := d.pr.now()
	err := d.Device.Execute(name, l)
	d.pr.record(spanExec, t0, d.pr.now())
	items := int64(1)
	for _, g := range l.Global {
		items *= int64(g)
	}
	if d.pr.active.Load() {
		d.pr.execItems.Add(items)
	}
	return err
}

// ---- transport layer ----

// frameHeaderSize is the wire frame header: magic, version, kind, request
// ID, op, body length (see internal/protocol/wire.go).
const frameHeaderSize = 2 + 1 + 1 + 8 + 2 + 4

// connCounts is one node-side connection's traffic.
type connCounts struct {
	in, out, writes     int64 // bytes read, bytes written, Write calls
	frames, envelopes   int64 // top-level inbound frames, of which Batch envelopes
	requests, enveloped int64 // request messages (sub-frames counted), of which inside envelopes
}

func (a *connCounts) add(b connCounts) {
	a.in += b.in
	a.out += b.out
	a.writes += b.writes
	a.frames += b.frames
	a.envelopes += b.envelopes
	a.requests += b.requests
	a.enveloped += b.enveloped
}

func (a connCounts) sub(b connCounts) connCounts {
	return connCounts{a.in - b.in, a.out - b.out, a.writes - b.writes, a.frames - b.frames,
		a.envelopes - b.envelopes, a.requests - b.requests, a.enveloped - b.enveloped}
}

// teeConn is a node-side connection that counts what crosses it and
// parses the inbound byte stream into frames. Reads happen on the
// connection's single reader goroutine, so the parser state needs no lock;
// the counters are read concurrently and so are guarded.
type teeConn struct {
	net.Conn
	pr *probe

	mu   sync.Mutex
	cnt  connCounts // guarded by mu
	peer bool       // guarded by mu; a sibling node's push connection

	// Frame parser state (reader goroutine only).
	hdr    [frameHeaderSize]byte
	nh     int
	remain int
	seen   int    // frames completed so far
	head   []byte // first bytes of the current body (batch count, Hello)
	cur    []byte // capture of the current frame, nil when not captured
}

func (p *probe) nodeConn(c net.Conn) net.Conn {
	t := &teeConn{Conn: c, pr: p}
	p.mu.Lock()
	p.conns = append(p.conns, t)
	p.mu.Unlock()
	return t
}

func (c *teeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.feed(b[:n])
	}
	return n, err
}

func (c *teeConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.mu.Lock()
	c.cnt.out += int64(n)
	c.cnt.writes++
	c.mu.Unlock()
	return n, err
}

// feed advances the frame parser over inbound bytes.
func (c *teeConn) feed(b []byte) {
	c.mu.Lock()
	c.cnt.in += int64(len(b))
	c.mu.Unlock()
	for len(b) > 0 {
		if c.nh < frameHeaderSize {
			k := copy(c.hdr[c.nh:], b)
			c.nh += k
			b = b[k:]
			if c.nh < frameHeaderSize {
				return
			}
			c.remain = int(binary.BigEndian.Uint32(c.hdr[14:18]))
			c.head = c.head[:0]
			c.cur = nil
			if c.pr.captureRoom(frameHeaderSize + c.remain) {
				c.cur = append(make([]byte, 0, frameHeaderSize+c.remain), c.hdr[:]...)
			}
		}
		k := c.remain
		if k > len(b) {
			k = len(b)
		}
		if want := c.headLen() - len(c.head); want > 0 {
			w := want
			if w > k {
				w = k
			}
			c.head = append(c.head, b[:w]...)
		}
		if c.cur != nil {
			c.cur = append(c.cur, b[:k]...)
		}
		c.remain -= k
		b = b[k:]
		if c.remain == 0 {
			c.endFrame()
		}
	}
}

// headLen is how much of the current body the parser keeps: a Batch
// envelope's sub-frame count, or the whole (small) Hello.
func (c *teeConn) headLen() int {
	switch {
	case protocol.FrameKind(c.hdr[3]) == protocol.FrameBatch:
		return 4
	case c.seen == 0 && protocol.Op(binary.BigEndian.Uint16(c.hdr[12:14])) == protocol.OpHello:
		return 4096
	}
	return 0
}

func (c *teeConn) endFrame() {
	kind := protocol.FrameKind(c.hdr[3])
	c.mu.Lock()
	if c.seen == 0 && protocol.Op(binary.BigEndian.Uint16(c.hdr[12:14])) == protocol.OpHello && isPeerHello(c.head) {
		c.peer = true
	}
	c.cnt.frames++
	if kind == protocol.FrameBatch && len(c.head) == 4 {
		n := int64(binary.BigEndian.Uint32(c.head))
		c.cnt.envelopes++
		c.cnt.requests += n
		c.cnt.enveloped += n
	} else {
		c.cnt.requests++
	}
	peer := c.peer
	c.mu.Unlock()
	if c.cur != nil && !peer {
		c.pr.capture(c.cur)
	}
	c.cur = nil
	c.nh = 0
	c.seen++
}

// captureRoom reports whether the replay capture is on and can take a
// frame of n bytes.
func (p *probe) captureRoom(n int) bool {
	if !p.active.Load() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.captured) < maxCaptureFrames && p.capBytes+n <= maxCaptureBytes
}

func (p *probe) capture(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.captured) < maxCaptureFrames && p.capBytes+len(frame) <= maxCaptureBytes {
		p.captured = append(p.captured, frame)
		p.capBytes += len(frame)
	}
}

// hostTraffic sums the counters of every host↔node connection.
func (p *probe) hostTraffic() connCounts {
	p.mu.Lock()
	conns := append([]*teeConn(nil), p.conns...)
	p.mu.Unlock()
	var total connCounts
	for _, c := range conns {
		c.mu.Lock()
		if !c.peer {
			total.add(c.cnt)
		}
		c.mu.Unlock()
	}
	return total
}

// peerDialer is the nodes' sibling dialer with a byte counter on the
// dialing side, where PeerPush payloads are written.
type peerDialer struct{ pr *probe }

func (d peerDialer) Dial(addr string) (*transport.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial peer %s: %w", addr, err)
	}
	return transport.NewClient(&countingConn{Conn: conn, pr: d.pr}), nil
}

// countingConn counts the bytes written inside the measured window.
type countingConn struct {
	net.Conn
	pr *probe
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.pr.active.Load() {
		c.pr.peerOut.Add(int64(n))
	}
	return n, err
}

// ---- protocol layer ----

// requestMessage returns an empty request message for op, or nil for ops
// the replay does not decode.
func requestMessage(op protocol.Op) protocol.Message {
	switch op {
	case protocol.OpWriteBuffer:
		return new(protocol.WriteBufferReq)
	case protocol.OpReadBuffer:
		return new(protocol.ReadBufferReq)
	case protocol.OpCopyBuffer:
		return new(protocol.CopyBufferReq)
	case protocol.OpEnqueueKernel:
		return new(protocol.EnqueueKernelReq)
	case protocol.OpFinishQueue:
		return new(protocol.FinishQueueReq)
	case protocol.OpRelease:
		return new(protocol.ReleaseReq)
	case protocol.OpQueryEvent:
		return new(protocol.QueryEventReq)
	case protocol.OpCreateBuffer:
		return new(protocol.CreateBufferReq)
	case protocol.OpCreateKernel:
		return new(protocol.CreateKernelReq)
	case protocol.OpBuildProgram:
		return new(protocol.BuildProgramReq)
	case protocol.OpPushRange:
		return new(protocol.PushRangeReq)
	case protocol.OpAwaitPush:
		return new(protocol.AwaitPushReq)
	}
	return nil
}

// codecCost is the protocol layer's cost on the captured traffic.
type codecCost struct {
	frames         int // request messages replayed per pass
	decodeNS       float64
	encodeNS       float64
	allocsPerFrame float64
}

// replayCodec decodes every captured wire frame (framing, Batch
// envelopes, message bodies) and re-encodes the decoded messages, timing
// each direction over repeated passes.
func replayCodec(captured [][]byte) (codecCost, error) {
	var cc codecCost
	if len(captured) == 0 {
		return cc, nil
	}
	decodeAll := func() ([][]protocol.Message, error) {
		out := make([][]protocol.Message, 0, len(captured))
		for _, raw := range captured {
			f, err := protocol.ReadFrame(bytes.NewReader(raw))
			if err != nil {
				return nil, fmt.Errorf("replay: read frame: %w", err)
			}
			subs := []*protocol.Frame{f}
			if f.Kind == protocol.FrameBatch {
				if subs, err = protocol.DecodeBatch(f); err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
			}
			msgs := make([]protocol.Message, 0, len(subs))
			for _, sf := range subs {
				m := requestMessage(sf.Op)
				if m == nil {
					continue
				}
				if err := protocol.DecodeMessage(m, sf.Body); err != nil {
					return nil, fmt.Errorf("replay: decode %v: %w", sf.Op, err)
				}
				msgs = append(msgs, m)
			}
			out = append(out, msgs)
		}
		return out, nil
	}
	var buf []byte
	encodeAll := func(decoded [][]protocol.Message) error {
		for _, msgs := range decoded {
			subs := make([]*protocol.Frame, len(msgs))
			for i, m := range msgs {
				subs[i] = &protocol.Frame{Kind: protocol.FrameRequest, ReqID: uint64(i), Op: m.Op(), Body: protocol.EncodeMessage(m)}
			}
			f := subs[0]
			if len(subs) > 1 {
				var err error
				if f, err = protocol.EncodeBatch(subs); err != nil {
					return err
				}
			}
			var err error
			if buf, err = protocol.AppendFrame(buf[:0], f); err != nil {
				return err
			}
		}
		return nil
	}
	decoded, err := decodeAll()
	if err != nil {
		return cc, err
	}
	kept := decoded[:0]
	for _, msgs := range decoded {
		if len(msgs) > 0 {
			kept = append(kept, msgs)
			cc.frames += len(msgs)
		}
	}
	if cc.frames == 0 {
		return cc, nil
	}
	// Repeat each direction until it has run for at least budget, so the
	// per-frame figure does not hinge on one pass over a small capture.
	const budget = 50 * time.Millisecond
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	passes := 0
	t0 := time.Now()
	for passes == 0 || time.Since(t0) < budget {
		if _, err := decodeAll(); err != nil {
			return cc, err
		}
		passes++
	}
	decodeWall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	decodeAllocs := ms1.Mallocs - ms0.Mallocs
	ms0 = ms1
	encPasses := 0
	t0 = time.Now()
	for encPasses == 0 || time.Since(t0) < budget {
		if err := encodeAll(kept); err != nil {
			return cc, err
		}
		encPasses++
	}
	encodeWall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	encodeAllocs := ms1.Mallocs - ms0.Mallocs
	n := float64(cc.frames)
	cc.decodeNS = float64(decodeWall.Nanoseconds()) / (n * float64(passes))
	cc.encodeNS = float64(encodeWall.Nanoseconds()) / (n * float64(encPasses))
	cc.allocsPerFrame = float64(decodeAllocs)/(n*float64(passes)) + float64(encodeAllocs)/(n*float64(encPasses))
	return cc, nil
}

// ---- virtual layer ----

// virtualPhases folds the program tracer's spans into per-phase latency
// samples, in ms: host NIC wire time of every command, and per tenant the
// fair-share admission wait and the device queue wait and execution of its
// kernel launches.
type virtualPhases struct {
	wire      []float64
	admission map[string][]float64
	queueWait map[string][]float64
	exec      map[string][]float64
}

func foldVirtual(spans []haocl.Span) virtualPhases {
	v := virtualPhases{admission: map[string][]float64{}, queueWait: map[string][]float64{}, exec: map[string][]float64{}}
	type key struct {
		run     int
		node    string
		eventID uint64
	}
	root := map[key]trace.Kind{}
	for _, s := range spans {
		if s.Kind.IsRoot() {
			root[key{s.Run, s.Node, s.EventID}] = s.Kind
		}
	}
	for _, s := range spans {
		ms := float64(s.End-s.Start) / 1e6
		kernel := root[key{s.Run, s.Node, s.EventID}] == trace.KindKernel
		switch {
		case s.Kind == trace.KindWire:
			v.wire = append(v.wire, ms)
		case s.Kind == trace.KindAdmission:
			v.admission[s.Tenant] = append(v.admission[s.Tenant], ms)
		case s.Kind == trace.KindQueueWait && kernel:
			v.queueWait[s.Tenant] = append(v.queueWait[s.Tenant], ms)
		case s.Kind == trace.KindExec && kernel:
			v.exec[s.Tenant] = append(v.exec[s.Tenant], ms)
		}
	}
	return v
}

// ---- export ----

// export writes the benchmark's retained spans as Chrome trace-event JSON and the
// program tracer's virtual timeline as Perfetto JSON into dir, named after
// the workload, and reports how long writing took. Caller holds p.mu.
func (p *probe) export(dir, workload string, tr *haocl.Tracer) (time.Duration, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("export: %w", err)
	}
	spans := p.kept // caller holds p.mu
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	err := writeFile(filepath.Join(dir, workload+".wall.json"), func(w *bufio.Writer) error {
		w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
		var b []byte
		for i, s := range spans {
			b = b[:0]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":"`...)
			b = append(b, spanNames[s.kind]...)
			b = append(b, `","ph":"X","pid":1,"tid":`...)
			b = strconv.AppendInt(b, int64(tidOf(s.kind)), 10)
			b = append(b, `,"ts":`...)
			b = strconv.AppendFloat(b, float64(s.start)/1e3, 'f', 3, 64)
			b = append(b, `,"dur":`...)
			b = strconv.AppendFloat(b, float64(s.end-s.start)/1e3, 'f', 3, 64)
			b = append(b, `,"args":{"op":`...)
			b = strconv.AppendInt(b, int64(s.op), 10)
			b = append(b, "}}"...)
			w.Write(b)
		}
		_, err := w.WriteString("]}\n")
		return err
	})
	if err != nil {
		return 0, err
	}
	if tr != nil {
		err = writeFile(filepath.Join(dir, workload+".vtime.json"), func(w *bufio.Writer) error {
			return tr.WriteChrome(w)
		})
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// tidOf puts each layer on its own track.
func tidOf(k spanKind) int {
	switch k {
	case spanRegister, spanComplete:
		return 2
	case spanExec:
		return 3
	case spanSubmit, spanNext:
		return 4
	}
	return 1
}

func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("export %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("export %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("export %s: %w", path, err)
	}
	return nil
}
