// Package transport implements HaoCL's communication backbone: an
// asynchronous, length-framed message layer over which the host runtime
// talks to the Node Management Processes.
//
// The design follows paper §III-C. Each node runs an acceptor that listens
// asynchronously; every accepted connection gets a reader goroutine plus a
// dispatch worker — the Go equivalent of the Boost.Asio acceptor structure
// the paper describes. Requests from one connection are *dispatched* in
// arrival order: the host runtime pipelines commands without waiting for
// their responses, and in-order dispatch is what lets a later command
// reference the host-assigned event ID of an earlier one that has not
// produced a response yet. Whether execution is also serial is the
// handler's choice — an AsyncHandler (the node's session, with its
// per-queue dispatch lanes) completes requests out of order and the reply
// path reassembles per-envelope response batches; a plain Handler keeps
// the strict FIFO of the pre-lane runtime.
//
// The host side issues calls through Go, which ships the request and
// returns a Pending future; Call is Go followed by Wait. Any number of
// outstanding futures from any number of host goroutines are multiplexed
// over one connection via request-ID correlation, and a connection failure
// is sticky: every in-flight and subsequent future resolves to the same
// error.
//
// Once the Hello handshake negotiates wire v3, the client's write side
// coalesces: requests queue to a writer goroutine that drains whatever has
// accumulated, packs runs of small frames into Batch envelopes, and ships
// them with one write — flushing whenever the queue drains, so an idle
// connection never waits on a timer. The server unpacks envelopes into the
// same per-connection FIFO dispatch (preserving the pipeline's ordering
// invariant) and coalesces the responses of each envelope symmetrically.
// Against a v2 peer the write path is byte-identical to the pre-batching
// runtime: one frame, one write.
//
// Two transports are provided: real TCP (used by cmd/haocl-node and the
// integration tests) and an in-process pipe network (used by unit tests and
// the experiment harness, where spawning dozens of OS processes would only
// add noise).
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/protocol"
)

// Handler processes one decoded request on the server (node) side and
// returns the response message. Returning an error sends an ErrorResp to
// the caller; the connection stays usable.
type Handler interface {
	HandleCall(op protocol.Op, body []byte) (protocol.Message, error)
}

// AsyncHandler is a Handler that may complete calls out of order. The
// server invokes HandleCallAsync from the connection's dispatch goroutine
// strictly in arrival order — that call is the handler's registration
// stage — and the handler routes the request to whatever internal
// execution lane it belongs to. done must be invoked exactly once per
// call, from any goroutine, with the response (or error) to ship. A plain
// request's response is written the moment it completes, never behind
// another lane's execution; requests that arrived inside one Batch
// envelope keep the symmetric response-envelope contract, so their
// responses are held and shipped together when the whole envelope has
// completed — a deliberate batching tradeoff that couples envelope-mates'
// latency (DESIGN.md §4).
//
// Handlers that need the old strictly-serial behavior simply implement
// Handler alone; the server then executes calls inline, in arrival order.
type AsyncHandler interface {
	Handler
	HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error))
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(op protocol.Op, body []byte) (protocol.Message, error)

// HandleCall implements Handler.
func (f HandlerFunc) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	return f(op, body)
}

// ErrClosed is returned by calls issued on a closed client.
var ErrClosed = errors.New("transport: connection closed")

// Client is the host side of one host↔node connection.
type Client struct {
	conn net.Conn

	// writeMu serializes direct frame writes (pre-negotiation v2 path)
	// and guards the coalescer state. The writer goroutine itself writes
	// without holding it: once batching is on, every frame goes through
	// the queue, so the two write paths never overlap.
	writeMu    sync.Mutex
	writeCh    *sync.Cond // wakes the writer when frames are queued
	spaceCh    *sync.Cond // wakes producers when the queue drains
	queue      []outFrame // guarded by writeMu
	queueBytes int        // guarded by writeMu
	batching   bool       // guarded by writeMu
	sendDead   bool       // guarded by writeMu; write side failed or closed, queue abandoned

	mu      sync.Mutex
	pending map[uint64]chan *protocol.Frame // guarded by mu
	closed  bool                            // guarded by mu
	readErr error                           // guarded by mu
	onDown  func(error)                     // guarded by mu

	nextID atomic.Uint64
}

// Dial connects to a node's message listener over TCP.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial node %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (TCP or in-memory pipe) as a
// client and starts its response reader.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan *protocol.Frame),
	}
	c.writeCh = sync.NewCond(&c.writeMu)
	c.spaceCh = sync.NewCond(&c.writeMu)
	go c.readLoop()
	go c.writeLoop()
	return c
}

// maxQueuedBytes bounds the body bytes buffered in the coalescer queue.
// Producers block once it is reached, restoring the write backpressure the
// blocking one-frame-per-write path provided naturally — without it a host
// pipelining bulk writes over a slow link could queue without bound.
const maxQueuedBytes = 8 << 20

// EnableBatching switches the write side to the wire v3 coalescer. Call it
// once, after the Hello handshake negotiates VersionBatch and before
// further traffic; frames already being written directly and frames queued
// afterwards are serialized by writeMu, so the switch cannot reorder or
// interleave them.
func (c *Client) EnableBatching() {
	c.writeMu.Lock()
	c.batching = true
	c.writeMu.Unlock()
}

func (c *Client) readLoop() {
	for {
		f, err := protocol.ReadFrame(c.conn)
		if err != nil {
			c.failAll(err)
			return
		}
		if f.Kind == protocol.FrameBatch {
			subs, err := protocol.DecodeBatch(f)
			if err != nil {
				// A malformed envelope poisons the stream's framing.
				c.failAll(err)
				c.conn.Close()
				return
			}
			for _, sub := range subs {
				c.deliver(sub)
			}
			continue
		}
		c.deliver(f)
	}
}

// deliver hands one response frame to its waiting future. Responses with
// no waiter are dropped: the caller timed out or the connection is
// shutting down.
func (c *Client) deliver(f *protocol.Frame) {
	c.mu.Lock()
	ch, ok := c.pending[f.ReqID]
	if ok {
		delete(c.pending, f.ReqID)
	}
	c.mu.Unlock()
	if ok {
		ch <- f
	}
}

// writeLoop drains the coalescer queue: it sleeps until frames are queued,
// grabs everything that accumulated while the previous write was in
// flight, and ships the whole run in one write. Flushing is purely
// drain-driven — a lone frame on an idle connection goes out immediately;
// batches only form when the producer outpaces the writer, which is
// exactly when coalescing pays. The drained queue slice comes back as the
// next queue, so a steady stream reuses two slices and one output buffer.
func (c *Client) writeLoop() {
	fw := &frameWriter{w: c.conn}
	var spare []outFrame
	for {
		c.writeMu.Lock()
		for len(c.queue) == 0 && !c.sendDead {
			c.writeCh.Wait()
		}
		if c.sendDead {
			c.writeMu.Unlock()
			return
		}
		run := c.queue
		c.queue = spare[:0]
		c.queueBytes = 0
		c.spaceCh.Broadcast()
		c.writeMu.Unlock()
		if err := fw.write(run); err != nil {
			// Queued frames are pre-validated, so this is an I/O failure:
			// the connection is gone. Close it so the read side unwinds
			// and the peer's session is released.
			c.failAll(fmt.Errorf("transport: send: %w", err))
			c.conn.Close()
			return
		}
		clear(run) // written: let the frames and payloads go
		spare = run
	}
}

// outFrame is one frame on its way to the wire. A bulk frame's payload
// and trailing fields ride by reference in bulk (protocol.EncodeByRef);
// every other frame leaves bulk nil and carries its whole body in Frame.
type outFrame struct {
	*protocol.Frame
	bulk *protocol.Bulk
}

// encodeFrame builds the outgoing frame for one message.
func encodeFrame(kind protocol.FrameKind, reqID uint64, op protocol.Op, m protocol.Message) outFrame {
	body, bulk := protocol.EncodeByRef(m)
	return outFrame{&protocol.Frame{Kind: kind, ReqID: reqID, Op: op, Body: body}, bulk}
}

// bodyLen reports the frame's whole body length on the wire.
func (f outFrame) bodyLen() int { return len(f.Body) + f.bulk.Len() }

// frameWriter ships frames to one connection in order, packing runs of
// small frames into Batch envelopes. Both directions of the batching path
// — the client's coalescing writer and the server's reply writer — use
// it, so the packing policy exists exactly once. Envelopes and plain
// frames are appended straight into one reused output buffer, so a small
// body is copied once, from its frame into the bytes handed to Write.
// Frames whose body exceeds BatchableBodyLimit are written alone with
// vectored I/O and never staged: bulk payloads amortize their own
// syscall, would blow up envelope sizes, and a staging copy would double
// their memory footprint. A frameWriter is not safe for concurrent use.
type frameWriter struct {
	w        io.Writer
	out      []byte            // reused output buffer
	run      []*protocol.Frame // batchable frames awaiting flush
	runBytes int               // body bytes in run
}

// write ships frames in order.
func (fw *frameWriter) write(frames []outFrame) error {
	for _, f := range frames {
		if f.bodyLen() > protocol.BatchableBodyLimit {
			if err := fw.flush(); err != nil {
				return err
			}
			if err := protocol.WriteFrameTo(fw.w, f.Frame, f.bulk); err != nil {
				return err
			}
			continue
		}
		fw.run = append(fw.run, f.Frame)
		fw.runBytes += len(f.Body)
		if len(fw.run) >= protocol.MaxBatchMessages || fw.runBytes >= protocol.MaxBatchBytes {
			if err := fw.flush(); err != nil {
				return err
			}
		}
	}
	return fw.flush()
}

// flush writes the pending run as one wire unit: a single frame goes
// plain, several become a Batch envelope.
func (fw *frameWriter) flush() error {
	var err error
	switch len(fw.run) {
	case 0:
		return nil
	case 1:
		fw.out, err = protocol.AppendFrame(fw.out[:0], fw.run[0])
	default:
		fw.out, err = protocol.AppendBatch(fw.out[:0], fw.run)
	}
	clear(fw.run)
	fw.run, fw.runBytes = fw.run[:0], 0
	if err != nil {
		return err
	}
	_, err = fw.w.Write(fw.out)
	return err
}

// killWrites abandons the write side; queued frames die with the
// connection (their futures fail through failAll's sticky error).
func (c *Client) killWrites() {
	c.writeMu.Lock()
	c.sendDead = true
	c.queue = nil
	c.queueBytes = 0
	c.writeCh.Broadcast()
	c.spaceCh.Broadcast()
	c.writeMu.Unlock()
}

func (c *Client) failAll(err error) {
	// The write side dies with the connection: without this, a client
	// whose peer vanished would park its writer goroutine forever unless
	// the caller remembered to Close.
	c.killWrites()
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	first := !c.closed
	c.closed = true
	pending := c.pending
	c.pending = make(map[uint64]chan *protocol.Frame)
	down := c.onDown
	sticky := c.readErr
	c.mu.Unlock()
	// Notify outside the lock — the callback typically re-enters the
	// client or kicks off recovery machinery — and strictly before the
	// pending futures unblock: a waiter that sees the sticky error must be
	// able to observe whatever state the callback established (the host
	// marks the node dead here, so command failures classify as node-loss).
	if first && down != nil {
		down(sticky)
	}
	for _, ch := range pending {
		close(ch)
	}
}

// OnDown registers a callback invoked exactly once, from the goroutine
// that detects the failure, when the connection dies (read error, send
// error, or Close). The callback receives the sticky connection error.
// Registering after the connection already died invokes the callback
// immediately.
func (c *Client) OnDown(fn func(error)) {
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		fn(err)
		return
	}
	c.onDown = fn
	c.mu.Unlock()
}

// Pending is one in-flight call: a future that resolves when the matching
// response frame arrives, when the request could not be sent, or when the
// connection dies (all in-flight futures then fail with the same sticky
// connection error). Wait is safe to call from any goroutine, any number
// of times; the first call blocks and every call returns the same result.
type Pending struct {
	c    *Client
	op   protocol.Op
	resp protocol.Message
	ch   chan *protocol.Frame

	once sync.Once
	err  error
}

// Go sends req without waiting for the response and returns the call's
// future. When the response arrives, Wait decodes it into resp (which may
// be nil when the caller only needs the acknowledgement). Frames from
// concurrent Go calls are written whole, but callers needing a defined
// wire order across several Go calls must serialize the calls themselves.
// With batching negotiated, Go returns once the frame is queued to the
// coalescing writer; the queue preserves Go-call order.
//
// A bulk payload (a WriteBufferReq or PeerPushReq above
// protocol.BatchableBodyLimit) is sent by reference, not copied: the
// caller hands it over and must never modify it afterwards.
//
// haoclvet:wire
func (c *Client) Go(req protocol.Message, resp protocol.Message) *Pending {
	p := &Pending{c: c, op: req.Op(), resp: resp, ch: make(chan *protocol.Frame, 1)}
	id := c.nextID.Add(1)

	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		p.settle(err)
		return p
	}
	c.pending[id] = p.ch
	c.mu.Unlock()

	frame := encodeFrame(protocol.FrameRequest, id, req.Op(), req)
	if n := frame.bodyLen(); n > protocol.MaxFrameSize {
		// Reject before queueing so an unsendable frame fails only its
		// own call — on the coalescing path a late size error would be
		// connection-fatal.
		c.forget(id)
		p.settle(fmt.Errorf("send %s: %w: %d bytes", req.Op(), protocol.ErrFrameTooBig, n))
		return p
	}
	c.writeMu.Lock()
	for c.batching && c.queueBytes >= maxQueuedBytes && !c.sendDead {
		c.spaceCh.Wait()
	}
	if c.sendDead {
		c.writeMu.Unlock()
		c.forget(id)
		p.settle(fmt.Errorf("send %s: %w", req.Op(), c.sticky()))
		return p
	}
	if c.batching {
		c.queue = append(c.queue, frame)
		// Count the wire size, not just the body: zero-body control
		// frames (status polls, shutdown) must still hit the cap, or a
		// producer outpacing a stalled writer queues without bound.
		c.queueBytes += protocol.FrameWireSize(frame.Frame) + frame.bulk.Len()
		c.writeCh.Signal()
		c.writeMu.Unlock()
		return p
	}
	var err error
	if frame.bulk != nil {
		err = protocol.WriteFrameTo(c.conn, frame.Frame, frame.bulk)
	} else {
		err = protocol.WriteFrame(c.conn, frame.Frame)
	}
	c.writeMu.Unlock()
	if err != nil {
		c.forget(id)
		p.settle(fmt.Errorf("send %s: %w", req.Op(), err))
	}
	return p
}

// forget drops a registered pending entry after a send-side failure.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// sticky reports the connection's sticky error, defaulting to ErrClosed.
func (c *Client) sticky() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return ErrClosed
}

// settle resolves the future before Wait ever ran (send-side failures).
func (p *Pending) settle(err error) {
	p.once.Do(func() { p.err = err })
}

// Wait blocks until the call completes and returns its error, decoding the
// response into the resp passed to Go. A remote failure surfaces as a
// *protocol.RemoteError; a dead connection as its sticky error. Errors are
// raw at this layer: callers in the recovery path must classify them
// (core.classifyNodeErr) before retry decisions.
//
// haoclvet:errclass-source
func (p *Pending) Wait() error {
	p.once.Do(func() {
		f, ok := <-p.ch
		if !ok {
			p.c.mu.Lock()
			err := p.c.readErr
			p.c.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			p.err = fmt.Errorf("call %s: %w", p.op, err)
			return
		}
		if f.Op == protocol.OpError {
			var er protocol.ErrorResp
			if derr := protocol.DecodeMessage(&er, f.Body); derr != nil {
				p.err = derr
				return
			}
			p.err = &protocol.RemoteError{Op: p.op, Code: er.Code, Message: er.Message}
			return
		}
		if p.resp != nil {
			p.err = protocol.DecodeMessage(p.resp, f.Body)
		}
	})
	return p.err
}

// Call sends req and blocks until the matching response arrives, decoding
// it into resp: Go followed by Wait. Like Wait, its error is raw and needs
// classification before feeding recovery decisions.
//
// haoclvet:errclass-source
// haoclvet:wire
func (c *Client) Call(req protocol.Message, resp protocol.Message) error {
	return c.Go(req, resp).Wait()
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.failAll(ErrClosed)
	return c.conn.Close()
}

// Server is the node side of the backbone: an acceptor plus, per
// connection, a reader goroutine and a dispatch worker that hands the
// connection's requests to its handler strictly in arrival order.
//
// In-order *dispatch* per connection is a protocol guarantee, not an
// implementation detail: the host pipelines enqueue commands without
// waiting for responses, naming each command's event with a host-assigned
// ID, and a later command's wait list may reference an earlier command
// whose response has not been produced yet. Arrival-order dispatch lets
// the handler register those IDs before anything executes, making the
// reference valid by construction. Whether *execution* is also serial is
// the handler's choice: a plain Handler runs inline in the dispatch
// goroutine (strict FIFO, the pre-lane behavior), while an AsyncHandler
// fans requests out to its own execution lanes and completes them out of
// order — the reply path reassembles per-envelope response batches from
// whatever order completions arrive in (DESIGN.md §4). Different
// connections always execute concurrently.
//
// Each accepted connection gets its own Handler from the factory, so the
// NMP can maintain per-session state (user identity, owned objects). A
// handler that also implements io.Closer is closed when its connection
// ends, giving the session a hook to release abandoned resources.
type Server struct {
	factory func() Handler

	// wireVersion caps the wire version this server accepts on its
	// connections (0 = protocol.Version). A server capped below
	// VersionBatch drops connections that send Batch envelopes, so a
	// v2-pinned node behaves like a genuine pre-batching peer instead of
	// relying on host-side self-restraint.
	wireVersion uint32

	mu     sync.Mutex
	ln     net.Listener          // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu

	wg sync.WaitGroup
}

// NewServer returns a server creating one handler per connection.
func NewServer(factory func() Handler) *Server {
	return &Server{
		factory: factory,
		conns:   make(map[net.Conn]struct{}),
	}
}

// NewStaticServer returns a server dispatching every connection to the same
// handler, for tests and single-session tools.
func NewStaticServer(h Handler) *Server {
	return NewServer(func() Handler { return h })
}

// LimitWireVersion caps the wire version the server accepts (0 = current).
// Call before Listen/ServeConn.
func (s *Server) LimitWireVersion(v uint32) { s.wireVersion = v }

// acceptsBatches reports whether connections may send Batch envelopes.
func (s *Server) acceptsBatches() bool {
	return s.wireVersion == 0 || s.wireVersion >= protocol.VersionBatch
}

// Listen starts accepting on a TCP address and returns the bound address
// (useful with ":0" for tests). Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.ServeConn(conn)
	}
}

// ServeConn registers conn and serves requests from it on background
// goroutines. The in-memory network uses this directly with pipe ends.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()

	handler := s.factory()
	// The reader keeps draining the socket while the handler executes, so a
	// pipelining host can stream frames into the job queue without waiting
	// for earlier commands to finish. Batch envelopes are unpacked here, in
	// envelope order, into the same queue; each envelope's sub-requests
	// share a respEnvelope so their responses can be coalesced back into
	// one response envelope no matter which order they complete in.
	jobs := make(chan serverJob, 128)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		defer close(jobs)
		for {
			f, err := protocol.ReadFrame(conn)
			if err != nil {
				return
			}
			if f.Kind == protocol.FrameBatch {
				if !s.acceptsBatches() {
					return // batch traffic beyond the negotiated version
				}
				subs, err := protocol.DecodeBatch(f)
				if err != nil {
					return // malformed envelope: framing is poisoned
				}
				env := &respEnvelope{
					frames:    make([]outFrame, len(subs)),
					remaining: len(subs),
				}
				for i, sub := range subs {
					jobs <- serverJob{frame: sub, env: env, idx: i}
				}
				continue
			}
			jobs <- serverJob{frame: f}
		}
	}()
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
			if closer, ok := handler.(interface{ Close() error }); ok {
				// Session cleanup failures have no caller to report to.
				_ = closer.Close()
			}
		}()
		s.dispatchLoop(conn, handler, jobs)
	}()
}

// serverJob is one request awaiting dispatch. env groups the sub-requests
// of one Batch envelope for response assembly; idx is the request's
// position within it.
type serverJob struct {
	frame *protocol.Frame
	env   *respEnvelope
	idx   int
}

// respEnvelope collects the responses of one request envelope. Lanes may
// complete an envelope's requests in any order; the envelope ships as one
// coalesced unit when the last response lands, with each response in its
// request's position.
type respEnvelope struct {
	frames    []outFrame
	remaining int
}

// replyWriter serializes one connection's response writes. Plain requests
// answer with a plain frame the moment they complete — a response never
// waits behind another lane's execution — while requests from a Batch
// envelope are held until the whole envelope has completed and then
// written as one coalesced run (bulk responses inside it still travel
// alone, via the shared packing policy in frameWriter). Out-of-order
// completion across envelopes is fine: the client correlates responses by
// request ID.
type replyWriter struct {
	mu sync.Mutex
	fw frameWriter // guarded by mu
}

// complete delivers one finished request's response frame. Write failures
// mean the peer vanished; the read loop notices and cleans the connection
// up, so the errors need no second handling.
func (w *replyWriter) complete(j serverJob, out outFrame) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if j.env == nil {
		_ = w.fw.write([]outFrame{out})
		return
	}
	j.env.frames[j.idx] = out
	j.env.remaining--
	if j.env.remaining == 0 {
		_ = w.fw.write(j.env.frames)
	}
}

// dispatchLoop hands the connection's requests to the handler strictly in
// arrival order. An AsyncHandler takes ownership of each request's
// execution and completes it through the reply writer from its own lanes;
// a plain Handler executes inline, preserving the strict per-connection
// FIFO of the pre-lane runtime.
func (s *Server) dispatchLoop(conn net.Conn, handler Handler, jobs <-chan serverJob) {
	w := &replyWriter{fw: frameWriter{w: conn}}
	async, _ := handler.(AsyncHandler)
	for j := range jobs {
		j := j
		if async != nil {
			async.HandleCallAsync(j.frame.Op, j.frame.Body, func(resp protocol.Message, err error) {
				w.complete(j, responseFrame(j.frame, resp, err))
			})
			continue
		}
		resp, err := handler.HandleCall(j.frame.Op, j.frame.Body)
		w.complete(j, responseFrame(j.frame, resp, err))
	}
}

// responseFrame packages one request's outcome as its response frame. A
// bulk response payload (a node's fresh read copy) is sent by reference.
func responseFrame(req *protocol.Frame, resp protocol.Message, err error) outFrame {
	if err != nil {
		var re *protocol.RemoteError
		code := uint32(1)
		if errors.As(err, &re) {
			code = re.Code
		}
		return encodeFrame(protocol.FrameResponse, req.ReqID, protocol.OpError,
			&protocol.ErrorResp{Code: code, Message: err.Error()})
	}
	if resp == nil {
		return outFrame{Frame: &protocol.Frame{Kind: protocol.FrameResponse, ReqID: req.ReqID, Op: req.Op}}
	}
	return encodeFrame(protocol.FrameResponse, req.ReqID, req.Op, resp)
}

// Close stops accepting, closes every connection and waits for in-flight
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}
