package node

import (
	"errors"
	"sync"

	"github.com/haocl-project/haocl/internal/clc"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/vtime"
)

// Session is the per-connection handler: it parses each forwarded API call,
// executes it, and packages the response (paper §III-D: the daemon
// "receives the commands from the workload scheduler along with additional
// information such as user ID, device ID, shared flag ... and parses them
// for compilation and execution").
//
// Dispatch is split into two stages (DESIGN.md §4). The *registration*
// stage runs in the transport's per-connection dispatch goroutine, strictly
// in wire-arrival order: it parses the command, claims its host-assigned
// completion event, resolves the target queue, and routes the command to a
// *lane*. Lanes — one per target queue, plus a control lane for everything
// that has no queue — execute concurrently, so a multi-device node runs its
// queues in parallel instead of single-file. Cross-queue dependencies are
// real synchronization edges: a wait-list lookup blocks until the
// referenced event's command has completed on its own lane.
type Session struct {
	node *Node

	mu     sync.Mutex
	userID string               // guarded by mu
	queues map[uint64]*queueObj // guarded by mu; queues created by this session
	// events are session-local because their IDs are host-assigned: the
	// pipelining host names each command's completion event up front so a
	// later command's wait list can reference it before the response
	// exists, and those counters are only unique per connection. Entries
	// are created at registration (claimed) or by a wait-list lookup that
	// ran ahead of the creating command (unclaimed placeholder).
	events map[uint64]*eventObj // guarded by mu
	// synthEventID assigns IDs for requests that carry none (direct
	// session drivers and tests); the high range keeps them clear of
	// host-assigned counters.
	synthEventID uint64 // guarded by mu
	// peers is the cluster address book learned from the host's Hello
	// (name → listen address), consulted when PushRange commands dial
	// sibling nodes.
	peers map[string]string // guarded by mu
	// epoch is the host's membership generation from the last Hello; a
	// repeat Hello with a higher epoch signals a membership change and
	// resets the peer pool and parked push rendezvous.
	epoch uint64 // guarded by mu

	// peerMu guards the lazy-dialed pool of connections to sibling nodes
	// and the peersClosed latch; see peerClient.
	peerMu      sync.Mutex
	peerConns   map[string]*peerConn // guarded by peerMu
	peersClosed bool                 // guarded by peerMu

	laneMu    sync.Mutex
	lanes     map[uint64]*lane // guarded by laneMu
	lanesDead bool             // guarded by laneMu
	laneWG    sync.WaitGroup

	// closedCh unblocks event waiters when the session tears down, so a
	// lane draining on Close can never hang on a dependency whose creating
	// command was lost with the connection.
	closedCh  chan struct{}
	closeOnce sync.Once
}

func newSession(n *Node) *Session {
	return &Session{
		node:     n,
		closedCh: make(chan struct{}),
	}
}

// controlLane is the lane key for ops that target no queue.
const controlLane uint64 = 0

// synthEventBase is the first synthetic event ID; host-assigned IDs must
// stay below it.
const synthEventBase = uint64(1) << 62

// lane is one in-order execution stream. The registration stage appends
// jobs; a dedicated worker goroutine runs them one at a time, so commands
// for one queue still execute in arrival order while different lanes
// proceed concurrently. The queue is unbounded on purpose: a bounded lane
// would stall the registration stage when full, and a stalled registration
// stage can deadlock a cross-lane wait whose creating command is still
// behind it (backpressure remains at the transport's job channel and the
// host's own flow control).
type lane struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []func() // guarded by mu
	closed bool     // guarded by mu
}

func newLane() *lane {
	l := &lane{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// push appends one job, reporting false if the lane is closed.
func (l *lane) push(job func()) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.jobs = append(l.jobs, job)
	l.cond.Signal()
	return true
}

// close stops the lane accepting jobs; the worker drains what is queued.
func (l *lane) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// run is the lane worker: it executes queued jobs in order and exits once
// the lane is closed and drained.
func (l *lane) run() {
	for {
		l.mu.Lock()
		for len(l.jobs) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.jobs) == 0 {
			l.mu.Unlock()
			return
		}
		job := l.jobs[0]
		l.jobs = l.jobs[1:]
		l.mu.Unlock()
		job()
	}
}

// laneKey maps a target queue to its lane. A node in single-lane mode
// (benchmarks comparing against the serialized dispatch of the pre-lane
// runtime) folds everything onto the control lane.
func (s *Session) laneKey(queueID uint64) uint64 {
	if s.node.singleLane {
		return controlLane
	}
	return queueID
}

// submit routes one job to its lane, starting the lane worker lazily.
func (s *Session) submit(key uint64, job func()) bool {
	s.laneMu.Lock()
	if s.lanesDead {
		s.laneMu.Unlock()
		return false
	}
	if s.lanes == nil {
		s.lanes = make(map[uint64]*lane)
	}
	ln := s.lanes[key]
	if ln == nil {
		ln = newLane()
		s.lanes[key] = ln
		s.laneWG.Add(1)
		go func() {
			defer s.laneWG.Done()
			ln.run()
		}()
	}
	s.laneMu.Unlock()
	return ln.push(job)
}

// registerEvent claims the completion event for one command, under the
// host-assigned ID or a synthesized one when the request carried none. It
// runs in the registration stage, in wire-arrival order, which is what
// makes a later command's wait on the ID valid before this command has
// executed. A wait-list lookup that ran ahead (concurrent direct drivers)
// may already have left an unclaimed placeholder; claiming adopts it, so
// its waiters resolve when this command completes.
func (s *Session) registerEvent(id uint64) (*eventObj, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 {
		s.synthEventID++
		id = synthEventBase + s.synthEventID
	} else if id >= synthEventBase {
		// A host counter can never legitimately reach the synthetic range;
		// letting it through would silently collide with node-assigned IDs.
		return nil, remoteErr(protocol.CodeBadRequest,
			"host-assigned event ID %d lands in the reserved synthetic range", id)
	}
	if s.events == nil {
		s.events = make(map[uint64]*eventObj)
	}
	e := s.events[id]
	if e == nil {
		e = newEvent(id)
		s.events[id] = e
	} else if e.claimed {
		return nil, remoteErr(protocol.CodeBadRequest, "duplicate event ID %d", id)
	}
	e.claimed = true
	return e, nil
}

// resolveWaits resolves a command's wait list to event records. It runs
// in the registration stage, which matters for releases: a waiter holds
// its dependencies' records from registration on, so an event Release
// arriving behind it on the wire (fire-and-forget teardown) can drop the
// table entry without orphaning the waiter. IDs outside the valid range
// are rejected up front — a zero or negative ID would otherwise wrap
// through the uint64 cast and surface as a misleading "unknown event".
//
// In lane mode (strict=false) an ID with no record yet becomes an
// unclaimed placeholder the waiter blocks on: the creating command may
// legitimately still be ahead in another driver's registration. The flip
// side is that waiting on an ID nothing will ever claim — e.g. an event
// the host already released — parks the lane until session close;
// distinguishing "future" from "never" would take an unbounded tombstone
// table, and waiting on a released event is undefined in OpenCL too. In
// strict mode (the synchronous HandleCall path, where registration and
// execution are one step and nothing concurrent can still claim the ID)
// an unclaimed ID is the pre-lane "unknown event" error — not a hang.
func (s *Session) resolveWaits(ids []int64, strict bool) ([]*eventObj, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	events := make([]*eventObj, 0, len(ids))
	for _, id := range ids {
		if id <= 0 {
			return nil, remoteErr(protocol.CodeBadRequest, "invalid wait-list event ID %d", id)
		}
		s.mu.Lock()
		if s.events == nil {
			s.events = make(map[uint64]*eventObj)
		}
		e := s.events[uint64(id)]
		if e == nil && !strict {
			e = newEvent(uint64(id))
			s.events[uint64(id)] = e
		}
		claimed := e != nil && e.claimed
		s.mu.Unlock()
		if strict && !claimed {
			return nil, remoteErr(protocol.CodeUnknownObject, "unknown event %d", id)
		}
		events = append(events, e)
	}
	return events, nil
}

// awaitDeadline returns the latest completion instant among the resolved
// dependencies. Events whose commands are still executing on other lanes
// (or not yet registered, for concurrent direct drivers) block until they
// complete — the cross-queue synchronization edge that replaces the old
// FIFO assumption that every referenced event had already run. A failed
// dependency fails the waiter.
func (s *Session) awaitDeadline(events []*eventObj) (vtime.Time, error) {
	var deadline vtime.Time
	for _, e := range events {
		select {
		case <-e.done:
		case <-s.closedCh:
			return 0, remoteErr(protocol.CodeBadRequest,
				"session closed while waiting for event %d", e.id)
		}
		if e.err != nil {
			return 0, remoteErr(errCode(e.err), "wait event %d: %v", e.id, e.err)
		}
		if end := vtime.Time(e.profile.End); end > deadline {
			deadline = end
		}
	}
	return deadline, nil
}

// errCode extracts a protocol code from an error, defaulting to 1.
func errCode(err error) uint32 {
	var re *protocol.RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	return 1
}

// failCommand marks a command's completion event failed — waiters observe
// the failure instead of hanging — and passes the error through.
func (s *Session) failCommand(ev *eventObj, err error) error {
	ev.fail(err)
	return err
}

// checkRange validates the byte range [off, off+n) against a buffer of
// size bytes. The comparison never computes off+n: the host now issues
// ranged delta-migration commands with arbitrary offsets, and an
// adversarial off near MaxInt64 would wrap the sum negative and slip past
// a naive bound check.
func checkRange(what string, off, n, size int64) error {
	if off < 0 || n < 0 || off > size || n > size-off {
		return remoteErr(protocol.CodeBadRequest,
			"%s range at offset %d of %d bytes out of bounds for buffer of %d bytes",
			what, off, n, size)
	}
	return nil
}

// HandleCall implements transport.Handler: registration plus inline
// execution in the caller's goroutine. Direct session drivers (tests,
// tools) use it; the transport prefers HandleCallAsync. Wait lists are
// resolved strictly — an unregistered ID errors instead of parking the
// caller's goroutine on an edge nothing concurrent will complete.
func (s *Session) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	_, exec, err := s.prepare(op, body, true)
	if err != nil {
		return nil, err
	}
	return exec()
}

// HandleCallAsync implements transport.AsyncHandler: the registration
// stage runs here, in the transport's arrival-order dispatch goroutine,
// and execution is handed to the command's lane.
func (s *Session) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	key, exec, err := s.prepare(op, body, false)
	if err != nil {
		done(nil, err)
		return
	}
	if !s.submit(key, func() { done(exec()) }) {
		done(nil, remoteErr(protocol.CodeBadRequest, "session is shutting down"))
	}
}

// prepare is the registration stage for one command: it parses the body,
// claims the command's completion event, resolves every object the command
// touches (queue, buffers, kernel, wait-list events), and returns the lane
// key plus the execution step. Resolving objects here — not in the lane —
// is what makes fire-and-forget releases sound: a command registered
// before a Release arrived holds references and keeps executing, while one
// registered after deterministically sees the object gone. strictWaits
// selects how unregistered wait-list IDs resolve (see resolveWaits). Ops
// with no queue ride the control lane; Release itself is special-cased to
// run inline (it is a pure table mutation, and later-arriving commands
// must observe it deterministically, which only the arrival-ordered
// registration stage can guarantee).
func (s *Session) prepare(op protocol.Op, body []byte, strictWaits bool) (uint64, func() (protocol.Message, error), error) {
	switch op {
	case protocol.OpWriteBuffer:
		req := new(protocol.WriteBufferReq)
		if err := protocol.DecodeMessage(req, body); err != nil {
			return 0, nil, err
		}
		q, ev, err := s.registerCommand(req.QueueID, req.EventID)
		if err != nil {
			return 0, nil, err
		}
		buf, err := s.node.objects.buffer(req.BufferID)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		// Ranged-write validation happens here, in the registration stage:
		// a malformed range fails its event deterministically instead of
		// occupying a lane and blocking on wait edges first. Buffer sizes
		// are immutable, so registration-time bounds hold at execution.
		if err := checkRange("write", req.Offset, int64(len(req.Data)), buf.size); err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		waits, err := s.resolveWaits(req.WaitEvents, strictWaits)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		return s.laneKey(req.QueueID), func() (protocol.Message, error) {
			return s.execWriteBuffer(req, q, ev, buf, waits)
		}, nil
	case protocol.OpReadBuffer:
		req := new(protocol.ReadBufferReq)
		if err := protocol.DecodeMessage(req, body); err != nil {
			return 0, nil, err
		}
		q, ev, err := s.registerCommand(req.QueueID, req.EventID)
		if err != nil {
			return 0, nil, err
		}
		buf, err := s.node.objects.buffer(req.BufferID)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		if err := checkRange("read", req.Offset, req.Size, buf.size); err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		waits, err := s.resolveWaits(req.WaitEvents, strictWaits)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		return s.laneKey(req.QueueID), func() (protocol.Message, error) {
			return s.execReadBuffer(req, q, ev, buf, waits)
		}, nil
	case protocol.OpCopyBuffer:
		req := new(protocol.CopyBufferReq)
		if err := protocol.DecodeMessage(req, body); err != nil {
			return 0, nil, err
		}
		q, ev, err := s.registerCommand(req.QueueID, req.EventID)
		if err != nil {
			return 0, nil, err
		}
		src, err := s.node.objects.buffer(req.SrcID)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		dst, err := s.node.objects.buffer(req.DstID)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		if err := checkRange("copy source", req.SrcOffset, req.Size, src.size); err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		if err := checkRange("copy destination", req.DstOffset, req.Size, dst.size); err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		waits, err := s.resolveWaits(req.WaitEvents, strictWaits)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		return s.laneKey(req.QueueID), func() (protocol.Message, error) {
			return s.execCopyBuffer(req, q, ev, src, dst, waits)
		}, nil
	case protocol.OpEnqueueKernel:
		req := new(protocol.EnqueueKernelReq)
		if err := protocol.DecodeMessage(req, body); err != nil {
			return 0, nil, err
		}
		q, ev, err := s.registerCommand(req.QueueID, req.EventID)
		if err != nil {
			return 0, nil, err
		}
		k, err := s.node.objects.kernel(req.KernelID)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		args, err := s.buildLaunchArgs(k, req.Args)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		waits, err := s.resolveWaits(req.WaitEvents, strictWaits)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		return s.laneKey(req.QueueID), func() (protocol.Message, error) {
			return s.execEnqueueKernel(req, q, ev, k, args, waits)
		}, nil
	case protocol.OpPushRange:
		req := new(protocol.PushRangeReq)
		if err := protocol.DecodeMessage(req, body); err != nil {
			return 0, nil, err
		}
		q, ev, err := s.registerCommand(req.QueueID, req.EventID)
		if err != nil {
			return 0, nil, err
		}
		buf, err := s.node.objects.buffer(req.BufferID)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		if err := checkRange("push", req.Offset, req.Size, buf.size); err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		waits, err := s.resolveWaits(req.WaitEvents, strictWaits)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		// The peer connection is NOT resolved here: dialing is lazy and may
		// block, and the registration stage must stay non-blocking. A dial
		// failure surfaces in the lane as this command's sticky error.
		return s.laneKey(req.QueueID), func() (protocol.Message, error) {
			return s.execPushRange(req, q, ev, buf, waits)
		}, nil
	case protocol.OpAwaitPush:
		req := new(protocol.AwaitPushReq)
		if err := protocol.DecodeMessage(req, body); err != nil {
			return 0, nil, err
		}
		q, ev, err := s.registerCommand(req.QueueID, req.EventID)
		if err != nil {
			return 0, nil, err
		}
		buf, err := s.node.objects.buffer(req.BufferID)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		if err := checkRange("await-push", req.Offset, req.Size, buf.size); err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		waits, err := s.resolveWaits(req.WaitEvents, strictWaits)
		if err != nil {
			return 0, nil, s.failCommand(ev, err)
		}
		return s.laneKey(req.QueueID), func() (protocol.Message, error) {
			return s.execAwaitPush(req, q, ev, buf, waits)
		}, nil
	case protocol.OpFinishQueue:
		req := new(protocol.FinishQueueReq)
		if err := protocol.DecodeMessage(req, body); err != nil {
			return 0, nil, err
		}
		q, err := s.node.objects.queue(req.QueueID)
		if err != nil {
			return 0, nil, err
		}
		// Finish rides the queue's lane: by lane order it executes after
		// every previously arrived command on the queue, which is exactly
		// the drain it reports.
		return s.laneKey(req.QueueID), func() (protocol.Message, error) {
			q.execMu.Lock()
			now := q.clock.Now()
			q.execMu.Unlock()
			return &protocol.FinishQueueResp{SimTime: int64(now)}, nil
		}, nil
	case protocol.OpRelease:
		// Inline: see the doc comment above.
		resp, err := s.handleRelease(body)
		return controlLane, func() (protocol.Message, error) { return resp, err }, nil
	default:
		return controlLane, func() (protocol.Message, error) {
			return s.handleControl(op, body)
		}, nil
	}
}

// registerCommand claims a decoded queue command's completion event and
// resolves its target queue — the core of the registration stage for
// enqueue ops. The event is claimed first so that any later registration
// or execution failure can fail it: a pipelined waiter behind a doomed
// command then observes the failure instead of hanging on a placeholder.
func (s *Session) registerCommand(queueID, eventID uint64) (*queueObj, *eventObj, error) {
	ev, err := s.registerEvent(eventID)
	if err != nil {
		return nil, nil, err
	}
	q, err := s.node.objects.queue(queueID)
	if err != nil {
		return nil, nil, s.failCommand(ev, err)
	}
	return q, ev, nil
}

// handleControl dispatches the non-queue ops (the control lane's work).
func (s *Session) handleControl(op protocol.Op, body []byte) (protocol.Message, error) {
	switch op {
	case protocol.OpHello:
		return s.handleHello(body)
	case protocol.OpGetDeviceInfos:
		return s.handleGetDeviceInfos(body)
	case protocol.OpCreateContext:
		return s.handleCreateContext(body)
	case protocol.OpCreateQueue:
		return s.handleCreateQueue(body)
	case protocol.OpCreateBuffer:
		return s.handleCreateBuffer(body)
	case protocol.OpBuildProgram:
		return s.handleBuildProgram(body)
	case protocol.OpCreateKernel:
		return s.handleCreateKernel(body)
	case protocol.OpQueryEvent:
		return s.handleQueryEvent(body)
	case protocol.OpPeerPush:
		return s.handlePeerPush(body)
	case protocol.OpCancelPush:
		return s.handleCancelPush(body)
	case protocol.OpNodeStatus:
		return &protocol.NodeStatusResp{Devices: s.node.Status()}, nil
	case protocol.OpShutdown:
		s.node.shutdown()
		return &protocol.EmptyResp{}, nil
	default:
		return nil, remoteErr(protocol.CodeUnsupported, "unsupported op %s", op)
	}
}

// Close implements the optional transport session-cleanup hook: lanes are
// drained (outstanding commands finish or fail fast through the closed
// channel), then queues the session still owns are released so exclusive
// devices free up when a host disconnects uncleanly.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		// Unblock wait-list waiters first: a lane draining on Close must
		// never hang on a dependency that died with the connection.
		close(s.closedCh)
		s.laneMu.Lock()
		s.lanesDead = true
		lanes := make([]*lane, 0, len(s.lanes))
		for _, ln := range s.lanes {
			lanes = append(lanes, ln)
		}
		s.laneMu.Unlock()
		for _, ln := range lanes {
			ln.close()
		}
		s.laneWG.Wait()

		// Lanes are drained; no command can touch the peer pool anymore.
		s.closePeers()

		s.mu.Lock()
		queues := s.queues
		s.queues = nil
		s.mu.Unlock()
		for id, q := range queues {
			if _, err := s.node.objects.release(protocol.ObjQueue, id); err == nil {
				s.dropQueueUser(q)
			}
		}
	})
	return nil
}

func (s *Session) user() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.userID == "" {
		return "anonymous"
	}
	return s.userID
}

func (s *Session) handleHello(body []byte) (protocol.Message, error) {
	var req protocol.HelloReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	// Version negotiation: the session runs at the highest version both
	// sides speak. A host newer than the node falls back to the node's
	// version (so a v3 host interoperates with a v2-only node, minus
	// batching); a host older than MinVersion cannot be spoken to at all.
	if req.WireVersion < protocol.MinVersion {
		return nil, remoteErr(protocol.CodeUnsupported,
			"wire version %d unsupported: node speaks %d through %d",
			req.WireVersion, protocol.MinVersion, s.node.wireVersion)
	}
	negotiated := s.node.wireVersion
	if req.WireVersion < negotiated {
		negotiated = req.WireVersion
	}
	// Learn the cluster address book for peer dialing. Our own entry is
	// dropped: a node never pushes to itself.
	var peers map[string]string
	if len(req.Peers) > 0 {
		peers = make(map[string]string, len(req.Peers))
		for _, p := range req.Peers {
			if p.Name != s.node.name {
				peers[p.Name] = p.Addr
			}
		}
	}
	s.mu.Lock()
	prevEpoch := s.epoch
	s.userID = req.UserID
	if peers != nil {
		s.peers = peers
	}
	if req.Epoch > s.epoch {
		s.epoch = req.Epoch
	}
	s.mu.Unlock()
	// A repeat Hello with a bumped epoch is a membership change: pooled
	// peer connections may point at dead incarnations (and sticky dial
	// failures at now-restarted peers), and any parked push rendezvous
	// lost its counterpart — the host re-plans all of it with fresh
	// tokens after this call returns.
	if prevEpoch != 0 && req.Epoch > prevEpoch {
		s.resetPeers()
		s.node.rdv.reset(remoteErr(protocol.CodeNodeLost,
			"node %q: membership changed (epoch %d)", s.node.name, req.Epoch))
	}
	return &protocol.HelloResp{
		NodeName:    s.node.name,
		Devices:     s.node.DeviceInfos(0),
		WireVersion: negotiated,
		BootID:      s.node.bootID,
	}, nil
}

func (s *Session) handleGetDeviceInfos(body []byte) (protocol.Message, error) {
	var req protocol.GetDeviceInfosReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	return &protocol.GetDeviceInfosResp{Devices: s.node.DeviceInfos(req.TypeMask)}, nil
}

func (s *Session) handleCreateContext(body []byte) (protocol.Message, error) {
	var req protocol.CreateContextReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	if len(req.DeviceIDs) == 0 {
		return nil, remoteErr(protocol.CodeBadRequest, "context needs at least one device")
	}
	devs := make([]uint32, 0, len(req.DeviceIDs))
	for _, id := range req.DeviceIDs {
		if _, _, err := s.node.deviceByID(uint32(id)); err != nil {
			return nil, err
		}
		devs = append(devs, uint32(id))
	}
	id := s.node.objects.putContext(&contextObj{
		devices:   devs,
		sessionID: req.SessionID,
		tenant:    req.Tenant,
	})
	return &protocol.ObjectResp{ID: id}, nil
}

func (s *Session) handleCreateQueue(body []byte) (protocol.Message, error) {
	var req protocol.CreateQueueReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	ctx, err := s.node.objects.context(req.ContextID)
	if err != nil {
		return nil, err
	}
	inContext := false
	for _, d := range ctx.devices {
		if d == req.DeviceID {
			inContext = true
			break
		}
	}
	if !inContext {
		return nil, remoteErr(protocol.CodeBadRequest,
			"device %d is not part of context %d", req.DeviceID, req.ContextID)
	}
	dev, stats, err := s.node.deviceByID(req.DeviceID)
	if err != nil {
		return nil, err
	}

	user := s.user()
	stats.mu.Lock()
	if !dev.Info().Shared {
		for other, cnt := range stats.users {
			if other != user && cnt > 0 {
				stats.mu.Unlock()
				return nil, remoteErr(protocol.CodeDeviceBusy,
					"device %d (%s) is exclusive and held by user %q",
					req.DeviceID, dev.Info().Name, other)
			}
		}
	}
	stats.users[user]++
	stats.mu.Unlock()

	q := &queueObj{dev: dev, stats: stats, owner: user, profiling: req.Profiling}
	id := s.node.objects.putQueue(q)
	s.mu.Lock()
	if s.queues == nil {
		s.queues = make(map[uint64]*queueObj)
	}
	s.queues[id] = q
	s.mu.Unlock()
	return &protocol.ObjectResp{ID: id}, nil
}

func (s *Session) dropQueueUser(q *queueObj) {
	q.stats.mu.Lock()
	defer q.stats.mu.Unlock()
	if n := q.stats.users[q.owner]; n <= 1 {
		delete(q.stats.users, q.owner)
	} else {
		q.stats.users[q.owner] = n - 1
	}
}

func (s *Session) handleCreateBuffer(body []byte) (protocol.Message, error) {
	var req protocol.CreateBufferReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	if _, err := s.node.objects.context(req.ContextID); err != nil {
		return nil, err
	}
	if req.Size <= 0 || req.Size > protocol.MaxFrameSize {
		return nil, remoteErr(protocol.CodeBadRequest, "invalid buffer size %d", req.Size)
	}
	id := s.node.objects.putBuffer(&bufferObj{size: req.Size, data: make([]byte, req.Size)})
	return &protocol.ObjectResp{ID: id}, nil
}

func (s *Session) execWriteBuffer(req *protocol.WriteBufferReq, q *queueObj, ev *eventObj, buf *bufferObj, waits []*eventObj) (protocol.Message, error) {
	// Bounds were validated at registration (see prepare).
	deadline, err := s.awaitDeadline(waits)
	if err != nil {
		return nil, s.failCommand(ev, err)
	}

	modelBytes := int64(len(req.Data))
	if req.ModelBytes > 0 {
		modelBytes = req.ModelBytes
	}
	arrival := vtime.Max(vtime.Time(req.SimArrival), deadline)
	dur := q.dev.ModelTransfer(modelBytes)
	q.execMu.Lock()
	start, end := q.clock.Reserve(arrival, dur)
	buf.mu.Lock()
	copy(buf.data[req.Offset:], req.Data)
	buf.mu.Unlock()
	q.execMu.Unlock()

	q.stats.observeTransfer(modelBytes, q.dev.EnergyRate(), dur, end)
	prof := protocol.Profile{
		Queued: req.SimArrival, Submit: int64(arrival), Start: int64(start), End: int64(end),
	}
	ev.complete(prof)
	return &protocol.EventResp{EventID: ev.id, Profile: prof}, nil
}

func (s *Session) execReadBuffer(req *protocol.ReadBufferReq, q *queueObj, ev *eventObj, buf *bufferObj, waits []*eventObj) (protocol.Message, error) {
	// Bounds were validated at registration (see prepare).
	deadline, err := s.awaitDeadline(waits)
	if err != nil {
		return nil, s.failCommand(ev, err)
	}

	modelBytes := req.Size
	if req.ModelBytes > 0 {
		modelBytes = req.ModelBytes
	}
	arrival := vtime.Max(vtime.Time(req.SimArrival), deadline)
	dur := q.dev.ModelTransfer(modelBytes)
	q.execMu.Lock()
	start, end := q.clock.Reserve(arrival, dur)
	// A fresh copy, not the live buffer: the reply writer sends a bulk
	// response payload by reference.
	out := make([]byte, req.Size)
	buf.mu.RLock()
	copy(out, buf.data[req.Offset:req.Offset+req.Size])
	buf.mu.RUnlock()
	q.execMu.Unlock()

	q.stats.observeTransfer(modelBytes, q.dev.EnergyRate(), dur, end)
	prof := protocol.Profile{
		Queued: req.SimArrival, Submit: int64(arrival), Start: int64(start), End: int64(end),
	}
	ev.complete(prof)
	return &protocol.ReadBufferResp{Data: out, EventID: ev.id, Profile: prof}, nil
}

func (s *Session) execCopyBuffer(req *protocol.CopyBufferReq, q *queueObj, ev *eventObj, src, dst *bufferObj, waits []*eventObj) (protocol.Message, error) {
	// Bounds were validated at registration (see prepare).
	deadline, err := s.awaitDeadline(waits)
	if err != nil {
		return nil, s.failCommand(ev, err)
	}

	dur := q.dev.ModelTransfer(req.Size)
	q.execMu.Lock()
	start, end := q.clock.Reserve(deadline, dur)
	if src == dst {
		src.mu.Lock()
		copy(src.data[req.DstOffset:req.DstOffset+req.Size], src.data[req.SrcOffset:req.SrcOffset+req.Size])
		src.mu.Unlock()
	} else {
		// Lock both buffers in handle order: concurrent lanes may copy in
		// opposite directions (A→B and B→A), and unordered acquisition
		// would deadlock both lanes. The host's own event chaining avoids
		// the conflict, but the node must not rely on client behavior.
		first, second := src, dst
		if req.SrcID > req.DstID {
			first, second = dst, src
		}
		first.mu.Lock()
		//lint:ignore haoclvet/lockorder src and dst share one lock class; the handle comparison above is the deterministic tiebreak
		second.mu.Lock()
		//lint:ignore haoclvet/lockguard dst.mu is held via the handle-ordered first/second aliases locked above
		copy(dst.data[req.DstOffset:req.DstOffset+req.Size], src.data[req.SrcOffset:req.SrcOffset+req.Size])
		second.mu.Unlock()
		first.mu.Unlock()
	}
	q.execMu.Unlock()

	q.stats.observeTransfer(req.Size, q.dev.EnergyRate(), dur, end)
	prof := protocol.Profile{
		Queued: int64(deadline), Submit: int64(deadline), Start: int64(start), End: int64(end),
	}
	ev.complete(prof)
	return &protocol.EventResp{EventID: ev.id, Profile: prof}, nil
}

func (s *Session) handleBuildProgram(body []byte) (protocol.Message, error) {
	var req protocol.BuildProgramReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	ctx, err := s.node.objects.context(req.ContextID)
	if err != nil {
		return nil, err
	}
	prog, err := clc.Parse(req.Source)
	if err != nil {
		return nil, remoteErr(protocol.CodeBuildFailed, "build failed: %v", err)
	}
	// Build against every device in the context, concatenating per-device
	// logs as a vendor toolchain would.
	var log string
	for _, devID := range ctx.devices {
		dev, _, err := s.node.deviceByID(devID)
		if err != nil {
			return nil, err
		}
		devLog, err := dev.CheckProgram(prog)
		log += devLog
		if err != nil {
			return &protocol.BuildProgramResp{Log: log}, remoteErr(protocol.CodeBuildFailed, "%v", err)
		}
	}
	id := s.node.objects.putProgram(&programObj{prog: prog, log: log, source: req.Source})
	return &protocol.BuildProgramResp{ProgramID: id, Log: log, Kernels: prog.KernelNames()}, nil
}

func (s *Session) handleCreateKernel(body []byte) (protocol.Message, error) {
	var req protocol.CreateKernelReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	prog, err := s.node.objects.program(req.ProgramID)
	if err != nil {
		return nil, err
	}
	sig, ok := prog.prog.Kernel(req.Name)
	if !ok {
		return nil, remoteErr(protocol.CodeUnknownObject,
			"program %d has no kernel %q (has %v)", req.ProgramID, req.Name, prog.prog.KernelNames())
	}
	// Resolve the executable implementation from the first device; all
	// node devices share one registry.
	spec, err := s.node.devices[0].Kernels().Lookup(req.Name)
	if err != nil {
		return nil, remoteErr(protocol.CodeBuildFailed, "%v", err)
	}
	id := s.node.objects.putKernel(&kernelObj{name: req.Name, sig: sig, spec: spec})
	return &protocol.ObjectResp{ID: id}, nil
}

// buildLaunchArgs validates wire arguments against the kernel's parsed
// OpenCL C signature and resolves buffer handles to backing storage.
func (s *Session) buildLaunchArgs(k *kernelObj, wire []protocol.KernelArg) ([]kernel.Arg, error) {
	if len(wire) != len(k.sig.Params) {
		return nil, remoteErr(protocol.CodeLaunchFailed,
			"kernel %q takes %d args, got %d", k.name, len(k.sig.Params), len(wire))
	}
	args := make([]kernel.Arg, len(wire))
	for i, wa := range wire {
		param := k.sig.Params[i]
		switch wa.Kind {
		case protocol.ArgBuffer:
			if !param.Pointer || param.Space == clc.SpaceLocal {
				return nil, remoteErr(protocol.CodeLaunchFailed,
					"kernel %q arg %d (%s): buffer bound to non-buffer parameter", k.name, i, param.Name)
			}
			buf, err := s.node.objects.buffer(wa.BufferID)
			if err != nil {
				return nil, err
			}
			//lint:ignore haoclvet/lockguard the slice header is immutable; the bytes it names are ordered by the host's wait edges and the queue's in-order lane, not buf.mu
			args[i] = kernel.BufferArg(buf.data)
		case protocol.ArgScalar:
			if param.Pointer {
				return nil, remoteErr(protocol.CodeLaunchFailed,
					"kernel %q arg %d (%s): scalar bound to pointer parameter", k.name, i, param.Name)
			}
			if want := clc.ScalarSize(param.Type); want != 0 && want != len(wa.Scalar) {
				return nil, remoteErr(protocol.CodeLaunchFailed,
					"kernel %q arg %d (%s): %s wants %d bytes, got %d",
					k.name, i, param.Name, param.Type, want, len(wa.Scalar))
			}
			args[i] = kernel.Arg{Kind: kernel.ArgScalar, Data: wa.Scalar}
		case protocol.ArgLocal:
			if param.Space != clc.SpaceLocal {
				return nil, remoteErr(protocol.CodeLaunchFailed,
					"kernel %q arg %d (%s): local memory bound to non-local parameter", k.name, i, param.Name)
			}
			args[i] = kernel.LocalArg(int(wa.LocalLen))
		default:
			return nil, remoteErr(protocol.CodeBadRequest, "unknown arg kind %d", wa.Kind)
		}
	}
	return args, nil
}

func (s *Session) execEnqueueKernel(req *protocol.EnqueueKernelReq, q *queueObj, ev *eventObj, k *kernelObj, args []kernel.Arg, waits []*eventObj) (protocol.Message, error) {
	deadline, err := s.awaitDeadline(waits)
	if err != nil {
		return nil, s.failCommand(ev, err)
	}

	global := make([]int, len(req.Global))
	for i, g := range req.Global {
		global[i] = int(g)
	}
	local := make([]int, len(req.Local))
	for i, l := range req.Local {
		local[i] = int(l)
	}
	g3, _, err := kernel.NormalizeRange(global, local)
	if err != nil {
		return nil, s.failCommand(ev, remoteErr(protocol.CodeLaunchFailed, "%v", err))
	}

	cost := k.spec.CostOf(g3, args)
	if req.CostFlops > 0 || req.CostBytes > 0 {
		// Cost override models a paper-scale launch: occupancy derating
		// does not apply to the reduced functional NDRange, so Items is
		// left unset (full occupancy assumed at logical scale).
		cost = kernel.Cost{Flops: req.CostFlops, Bytes: req.CostBytes}
	}
	dur := q.dev.ModelKernel(cost)

	arrival := vtime.Max(vtime.Time(req.SimArrival), deadline)
	q.execMu.Lock()
	start, end := q.clock.Reserve(arrival, dur)
	execErr := q.dev.Execute(k.name, kernel.Launch{
		Global: global, Local: local, Args: args, Workers: s.node.execWorkers,
	})
	q.execMu.Unlock()
	if execErr != nil {
		return nil, s.failCommand(ev, remoteErr(protocol.CodeLaunchFailed, "kernel %q: %v", k.name, execErr))
	}

	q.stats.observeKernel(cost.Flops, cost.Bytes, dur, q.dev.EnergyRate(), end)
	prof := protocol.Profile{
		Queued: req.SimArrival, Submit: int64(arrival), Start: int64(start), End: int64(end),
	}
	ev.complete(prof)
	return &protocol.EventResp{EventID: ev.id, Profile: prof}, nil
}

func (s *Session) handleQueryEvent(body []byte) (protocol.Message, error) {
	var req protocol.QueryEventReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	s.mu.Lock()
	e := s.events[req.EventID]
	claimed := e != nil && e.claimed
	s.mu.Unlock()
	if !claimed {
		return nil, remoteErr(protocol.CodeUnknownObject, "unknown event %d", req.EventID)
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil, remoteErr(errCode(e.err), "event %d failed: %v", req.EventID, e.err)
		}
		return &protocol.QueryEventResp{Complete: true, Profile: e.profile}, nil
	default:
		// The command is still executing on its lane (impossible under the
		// old FIFO, where queries could only arrive after execution).
		return &protocol.QueryEventResp{Complete: false}, nil
	}
}

func (s *Session) handleRelease(body []byte) (protocol.Message, error) {
	var req protocol.ReleaseReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	if req.Kind == protocol.ObjEvent {
		s.mu.Lock()
		e, ok := s.events[req.ID]
		if ok && e.claimed {
			delete(s.events, req.ID)
			s.mu.Unlock()
			return &protocol.EmptyResp{}, nil
		}
		s.mu.Unlock()
		// Unclaimed placeholders (left by wait-list lookups) are not
		// releasable objects; double releases land here too.
		return nil, remoteErr(protocol.CodeUnknownObject, "release: unknown event %d", req.ID)
	}
	q, err := s.node.objects.release(req.Kind, req.ID)
	if err != nil {
		return nil, err
	}
	if q != nil {
		s.dropQueueUser(q)
		s.mu.Lock()
		delete(s.queues, req.ID)
		s.mu.Unlock()
		// The queue's lane dies with it (after draining what was already
		// registered); without this, every create/use/release cycle would
		// leak one parked worker goroutine for the session's lifetime.
		s.closeLane(s.laneKey(req.ID))
	}
	return &protocol.EmptyResp{}, nil
}

// closeLane retires one queue's lane after the queue is released: the
// worker drains the jobs that were registered before the release, then
// exits. The control lane (also the shared lane in single-lane mode) is
// never retired — it serves the whole session.
func (s *Session) closeLane(key uint64) {
	if key == controlLane {
		return
	}
	s.laneMu.Lock()
	ln := s.lanes[key]
	delete(s.lanes, key)
	s.laneMu.Unlock()
	if ln != nil {
		ln.close()
	}
}
