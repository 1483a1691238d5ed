package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/clc"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// Event is the host-side handle for an enqueued command. Commands are
// pipelined over the backbone: the enqueue call returns once the request
// is on the wire, carrying a host-assigned event ID that later commands
// may wait on immediately, and the event's profile resolves lazily when
// the node's response arrives. Wait, Profile and End are synchronization
// points; a command that failed remotely surfaces its error there and
// marks its queue's sticky error (see Queue.Finish).
type Event struct {
	dev      *DeviceRef
	remoteID uint64

	// Pipelined events carry the issuing queue, the in-flight future and
	// the response body it decodes into; events born resolved (reads, which
	// must block for their data anyway) leave pending nil.
	queue    *Queue
	pending  *transport.Pending
	resp     *protocol.EventResp
	isKernel bool

	// trace is the command's tracing record; nil when tracing was off at
	// issue time. The span tree is emitted in resolve, where the node's
	// profile is first known.
	trace *evTrace

	// gen is the recovery generation the event was issued under. After a
	// node loss, recovery bumps the runtime generation: older events are
	// never referenced on the wire again (their node-side records died with
	// the old cluster state) and their crash-induced failures are absolved
	// (the log replay re-established their effects).
	gen uint64

	once    sync.Once
	profile protocol.Profile
	err     error

	// released marks the remote event object freed (fire-and-forget). A
	// released event must not appear on the wire again: its node-side
	// record is gone, so a wait referencing it could never resolve.
	released atomic.Bool
}

// resolve consumes the command's response exactly once: on success it
// publishes the profile into the runtime metrics and monitor, on failure
// it records the error here and as the queue's sticky error.
func (e *Event) resolve() {
	e.once.Do(func() {
		if e.pending == nil {
			return // born resolved
		}
		sess := e.queue.ctx.sess
		defer sess.forgetEvent(e)
		defer e.queue.forget(e)
		if err := e.pending.Wait(); err != nil {
			// OnDown marks the handle dead before any pending future
			// unblocks, so a failure observed while the node is dead is
			// crash-induced — tag it retriable (recovery replays the work).
			if !e.dev.node.Alive() {
				err = &nodeLostError{cause: err}
			}
			e.err = fmt.Errorf("core: command on %s: %w", e.dev.key, err)
			e.queue.fail(e.err)
			return
		}
		e.profile = e.resp.Profile
		sess.observeProfile(e.dev.key, e.profile, e.isKernel)
		e.trace.emit(e.remoteID, e.profile)
	})
}

// Wait blocks until the command completed and reports its error, if any
// (clWaitForEvents). A crash-induced failure triggers recovery: the dead
// node's work is re-placed on survivors and the command log replayed, after
// which the failure is absolved — the event's effect was re-established, so
// the caller observes success. Genuine command failures report as before.
func (e *Event) Wait() error {
	err := e.waitErr()
	if err == nil || e.queue == nil {
		return err
	}
	rt := e.queue.ctx.rt
	if rt.shouldRecover(err) {
		if rerr := rt.Recover(); rerr != nil {
			return rerr
		}
	}
	if isNodeLost(err) && e.gen < rt.gen.Load() {
		return nil // recovery replayed the command's effect
	}
	return err
}

// waitErr resolves the event and reports its raw error without triggering
// recovery. Internal pipeline machinery (push watchers, recovery's own
// drain) must use this: recovering from inside recovery would deadlock on
// recoverMu.
func (e *Event) waitErr() error {
	e.resolve()
	return e.err
}

// Profile returns the event's virtual-time profiling info, waiting for the
// command's response if it is still in flight (clGetEventProfilingInfo).
// A failed command reports a zero profile; use Wait to observe the error.
func (e *Event) Profile() protocol.Profile {
	e.resolve()
	return e.profile
}

// End returns the event's virtual completion instant, waiting for the
// response if necessary.
func (e *Event) End() vtime.Time {
	e.resolve()
	return vtime.Time(e.profile.End)
}

// Device returns the device the command ran on (nil for floor events).
func (e *Event) Device() *DeviceRef { return e.dev }

// FloorEvent returns a pure virtual-time floor: an event born resolved at
// instant t, bound to no device, queue or session. Waiting on it costs
// nothing and folds into a command's arrival instant like any cross-node
// dependency. Open-loop load generators use it to model job arrival
// instants without wire traffic.
func FloorEvent(t vtime.Time) *Event {
	return &Event{profile: protocol.Profile{Start: int64(t), End: int64(t)}}
}

// Release frees the remote event object (clReleaseEvent). Long-running
// host programs release events they no longer wait on so node object
// tables stay bounded. The release rides the same ordered connection as
// the command that creates the event, so it needs no synchronization —
// and it is fire-and-forget: teardown releases objects in storms, so the
// acknowledgement is drained at the next Flush (or Close), where a
// failure surfaces as the runtime's sticky release error.
func (e *Event) Release(rt *Runtime) error {
	e.released.Store(true)
	if e.dev == nil {
		return nil // floor events own no remote record
	}
	sess := rt.defaultSession()
	if e.queue != nil {
		sess = e.queue.ctx.sess
	}
	sess.releaseAsync(e.dev.node, protocol.ObjEvent, e.remoteID)
	return nil
}

// splitWaits partitions a wait list into remote event IDs local to node and
// a virtual-time floor for events that completed on other nodes: a remote
// node cannot wait on another node's event object, so cross-node
// dependencies are folded into the command's arrival instant. Events from
// an older recovery generation never take the local-ID path — their
// node-side records died with the old cluster state, so they fold into the
// floor like cross-node events (a resolved event's floor is exact). Waiting
// on another session's event is refused with ErrCrossSession: event
// visibility is the namespace boundary.
func (s *Session) splitWaits(node *NodeHandle, waits []*Event) (local []int64, floor vtime.Time, err error) {
	gen := s.rt.gen.Load()
	for _, ev := range waits {
		if ev == nil {
			continue
		}
		if ev.queue != nil && ev.queue.ctx.sess != s {
			return nil, 0, fmt.Errorf("core: wait on event %d from tenant %q: %w",
				ev.remoteID, ev.queue.ctx.sess.tenant, ErrCrossSession)
		}
		if ev.dev == nil {
			// A floor event carries only its instant.
			if end := ev.End(); end > floor {
				floor = end
			}
			continue
		}
		if ev.dev.node == node && ev.gen == gen {
			if ev.released.Load() {
				// The node-side record is gone; a wire wait on it would
				// never resolve. The pre-lane runtime failed the same
				// sequence with "unknown event" — keep it fail-fast.
				return nil, 0, fmt.Errorf("core: wait list references released event %d", ev.remoteID)
			}
			local = append(local, int64(ev.remoteID))
		} else if end := ev.End(); end > floor {
			floor = end
		}
	}
	return local, floor, nil
}

// Context is a cluster-wide OpenCL context spanning devices on any number
// of nodes. One remote context is created on each involved node.
type Context struct {
	rt      *Runtime
	sess    *Session
	devices []*DeviceRef

	// remoteMu guards remote, the per-node context instance IDs. The map
	// is immutable between membership changes, but recovery deletes a dead
	// node's entry (stripDead) and rejoin re-adds it (restoreOn) while
	// other goroutines create objects, so every access goes through
	// remoteID/remoteSnapshot/setRemote/dropRemote. remoteMu is a leaf
	// lock: it is taken while holding mu, regMu, a Buffer's or Program's
	// mu, and never holds any other lock itself.
	remoteMu sync.Mutex
	remote   map[*NodeHandle]uint64 // guarded by remoteMu

	mu       sync.Mutex
	svcQueue map[*NodeHandle]*Queue // guarded by mu; hidden queues for buffer migration

	// regMu guards the object registries recovery walks to strip dead-node
	// state. It is separate from mu so CreateQueue can register while
	// serviceQueue holds mu; lock order is mu before regMu, never reversed.
	regMu    sync.Mutex
	queues   []*Queue   // guarded by regMu
	buffers  []*Buffer  // guarded by regMu
	programs []*Program // guarded by regMu
}

// CreateContext builds a context over the given devices
// (clCreateContext) in the default session. Devices may live on different
// nodes; that is the point of HaoCL.
func (rt *Runtime) CreateContext(devices []*DeviceRef) (*Context, error) {
	return rt.defaultSession().CreateContext(devices)
}

// CreateContext builds a context over the given devices inside this
// session's namespace: the remote contexts are tagged with the session's
// identity, and every object created from the context belongs to this
// tenant alone.
func (s *Session) CreateContext(devices []*DeviceRef) (*Context, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("core: session %q is closed", s.tenant)
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: context needs at least one device")
	}
	ctx := &Context{
		rt:       s.rt,
		sess:     s,
		devices:  devices,
		remote:   make(map[*NodeHandle]uint64),
		svcQueue: make(map[*NodeHandle]*Queue),
	}
	perNode := make(map[*NodeHandle][]int64)
	for _, d := range devices {
		perNode[d.node] = append(perNode[d.node], int64(d.info.ID))
	}
	for _, node := range sortedNodeKeys(perNode) {
		ids := perNode[node]
		var resp protocol.ObjectResp
		req := &protocol.CreateContextReq{DeviceIDs: ids, SessionID: s.id, Tenant: s.tenant}
		if err := s.call(node, req, &resp); err != nil {
			return nil, fmt.Errorf("core: create context on %q: %w", node.name, err)
		}
		ctx.setRemote(node, resp.ID)
	}
	s.ctxMu.Lock()
	s.contexts = append(s.contexts, ctx)
	s.ctxMu.Unlock()
	return ctx, nil
}

// remoteID returns the context's remote instance ID on node, if any.
func (c *Context) remoteID(node *NodeHandle) (uint64, bool) {
	c.remoteMu.Lock()
	defer c.remoteMu.Unlock()
	id, ok := c.remote[node]
	return id, ok
}

// remoteSnapshot copies the per-node instance map for lock-free iteration.
func (c *Context) remoteSnapshot() map[*NodeHandle]uint64 {
	c.remoteMu.Lock()
	defer c.remoteMu.Unlock()
	out := make(map[*NodeHandle]uint64, len(c.remote))
	for n, id := range c.remote {
		out[n] = id
	}
	return out
}

// setRemote records the context's remote instance on node (creation and
// rejoin restore).
func (c *Context) setRemote(node *NodeHandle, id uint64) {
	c.remoteMu.Lock()
	c.remote[node] = id
	c.remoteMu.Unlock()
}

// dropRemote forgets the context's remote instance on a dead node.
func (c *Context) dropRemote(node *NodeHandle) {
	c.remoteMu.Lock()
	delete(c.remote, node)
	c.remoteMu.Unlock()
}

// allQueues snapshots the context's queue registry (user and service
// queues alike).
func (c *Context) allQueues() []*Queue {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	return append([]*Queue(nil), c.queues...)
}

// checkQueuesClean reports the first sticky error latched on any of the
// context's queues — recovery's post-replay verification.
func (c *Context) checkQueuesClean() error {
	for _, q := range c.allQueues() {
		q.drain()
		if err := q.stickyErr(); err != nil {
			return err
		}
	}
	return nil
}

// Devices returns the context's devices.
func (c *Context) Devices() []*DeviceRef { return c.devices }

// Runtime returns the owning runtime.
func (c *Context) Runtime() *Runtime { return c.rt }

// Session returns the session whose namespace the context lives in.
func (c *Context) Session() *Session { return c.sess }

// deviceOnNode finds one context device hosted by node.
func (c *Context) deviceOnNode(node *NodeHandle) (*DeviceRef, bool) {
	for _, d := range c.devices {
		if d.node == node {
			return d, true
		}
	}
	return nil, false
}

// serviceQueue lazily creates the hidden migration queue for a node.
func (c *Context) serviceQueue(node *NodeHandle) (*Queue, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.svcQueue[node]; ok {
		return q, nil
	}
	dev, ok := c.deviceOnNode(node)
	if !ok {
		return nil, fmt.Errorf("core: context has no device on node %q", node.name)
	}
	q, err := c.CreateQueue(dev)
	if err != nil {
		return nil, err
	}
	c.svcQueue[node] = q
	return q, nil
}

// Queue is an in-order command queue bound to one device
// (clCreateCommandQueue with profiling enabled). Enqueue operations are
// pipelined: they return without waiting for the node's response, and the
// queue's sticky error records the first command failure so it surfaces at
// the next synchronization point (Finish, or Wait on an event), matching
// OpenCL's in-order queue semantics.
type Queue struct {
	ctx *Context

	mu sync.Mutex
	// dev and remoteID are the queue's node binding; recovery re-points
	// them when the node dies (rebindQueue), so concurrent enqueues must
	// snapshot them through binding() rather than read the fields raw.
	dev         *DeviceRef          // guarded by mu
	remoteID    uint64              // guarded by mu
	outstanding map[*Event]struct{} // guarded by mu
	err         error               // guarded by mu; sticky: first pipelined command failure
}

// binding snapshots the queue's current node binding. An operation reads
// it once and works against that snapshot: if recovery re-binds the queue
// mid-flight, the operation fails with a crash-classified error and its
// public wrapper retries against the new binding.
func (q *Queue) binding() (*DeviceRef, uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dev, q.remoteID
}

// track registers a pipelined command with the queue and runtime so the
// synchronization points can drain it, stamping the event with the current
// recovery generation.
func (q *Queue) track(ev *Event) {
	ev.gen = q.ctx.rt.gen.Load()
	q.mu.Lock()
	if q.outstanding == nil {
		q.outstanding = make(map[*Event]struct{})
	}
	q.outstanding[ev] = struct{}{}
	q.mu.Unlock()
	q.ctx.sess.trackEvent(ev)
}

func (q *Queue) forget(ev *Event) {
	q.mu.Lock()
	delete(q.outstanding, ev)
	q.mu.Unlock()
}

// fail records the queue's first command failure.
func (q *Queue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
}

// stickyErr reports the queue's first failure, if any. Enqueues on a
// failed queue refuse immediately with that error.
func (q *Queue) stickyErr() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// drain resolves every outstanding pipelined command on the queue.
func (q *Queue) drain() {
	q.mu.Lock()
	evs := drainList(q.outstanding)
	q.mu.Unlock()
	for _, e := range evs {
		e.resolve()
	}
}

// drainList snapshots a pending-event set in deterministic order: by
// owning node, then host-assigned event ID — issue order. Resolution
// order decides which failure latches into a sticky error slot first, so
// it must not follow map iteration. The caller holds whatever mutex
// guards set.
func drainList(set map[*Event]struct{}) []*Event {
	evs := make([]*Event, 0, len(set))
	for e := range set {
		evs = append(evs, e)
	}
	sort.Slice(evs, func(i, j int) bool {
		if ni, nj := evs[i].dev.node.name, evs[j].dev.node.name; ni != nj {
			return ni < nj
		}
		return evs[i].remoteID < evs[j].remoteID
	})
	return evs
}

// sortedNodeKeys returns m's keys in node-name order. Every loop that
// issues wire traffic per node must walk this instead of the map, so the
// frame sequence — and with it every virtual-time booking — is identical
// across runs.
func sortedNodeKeys[V any](m map[*NodeHandle]V) []*NodeHandle {
	nodes := make([]*NodeHandle, 0, len(m))
	for n := range m {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].name < nodes[j].name })
	return nodes
}

// CreateQueue creates a command queue on dev.
func (c *Context) CreateQueue(dev *DeviceRef) (*Queue, error) {
	ctxID, ok := c.remoteID(dev.node)
	if !ok {
		return nil, fmt.Errorf("core: device %s is not in this context", dev.key)
	}
	var resp protocol.ObjectResp
	err := c.sess.call(dev.node, &protocol.CreateQueueReq{
		ContextID: ctxID,
		DeviceID:  dev.info.ID,
		Profiling: true,
	}, &resp)
	if err != nil {
		return nil, fmt.Errorf("core: create queue on %s: %w", dev.key, err)
	}
	q := &Queue{ctx: c, dev: dev, remoteID: resp.ID}
	c.regMu.Lock()
	c.queues = append(c.queues, q)
	c.regMu.Unlock()
	return q, nil
}

// Device returns the queue's device.
func (q *Queue) Device() *DeviceRef {
	dev, _ := q.binding()
	return dev
}

// Finish drains the queue's pipeline and returns its virtual completion
// instant (clFinish). It is the queue's primary synchronization point: all
// in-flight responses are consumed, and the first failure of any pipelined
// command on the queue — including one whose enqueue call returned nil —
// is reported here. A crash-induced failure triggers recovery and a
// retry: node loss is retriable, only genuine command failures stick.
func (q *Queue) Finish() (vtime.Time, error) {
	var t vtime.Time
	err := q.ctx.rt.withRecovery(func() error {
		var ferr error
		t, ferr = q.finish()
		return ferr
	})
	return t, err
}

// finish is the non-recovering Finish internal.
func (q *Queue) finish() (vtime.Time, error) {
	q.drain()
	if err := q.stickyErr(); err != nil {
		return 0, err
	}
	dev, qid := q.binding()
	var resp protocol.FinishQueueResp
	if err := q.ctx.sess.call(dev.node, &protocol.FinishQueueReq{QueueID: qid}, &resp); err != nil {
		return 0, fmt.Errorf("core: finish queue on %s: %w", dev.key, err)
	}
	t := vtime.Time(resp.SimTime)
	q.ctx.sess.observeMakespan(t)
	return t, nil
}

// Release frees the remote queue object. Like every release it is
// fire-and-forget, drained at the next Flush/Close; it rides the ordered
// connection behind the queue's in-flight commands, which keep executing
// (they resolved the queue at dispatch), but new commands enqueued after
// a Release are refused by the node.
func (q *Queue) Release() error {
	dev, qid := q.binding()
	q.ctx.sess.releaseAsync(dev.node, protocol.ObjQueue, qid)
	return nil
}

// remoteBuf tracks one node's replica of a buffer. valid is the set of
// byte ranges whose replica bytes hold current data — a partial write
// validates exactly the written range, an overlapping writer elsewhere
// invalidates exactly the overlap (DESIGN.md §5). lastEvent chains the
// replica's most recent writer: because event IDs are host-assigned at
// issue time, a dependent command can be pipelined behind the writer
// without waiting for the writer's response.
type remoteBuf struct {
	id        uint64
	valid     mem.RangeSet
	lastEvent uint64 // event ID of the last write, for ordering
	lastEv    *Event // the chained event itself, to detect released chains
}

// Buffer is a cluster-wide memory object (clCreateBuffer). The host keeps a
// shadow copy plus per-node replicas with range-aware write-invalidate
// coherence: writing a range on one device invalidates that range on the
// others, and using the buffer on a different node triggers an automatic
// delta migration over the backbone that moves only the stale ranges — the
// "complex inter-node data transfer schemes" of paper §III-C.
type Buffer struct {
	ctx  *Context
	size int64
	// modelSize is the buffer's logical size in the timing model; it
	// defaults to size and is raised by SetModelSize when the functional
	// payload is a scaled-down stand-in for a paper-scale input.
	modelSize int64 // guarded by mu

	mu   sync.Mutex
	host []byte // guarded by mu
	// hostValid is the set of byte ranges of the host shadow holding
	// current data. The coherence invariant: every byte range that was
	// ever written is valid on the host or on at least one replica at all
	// times (ranges never written read as zeros, deterministically).
	hostValid   mem.RangeSet               // guarded by mu
	hostReadyAt vtime.Time                 // guarded by mu
	remote      map[*NodeHandle]*remoteBuf // guarded by mu
	released    bool                       // guarded by mu
}

// CreateBuffer allocates a buffer of the given size.
func (c *Context) CreateBuffer(size int64) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: invalid buffer size %d", size)
	}
	b := &Buffer{
		ctx:       c,
		size:      size,
		modelSize: size,
		remote:    make(map[*NodeHandle]*remoteBuf),
	}
	c.regMu.Lock()
	c.buffers = append(c.buffers, b)
	c.regMu.Unlock()
	return b, nil
}

// isReleased reports whether the buffer was released; the command log
// skips replaying mutations of released buffers.
func (b *Buffer) isReleased() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.released
}

// Size returns the buffer's size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// SetModelSize declares the buffer's logical size for the timing model.
// All transfer charges scale by modelSize/size, so a functional 1 MiB
// stand-in for a logical 256 MiB matrix is charged as 256 MiB on the wire.
func (b *Buffer) SetModelSize(modelSize int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if modelSize > 0 {
		b.modelSize = modelSize
	}
}

// ModelSize returns the buffer's logical size.
func (b *Buffer) ModelSize() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.modelSize
}

// scaled converts an actual byte count to its logical-model equivalent.
// Caller holds b.mu.
func (b *Buffer) scaled(n int64) int64 {
	if b.modelSize == b.size {
		return n
	}
	return int64(float64(n) * float64(b.modelSize) / float64(b.size))
}

// remoteOn lazily allocates the buffer's replica on a node.
// Caller holds b.mu.
func (b *Buffer) remoteOn(node *NodeHandle) (*remoteBuf, error) {
	if b.released {
		return nil, fmt.Errorf("core: buffer was released")
	}
	if rb, ok := b.remote[node]; ok {
		return rb, nil
	}
	ctxID, ok := b.ctx.remoteID(node)
	if !ok {
		return nil, fmt.Errorf("core: context spans no device on node %q", node.name)
	}
	var resp protocol.ObjectResp
	err := b.ctx.sess.call(node, &protocol.CreateBufferReq{ContextID: ctxID, Size: b.size}, &resp)
	if err != nil {
		return nil, fmt.Errorf("core: allocate buffer on %q: %w", node.name, err)
	}
	rb := &remoteBuf{id: resp.ID}
	b.remote[node] = rb
	return rb, nil
}

// Release frees the buffer's remote replicas on every node that holds one
// (clReleaseMemObject). The releases are fire-and-forget, drained at the
// next Flush/Close; commands already pipelined against a replica keep
// executing, because nodes resolve a command's objects when it is
// registered, before the release arrives behind it. The host shadow is
// dropped too — the buffer is unusable afterwards.
func (b *Buffer) Release() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, node := range sortedNodeKeys(b.remote) {
		b.ctx.sess.releaseAsync(node, protocol.ObjBuffer, b.remote[node].id)
	}
	b.remote = make(map[*NodeHandle]*remoteBuf)
	b.host = nil
	b.hostValid.Reset()
	b.released = true
	return nil
}

// hostRangeOK validates the byte range [off, off+n) against a buffer of
// size bytes without ever computing off+n: a caller-supplied offset near
// MaxInt64 would wrap the sum negative and slip past a naive bound check
// (the node applies the same overflow-safe rule at registration).
func hostRangeOK(off, n, size int64) bool {
	return off >= 0 && n >= 0 && off <= size && n <= size-off
}

// wirePayload copies a host-shadow range into a write payload. The
// transport sends a bulk payload by reference until its frame is written,
// and later writes update the shadow in place, so the shadow itself is
// never handed over.
func wirePayload(shadow []byte) []byte { return append([]byte(nil), shadow...) }

// EnqueueWrite transfers data into the buffer through q's device
// (clEnqueueWriteBuffer). The host shadow is updated and exactly the
// written byte range is validated there and on the target replica — and
// invalidated on every other replica; the transfer is charged to the host
// NIC model. The command is pipelined: the call returns once the request
// is on the wire, and the returned event resolves when the node responds.
// data is copied before the call returns, so the caller may reuse it at
// once. A crash-induced failure recovers and retries transparently.
func (q *Queue) EnqueueWrite(b *Buffer, offset int64, data []byte, waits ...*Event) (*Event, error) {
	var ev *Event
	err := q.ctx.rt.withRecovery(func() error {
		var werr error
		ev, werr = q.enqueueWrite(b, offset, data, waits...)
		return werr
	})
	return ev, err
}

// enqueueWrite is the non-recovering EnqueueWrite internal; replay drives
// it directly.
func (q *Queue) enqueueWrite(b *Buffer, offset int64, data []byte, waits ...*Event) (*Event, error) {
	if err := q.stickyErr(); err != nil {
		return nil, err
	}
	if b.ctx.sess != q.ctx.sess {
		return nil, fmt.Errorf("core: write to buffer of tenant %q: %w", b.ctx.sess.tenant, ErrCrossSession)
	}
	if !hostRangeOK(offset, int64(len(data)), b.size) {
		return nil, fmt.Errorf("core: write range at offset %d of %d bytes out of bounds (buffer %d bytes)",
			offset, len(data), b.size)
	}
	dev, qid := q.binding()
	node := dev.node
	end := offset + int64(len(data))
	b.mu.Lock()
	defer b.mu.Unlock()

	// Every fallible step runs before any buffer state mutates: a write
	// whose replica allocation or wait list fails must not leave the host
	// shadow claiming data the cluster never received.
	rb, err := b.remoteOn(node)
	if err != nil {
		return nil, err
	}
	localWaits, floor, err := q.ctx.sess.splitWaits(node, waits)
	if err != nil {
		return nil, err
	}
	chain, err := rb.chainWaits()
	if err != nil {
		return nil, err
	}

	// Update the host shadow: the written range now holds current data.
	if b.host == nil {
		b.host = make([]byte, b.size)
	}
	copy(b.host[offset:], data)
	b.hostValid.Add(offset, end)

	localWaits = append(localWaits, chain...)
	modelBytes := b.scaled(int64(len(data)))
	earliest := vtime.Max(b.hostReadyAt, floor)
	wireStart, arrival := q.ctx.sess.chargeNIC(earliest, controlMsgBytes+modelBytes)

	// The session-log copy is also the wire payload: the transport sends a
	// bulk payload by reference, so it must be memory the caller cannot
	// touch, and the log never modifies its copy.
	logged := append([]byte(nil), data...)
	resp := new(protocol.EventResp)
	id, pend := q.ctx.sess.issue(node, &protocol.WriteBufferReq{
		QueueID:    qid,
		BufferID:   rb.id,
		Offset:     offset,
		Data:       logged,
		SimArrival: int64(arrival),
		ModelBytes: modelBytes,
		WaitEvents: localWaits,
	}, resp)
	ev := &Event{dev: dev, remoteID: id, queue: q, pending: pend, resp: resp,
		trace: q.ctx.sess.traceCmd(trace.KindWrite, dev, qid, modelBytes, wireStart, arrival)}
	q.track(ev)

	// Coherence at issue time (wire order is event-ID order): this node and
	// the host now hold the written range; other replicas lose exactly the
	// overlap. A partial write onto a stale replica must NOT validate the
	// unwritten remainder — those bytes still hold old data, and reading
	// them back here would expose stale content (the pre-range runtime's
	// whole-replica flag did exactly that).
	for other, orb := range b.remote {
		if other != node {
			orb.valid.Remove(offset, end)
		}
	}
	rb.valid.Add(offset, end)
	rb.lastEvent = id
	rb.lastEv = ev
	// Log under b.mu so the log order matches the issue order per buffer.
	q.ctx.sess.logCommand(&writeLog{q: q, b: b, off: offset, data: logged})
	return ev, nil
}

// ensureResident makes the byte range [lo, hi) of the buffer valid on
// node, migrating stale ranges from the host shadow or from owning
// replicas as needed. Caller holds b.mu. It returns the replica; any
// subsequent command on node chains behind rb.lastEvent as usual.
//
// Migration is a delta: only the Gaps of the replica's valid set within
// [lo, hi) travel, each as its own ranged command charged per-range
// through the virtual-time model (MigrateFull widens the request to the
// whole buffer, restoring the pre-range behavior for comparison). In the
// default MigrateDelta mode owner-covered ranges move directly node→node
// (see migrateP2P); MigrateHostRelay keeps the pre-p2p data path below:
// pulls from owners block for their data like any read, pushes to node are
// pipelined through the context's hidden service queue, so the consumer
// command that triggered the migration waits on the final push's event ID
// without a round trip.
func (b *Buffer) ensureResident(node *NodeHandle, lo, hi int64) (*remoteBuf, error) {
	rb, err := b.remoteOn(node)
	if err != nil {
		return nil, err
	}
	mode := b.ctx.sess.migrationMode()
	full := mode == MigrateFull
	if full {
		lo, hi = 0, b.size
	}
	gaps := rb.valid.Gaps(lo, hi)
	if len(gaps) == 0 {
		return rb, nil
	}
	if full {
		// Pre-range semantics: any staleness re-migrates the whole
		// replica, not just the stale ranges.
		gaps = []mem.Range{{Lo: 0, Hi: b.size}}
	}

	if mode == MigrateDelta {
		if err := b.migrateP2P(node, rb, gaps); err != nil {
			return nil, err
		}
		return rb, nil
	}

	// Host-relay path (MigrateFull, MigrateHostRelay): refresh the host
	// shadow over the stale ranges first, then push from it.
	if err := b.refreshHost(gaps); err != nil {
		return nil, err
	}

	svc, err := b.ctx.serviceQueue(node)
	if err != nil {
		return nil, err
	}
	if err := svc.stickyErr(); err != nil {
		return nil, err
	}
	chain, err := rb.chainWaits()
	if err != nil {
		return nil, err
	}
	// Snapshot the service queue's binding once: recovery may re-bind it
	// mid-loop, and a torn read (old queue ID, new device) would charge the
	// wrong lane. A stale snapshot fails crash-classified and is retried.
	svcDev, svcQID := svc.binding()
	for _, g := range gaps {
		modelBytes := b.scaled(g.Len())
		wireStart, arrival := b.ctx.sess.chargeNIC(b.hostReadyAt, controlMsgBytes+modelBytes)
		resp := new(protocol.EventResp)
		id, pend := b.ctx.sess.issue(node, &protocol.WriteBufferReq{
			QueueID:    svcQID,
			BufferID:   rb.id,
			Offset:     g.Lo,
			Data:       wirePayload(b.host[g.Lo:g.Hi]),
			SimArrival: int64(arrival),
			ModelBytes: modelBytes,
			WaitEvents: chain,
		}, resp)
		pushEv := &Event{dev: svcDev, remoteID: id, queue: svc, pending: pend, resp: resp,
			trace: b.ctx.sess.traceCmd(trace.KindMigrate, svcDev, 0, modelBytes, wireStart, arrival)}
		svc.track(pushEv)
		rb.valid.Add(g.Lo, g.Hi)
		// The pushes ride one in-order service queue, so chaining the
		// consumer behind the last push orders it behind all of them.
		rb.lastEvent = id
		rb.lastEv = pushEv
	}
	return rb, nil
}

// refreshHost makes the host shadow valid over the given ranges, pulling
// each host-stale sub-range from a replica that holds it.
// Caller holds b.mu.
func (b *Buffer) refreshHost(ranges []mem.Range) error {
	if b.host == nil {
		b.host = make([]byte, b.size)
	}
	for _, r := range ranges {
		for _, gap := range b.hostValid.Gaps(r.Lo, r.Hi) {
			if err := b.pullRange(gap); err != nil {
				return err
			}
		}
	}
	return nil
}

// pullRange fetches one host-stale range from whichever replicas hold
// parts of it valid, using the shared planOwners cover. Sub-ranges valid
// nowhere were never written: the zero bytes already in the shadow are
// their content (uninitialized OpenCL buffers read deterministically as
// zeros), so they validate without a transfer. Caller holds b.mu.
func (b *Buffer) pullRange(gap mem.Range) error {
	plan, leftover := b.planOwners(gap)
	for _, ps := range plan {
		if err := b.pullFrom(ps.node, ps.rb, ps.r); err != nil {
			return err
		}
	}
	for _, p := range leftover {
		b.hostValid.Add(p.Lo, p.Hi)
	}
	return nil
}

// pullFrom reads one valid range of owner's replica back into the host
// shadow. The pull is pipelined behind the owner's pending writes (the
// wait on lastEvent), but the host must block for the data.
// Caller holds b.mu.
func (b *Buffer) pullFrom(owner *NodeHandle, orb *remoteBuf, r mem.Range) error {
	svc, err := b.ctx.serviceQueue(owner)
	if err != nil {
		return err
	}
	ownerChain, err := orb.chainWaits()
	if err != nil {
		return err
	}
	svcDev, svcQID := svc.binding()
	modelBytes := b.scaled(r.Len())
	wireStart, arrival := b.ctx.sess.chargeNIC(0, controlMsgBytes)
	var resp protocol.ReadBufferResp
	id, pend := b.ctx.sess.issue(owner, &protocol.ReadBufferReq{
		QueueID:    svcQID,
		BufferID:   orb.id,
		Offset:     r.Lo,
		Size:       r.Len(),
		SimArrival: int64(arrival),
		ModelBytes: modelBytes,
		WaitEvents: ownerChain,
	}, &resp)
	if err := pend.Wait(); err != nil {
		// Classify before wrapping so withRecovery's retry decision sees
		// node loss even though the error detours through this message.
		return fmt.Errorf("core: migrate buffer range [%d,%d) from %q: %w",
			r.Lo, r.Hi, owner.name, classifyNodeErr(owner, err))
	}
	// Response data crosses the backbone back to the host.
	_, hostArrival := b.ctx.sess.chargeNICIn(vtime.Time(resp.Profile.End), controlMsgBytes+modelBytes)
	copy(b.host[r.Lo:r.Hi], resp.Data)
	b.hostValid.Add(r.Lo, r.Hi)
	if hostArrival > b.hostReadyAt {
		b.hostReadyAt = hostArrival
	}
	b.ctx.sess.observeProfile(svcDev.key, resp.Profile, false)
	// The pull blocked for its data, so its span tree is emitted here.
	b.ctx.sess.traceCmd(trace.KindPull, svcDev, 0, modelBytes, wireStart, arrival).
		emitIn(id, resp.Profile, hostArrival)
	return nil
}

// chainWaits returns the wait-list entry for the replica's last writer.
// Reusing a buffer whose chained event was released is refused: the
// node-side record is gone, so a wire wait on it could never resolve (the
// pre-lane runtime failed the same sequence with "unknown event"; release
// events only after the buffer's chain has quiesced at a sync point).
func (rb *remoteBuf) chainWaits() ([]int64, error) {
	if rb.lastEvent == 0 {
		return nil, nil
	}
	if rb.lastEv != nil && rb.lastEv.released.Load() {
		return nil, fmt.Errorf("core: buffer chain references released event %d (quiesce with Finish/Flush before releasing chained events)", rb.lastEvent)
	}
	return []int64{int64(rb.lastEvent)}, nil
}

// EnqueueRead transfers buffer contents back to the host
// (clEnqueueReadBuffer), returning the data and the completion event. The
// read is issued through the pipeline — it rides behind any in-flight
// commands it depends on without waiting for their responses — but the
// call itself blocks until the data arrives, making it a natural
// synchronization point for the buffer's command chain.
func (q *Queue) EnqueueRead(b *Buffer, offset, size int64, waits ...*Event) ([]byte, *Event, error) {
	var data []byte
	var ev *Event
	err := q.ctx.rt.withRecovery(func() error {
		var rerr error
		data, ev, rerr = q.enqueueRead(b, offset, size, waits...)
		return rerr
	})
	return data, ev, err
}

// enqueueRead is the non-recovering EnqueueRead internal. Reads are not
// logged: they do not mutate contents.
func (q *Queue) enqueueRead(b *Buffer, offset, size int64, waits ...*Event) ([]byte, *Event, error) {
	if err := q.stickyErr(); err != nil {
		return nil, nil, err
	}
	if b.ctx.sess != q.ctx.sess {
		return nil, nil, fmt.Errorf("core: read from buffer of tenant %q: %w", b.ctx.sess.tenant, ErrCrossSession)
	}
	if !hostRangeOK(offset, size, b.size) {
		return nil, nil, fmt.Errorf("core: read range at offset %d of %d bytes out of bounds (buffer %d bytes)",
			offset, size, b.size)
	}
	dev, qid := q.binding()
	node := dev.node
	b.mu.Lock()
	defer b.mu.Unlock()

	// Only the read range needs to be resident: delta migration fetches
	// and pushes exactly the stale sub-ranges.
	rb, err := b.ensureResident(node, offset, offset+size)
	if err != nil {
		return nil, nil, err
	}
	localWaits, floor, err := q.ctx.sess.splitWaits(node, waits)
	if err != nil {
		return nil, nil, err
	}
	chain, err := rb.chainWaits()
	if err != nil {
		return nil, nil, err
	}
	localWaits = append(localWaits, chain...)
	modelBytes := b.scaled(size)
	wireStart, arrival := q.ctx.sess.chargeNIC(floor, controlMsgBytes)

	var resp protocol.ReadBufferResp
	id, pend := q.ctx.sess.issue(node, &protocol.ReadBufferReq{
		QueueID:    qid,
		BufferID:   rb.id,
		Offset:     offset,
		Size:       size,
		SimArrival: int64(arrival),
		ModelBytes: modelBytes,
		WaitEvents: localWaits,
	}, &resp)
	if err := pend.Wait(); err != nil {
		return nil, nil, fmt.Errorf("core: read buffer on %s: %w", dev.key, classifyNodeErr(node, err))
	}
	// The payload crosses the backbone to the host, freshening the host
	// shadow over exactly the range it carried.
	_, hostArrival := q.ctx.sess.chargeNICIn(vtime.Time(resp.Profile.End), controlMsgBytes+modelBytes)

	if b.host == nil {
		b.host = make([]byte, b.size)
	}
	copy(b.host[offset:], resp.Data)
	b.hostValid.Add(offset, offset+size)
	if hostArrival > b.hostReadyAt {
		b.hostReadyAt = hostArrival
	}
	prof := resp.Profile
	q.ctx.sess.observeProfile(dev.key, prof, false)
	q.ctx.sess.observeMakespan(hostArrival)
	// The read blocked for its data, so its span tree is emitted here.
	q.ctx.sess.traceCmd(trace.KindRead, dev, qid, modelBytes, wireStart, arrival).
		emitIn(id, prof, hostArrival)
	// The event is born resolved: the read blocked for its response. It
	// carries the issuing queue so Release and the cross-session wait check
	// can find its owner (resolve is a no-op: pending is nil).
	return resp.Data, &Event{dev: dev, remoteID: id, queue: q, profile: prof, gen: q.ctx.rt.gen.Load()}, nil
}

// EnqueueCopy copies size bytes between two buffers on q's device
// (clEnqueueCopyBuffer). Both buffers are made resident on the node first;
// the copy happens device-side with no backbone traffic.
func (q *Queue) EnqueueCopy(src, dst *Buffer, srcOffset, dstOffset, size int64, waits ...*Event) (*Event, error) {
	var ev *Event
	err := q.ctx.rt.withRecovery(func() error {
		var cerr error
		ev, cerr = q.enqueueCopy(src, dst, srcOffset, dstOffset, size, waits...)
		return cerr
	})
	return ev, err
}

// enqueueCopy is the non-recovering EnqueueCopy internal; replay drives it
// directly.
func (q *Queue) enqueueCopy(src, dst *Buffer, srcOffset, dstOffset, size int64, waits ...*Event) (*Event, error) {
	if err := q.stickyErr(); err != nil {
		return nil, err
	}
	if src.ctx.sess != q.ctx.sess {
		return nil, fmt.Errorf("core: copy from buffer of tenant %q: %w", src.ctx.sess.tenant, ErrCrossSession)
	}
	if dst.ctx.sess != q.ctx.sess {
		return nil, fmt.Errorf("core: copy into buffer of tenant %q: %w", dst.ctx.sess.tenant, ErrCrossSession)
	}
	if !hostRangeOK(srcOffset, size, src.size) || !hostRangeOK(dstOffset, size, dst.size) {
		return nil, fmt.Errorf("core: copy range out of bounds")
	}
	if src == dst {
		return nil, fmt.Errorf("core: copy within one buffer is not supported")
	}
	dev, qid := q.binding()
	node := dev.node

	// Lock in address order to avoid deadlock with concurrent copies.
	first, second := src, dst
	if fmt.Sprintf("%p", first) > fmt.Sprintf("%p", second) {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	//lint:ignore haoclvet/lockorder src and dst share one lock class; the address comparison above is the deterministic tiebreak
	second.mu.Lock()
	defer second.mu.Unlock()

	srcRB, err := src.ensureResident(node, srcOffset, srcOffset+size)
	if err != nil {
		return nil, err
	}
	dstRB, err := dst.remoteOn(node)
	if err != nil {
		return nil, err
	}
	localWaits, floor, err := q.ctx.sess.splitWaits(node, waits)
	if err != nil {
		return nil, err
	}
	srcChain, err := srcRB.chainWaits()
	if err != nil {
		return nil, err
	}
	dstChain, err := dstRB.chainWaits()
	if err != nil {
		return nil, err
	}
	localWaits = append(localWaits, srcChain...)
	localWaits = append(localWaits, dstChain...)
	_ = floor // device-side op: cross-node deps already folded into srcRB

	resp := new(protocol.EventResp)
	id, pend := q.ctx.sess.issue(node, &protocol.CopyBufferReq{
		QueueID:    qid,
		SrcID:      srcRB.id,
		DstID:      dstRB.id,
		SrcOffset:  srcOffset,
		DstOffset:  dstOffset,
		Size:       size,
		WaitEvents: localWaits,
	}, resp)
	ev := &Event{dev: dev, remoteID: id, queue: q, pending: pend, resp: resp,
		trace: q.ctx.sess.traceCmd(trace.KindCopy, dev, qid, size, 0, 0)}
	q.track(ev)
	// Anti-dependency on the source: a later writer of this replica — a
	// same-node kernel on another queue, say — must wait until the copy has
	// read it, or the copy would observe the later write's bytes (the push
	// paths chain the same way; deep pipelines, like recovery replay, hit
	// this window).
	srcRB.lastEvent = id
	srcRB.lastEv = ev
	// This node's replica is now the only valid holder of the copied
	// range; validity outside it is untouched everywhere.
	dstEnd := dstOffset + size
	//lint:ignore haoclvet/lockguard dst.mu is held via the address-ordered first/second aliases locked above
	for other, orb := range dst.remote {
		if other != node {
			orb.valid.Remove(dstOffset, dstEnd)
		}
	}
	//lint:ignore haoclvet/lockguard dst.mu is held via the address-ordered first/second aliases locked above
	dst.hostValid.Remove(dstOffset, dstEnd)
	dstRB.valid.Add(dstOffset, dstEnd)
	dstRB.lastEvent = id
	dstRB.lastEv = ev
	q.ctx.sess.logCommand(&copyLog{q: q, src: src, dst: dst, srcOff: srcOffset, dstOff: dstOffset, size: size})
	return ev, nil
}

// Program is OpenCL program source plus its per-node builds. The host
// parses the source locally with the same front end the nodes use, so arg
// validation and written-buffer analysis happen without a round trip.
type Program struct {
	ctx    *Context
	source string
	parsed *clc.Program

	mu      sync.Mutex
	remote  map[*NodeHandle]uint64 // guarded by mu
	log     string                 // guarded by mu
	built   bool                   // guarded by mu
	kernels []*Kernel              // guarded by mu
}

// CreateProgram parses source and returns an unbuilt program
// (clCreateProgramWithSource).
func (c *Context) CreateProgram(source string) (*Program, error) {
	parsed, err := clc.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := &Program{
		ctx:    c,
		source: source,
		parsed: parsed,
		remote: make(map[*NodeHandle]uint64),
	}
	c.regMu.Lock()
	c.programs = append(c.programs, p)
	c.regMu.Unlock()
	return p, nil
}

// Build compiles the program on every node in the context (clBuildProgram).
func (p *Program) Build() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.built {
		return nil
	}
	snap := p.ctx.remoteSnapshot()
	for _, node := range sortedNodeKeys(snap) {
		var resp protocol.BuildProgramResp
		err := p.ctx.sess.call(node, &protocol.BuildProgramReq{
			ContextID: snap[node],
			Source:    p.source,
		}, &resp)
		p.log += resp.Log
		if err != nil {
			return fmt.Errorf("core: build on %q: %w", node.name, err)
		}
		p.remote[node] = resp.ProgramID
	}
	p.built = true
	return nil
}

// BuildLog returns the accumulated build logs.
func (p *Program) BuildLog() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log
}

// KernelNames lists kernels found in the source.
func (p *Program) KernelNames() []string { return p.parsed.KernelNames() }

// argBinding is one argument set by SetArg, pending until launch.
type argBinding struct {
	kind     protocol.ArgKind
	buf      *Buffer
	scalar   []byte
	localLen int64
}

// Kernel is one kernel instantiated from a program (clCreateKernel). Its
// remote instances are created lazily on each node it launches on.
type Kernel struct {
	prog *Program
	name string
	sig  *clc.Kernel

	mu       sync.Mutex
	remote   map[*NodeHandle]uint64 // guarded by mu
	args     []argBinding           // guarded by mu
	released bool                   // guarded by mu
}

// CreateKernel instantiates the named kernel.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	p.mu.Lock()
	built := p.built
	p.mu.Unlock()
	if !built {
		return nil, fmt.Errorf("core: program must be built before creating kernel %q", name)
	}
	sig, ok := p.parsed.Kernel(name)
	if !ok {
		return nil, fmt.Errorf("core: program has no kernel %q (has %v)", name, p.KernelNames())
	}
	k := &Kernel{
		prog:   p,
		name:   name,
		sig:    sig,
		remote: make(map[*NodeHandle]uint64),
		args:   make([]argBinding, len(sig.Params)),
	}
	p.mu.Lock()
	p.kernels = append(p.kernels, k)
	p.mu.Unlock()
	return k, nil
}

// isReleased reports whether the kernel was released; the command log
// skips replaying launches of released kernels.
func (k *Kernel) isReleased() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.released
}

// Name returns the kernel's name.
func (k *Kernel) Name() string { return k.name }

// NumArgs returns the kernel's parameter count.
func (k *Kernel) NumArgs() int { return len(k.sig.Params) }

// SetArg binds argument index to value (clSetKernelArg). Accepted values:
// *Buffer for global/constant pointer parameters, LocalSpace for local
// pointer parameters, and fixed-size scalars (int, int32, uint32, int64,
// uint64, float32, float64, []byte) for by-value parameters.
func (k *Kernel) SetArg(index int, value any) error {
	if index < 0 || index >= len(k.sig.Params) {
		return fmt.Errorf("core: kernel %q has no arg %d (takes %d)", k.name, index, len(k.sig.Params))
	}
	param := k.sig.Params[index]
	var binding argBinding
	switch v := value.(type) {
	case *Buffer:
		if !param.Pointer || param.Space == clc.SpaceLocal {
			return fmt.Errorf("core: kernel %q arg %d (%s): buffer bound to non-buffer parameter",
				k.name, index, param.Name)
		}
		binding = argBinding{kind: protocol.ArgBuffer, buf: v}
	case LocalSpace:
		if param.Space != clc.SpaceLocal {
			return fmt.Errorf("core: kernel %q arg %d (%s): local memory bound to non-local parameter",
				k.name, index, param.Name)
		}
		if v <= 0 {
			return fmt.Errorf("core: kernel %q arg %d: local size must be positive", k.name, index)
		}
		binding = argBinding{kind: protocol.ArgLocal, localLen: int64(v)}
	default:
		if param.Pointer {
			return fmt.Errorf("core: kernel %q arg %d (%s): scalar bound to pointer parameter",
				k.name, index, param.Name)
		}
		scalar := kernel.EncodeScalar(value)
		if want := clc.ScalarSize(param.Type); want != 0 && want != len(scalar) {
			return fmt.Errorf("core: kernel %q arg %d (%s): %s wants %d bytes, got %d",
				k.name, index, param.Name, param.Type, want, len(scalar))
		}
		binding = argBinding{kind: protocol.ArgScalar, scalar: scalar}
	}
	k.mu.Lock()
	k.args[index] = binding
	k.mu.Unlock()
	return nil
}

// LocalSpace requests n bytes of per-work-group local memory when passed to
// SetArg.
type LocalSpace int64

// remoteOn lazily instantiates the kernel on a node.
func (k *Kernel) remoteOn(node *NodeHandle) (uint64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.released {
		return 0, fmt.Errorf("core: kernel %q was released", k.name)
	}
	if id, ok := k.remote[node]; ok {
		return id, nil
	}
	k.prog.mu.Lock()
	progID, ok := k.prog.remote[node]
	k.prog.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("core: program not built on node %q", node.name)
	}
	var resp protocol.ObjectResp
	err := k.prog.ctx.sess.call(node, &protocol.CreateKernelReq{ProgramID: progID, Name: k.name}, &resp)
	if err != nil {
		return 0, fmt.Errorf("core: create kernel %q on %q: %w", k.name, node.name, err)
	}
	k.remote[node] = resp.ID
	return resp.ID, nil
}

// Release frees the kernel's remote instances on every node that created
// one (clReleaseKernel), fire-and-forget like every release; the kernel is
// unusable afterwards — a later launch refuses instead of silently
// recreating the remote instances.
func (k *Kernel) Release() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, node := range sortedNodeKeys(k.remote) {
		k.prog.ctx.sess.releaseAsync(node, protocol.ObjKernel, k.remote[node])
	}
	k.remote = make(map[*NodeHandle]uint64)
	k.released = true
	return nil
}

// LaunchOptions tune one EnqueueKernel call.
type LaunchOptions struct {
	// CostFlops/CostBytes override the kernel's cost model, letting the
	// experiment harness model paper-scale inputs while executing
	// functionally on reduced data (DESIGN.md §1).
	CostFlops int64
	CostBytes int64
}

// EnqueueKernel launches the kernel over the NDRange on q's device
// (clEnqueueNDRangeKernel). Buffer arguments are migrated to the device's
// node as needed; written buffers (non-const global pointers in the
// kernel's signature) invalidate other replicas. The launch is pipelined:
// the call returns once the request — and any migration writes it depends
// on — are on the wire, without a round trip.
func (q *Queue) EnqueueKernel(k *Kernel, global, local []int, waits []*Event, opts *LaunchOptions) (*Event, error) {
	// Snapshot the argument bindings before the retry loop: a SetArg racing
	// the recovery retry must not leak into the replayed launch.
	k.mu.Lock()
	bindings := make([]argBinding, len(k.args))
	copy(bindings, k.args)
	k.mu.Unlock()

	var ev *Event
	err := q.ctx.rt.withRecovery(func() error {
		var kerr error
		ev, kerr = q.enqueueKernelBound(k, bindings, global, local, waits, opts)
		return kerr
	})
	return ev, err
}

// enqueueKernelBound is the non-recovering EnqueueKernel internal, taking
// the argument bindings as an explicit snapshot so the command log can
// replay the launch exactly as issued.
func (q *Queue) enqueueKernelBound(k *Kernel, bindings []argBinding, global, local []int, waits []*Event, opts *LaunchOptions) (*Event, error) {
	if err := q.stickyErr(); err != nil {
		return nil, err
	}
	if k.prog.ctx.sess != q.ctx.sess {
		return nil, fmt.Errorf("core: launch kernel %q of tenant %q: %w",
			k.name, k.prog.ctx.sess.tenant, ErrCrossSession)
	}
	dev, qid := q.binding()
	node := dev.node
	remoteKernel, err := k.remoteOn(node)
	if err != nil {
		return nil, err
	}

	localWaits, floor, err := q.ctx.sess.splitWaits(node, waits)
	if err != nil {
		return nil, err
	}
	wireArgs := make([]protocol.KernelArg, len(bindings))
	var msgBytes int64 = controlMsgBytes
	var written []*Buffer
	for i, bind := range bindings {
		param := k.sig.Params[i]
		switch bind.kind {
		case protocol.ArgBuffer:
			if bind.buf.ctx.sess != q.ctx.sess {
				return nil, fmt.Errorf("core: kernel %q arg %d: buffer of tenant %q: %w",
					k.name, i, bind.buf.ctx.sess.tenant, ErrCrossSession)
			}
			bind.buf.mu.Lock()
			// A kernel may touch any byte of its buffer arguments, so the
			// whole replica must be resident (delta migration still moves
			// only the stale ranges of it).
			rb, err := bind.buf.ensureResident(node, 0, bind.buf.size)
			if err != nil {
				bind.buf.mu.Unlock()
				return nil, fmt.Errorf("core: kernel %q arg %d: %w", k.name, i, err)
			}
			chain, err := rb.chainWaits()
			if err != nil {
				bind.buf.mu.Unlock()
				return nil, fmt.Errorf("core: kernel %q arg %d: %w", k.name, i, err)
			}
			localWaits = append(localWaits, chain...)
			wireArgs[i] = protocol.KernelArg{Kind: protocol.ArgBuffer, BufferID: rb.id}
			if param.Pointer && !param.Const && param.Space != clc.SpaceConstant {
				written = append(written, bind.buf)
			}
			bind.buf.mu.Unlock()
		case protocol.ArgScalar:
			wireArgs[i] = protocol.KernelArg{Kind: protocol.ArgScalar, Scalar: bind.scalar}
			msgBytes += int64(len(bind.scalar))
		case protocol.ArgLocal:
			wireArgs[i] = protocol.KernelArg{Kind: protocol.ArgLocal, LocalLen: bind.localLen}
		default:
			return nil, fmt.Errorf("core: kernel %q arg %d (%s) was never set", k.name, i, param.Name)
		}
	}

	wireStart, arrival := q.ctx.sess.chargeNIC(floor, msgBytes)
	req := &protocol.EnqueueKernelReq{
		QueueID:    qid,
		KernelID:   remoteKernel,
		Global:     toInt64s(global),
		Local:      toInt64s(local),
		Args:       wireArgs,
		SimArrival: int64(arrival),
		WaitEvents: localWaits,
	}
	if opts != nil {
		req.CostFlops = opts.CostFlops
		req.CostBytes = opts.CostBytes
	}
	resp := new(protocol.EventResp)
	id, pend := q.ctx.sess.issue(node, req, resp)
	ev := &Event{dev: dev, remoteID: id, queue: q, pending: pend, resp: resp, isKernel: true,
		trace: q.ctx.sess.traceCmd(trace.KindKernel, dev, qid, msgBytes, wireStart, arrival)}
	q.track(ev)

	// Written-buffer coherence at issue time. The monotonic guard keeps a
	// concurrent later-issued writer's chain intact: event IDs are assigned
	// in wire order, so a smaller ID must never overwrite a larger one.
	for _, b := range written {
		b.mu.Lock()
		// A kernel may write any byte, so the launch node's replica —
		// fully resident since arg setup above — becomes the only valid
		// holder of the whole buffer.
		for other, orb := range b.remote {
			if other != node {
				orb.valid.Reset()
			}
		}
		b.hostValid.Reset()
		if rb := b.remote[node]; rb != nil {
			rb.valid.Add(0, b.size)
			if id > rb.lastEvent {
				rb.lastEvent = id
				rb.lastEv = ev
			}
		}
		b.mu.Unlock()
	}
	var optsCopy *LaunchOptions
	if opts != nil {
		o := *opts
		optsCopy = &o
	}
	q.ctx.sess.logCommand(&kernelLog{
		q:        q,
		k:        k,
		bindings: bindings,
		global:   append([]int(nil), global...),
		local:    append([]int(nil), local...),
		opts:     optsCopy,
	})
	return ev, nil
}

func toInt64s(vs []int) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	return out
}
