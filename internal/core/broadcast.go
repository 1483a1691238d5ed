package core

import (
	"fmt"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// broadcastChunkBytes is the pipelining granularity of chain broadcasts:
// once a node has received the first chunk it starts forwarding to the next
// node, so each additional hop adds one chunk's latency rather than a full
// retransmission.
const broadcastChunkBytes = 8 << 20

// hopDelay models the pipeline fill per chain hop.
func hopDelay(modelBytes int64) vtime.Duration {
	chunk := modelBytes
	if chunk > broadcastChunkBytes {
		chunk = broadcastChunkBytes
	}
	secs := float64(chunk) / sim.GigabitBytesPerSec
	return vtime.Duration(secs*1e9) + 150*time.Microsecond
}

// Broadcast writes data into b on every queue's node using a pipelined
// node-to-node chain: the host sends one copy over its NIC to the first
// node, which forwards chunks to the second while still receiving, and so
// on. Completion at hop i trails hop i-1 by one chunk, so distributing to n
// nodes costs one transfer plus n-1 pipeline fills instead of n full
// transfers through the host NIC — one of the "complex inter-node data
// transfer schemes" the backbone implements (paper §III-C).
//
// In the default MigrateDelta mode the chain is real: hop 0 receives the
// payload from the host, and every later hop receives it from its
// predecessor through a PushRange/AwaitPush pair riding the node links —
// the host only issues control frames. DepartAt carries the host-planned
// cut-through instant, so forwarding overlaps the predecessor's device
// write exactly as the hopDelay arithmetic models. In MigrateHostRelay
// (and MigrateFull) every hop keeps the pre-p2p shape: data functionally
// crosses the host in each hop's WriteBuffer while only the virtual-time
// charging follows the chain.
//
// Either way the hop arrival instants are computed host-side, so every hop
// is issued through the async path without waiting for any response:
// fan-out to n nodes costs zero round trips instead of n. The returned
// events resolve as the nodes answer. A crash-induced failure recovers
// and retries transparently.
func (c *Context) Broadcast(b *Buffer, data []byte, queues []*Queue) ([]*Event, error) {
	var events []*Event
	err := c.rt.withRecovery(func() error {
		var berr error
		events, berr = c.broadcast(b, data, queues)
		return berr
	})
	return events, err
}

// broadcast is the non-recovering Broadcast internal; replay drives it
// directly.
func (c *Context) broadcast(b *Buffer, data []byte, queues []*Queue) ([]*Event, error) {
	if len(queues) == 0 {
		return nil, fmt.Errorf("core: broadcast needs at least one queue")
	}
	if int64(len(data)) != b.size {
		return nil, fmt.Errorf("core: broadcast needs full buffer contents (%d bytes, got %d)",
			b.size, len(data))
	}
	if b.ctx.sess != c.sess {
		return nil, fmt.Errorf("core: broadcast into buffer of tenant %q: %w", b.ctx.sess.tenant, ErrCrossSession)
	}
	// One hop per distinct node, in queue order.
	seen := make(map[*NodeHandle]bool, len(queues))
	hops := make([]*Queue, 0, len(queues))
	for _, q := range queues {
		if q.ctx.sess != c.sess {
			return nil, fmt.Errorf("core: broadcast through queue of tenant %q: %w", q.ctx.sess.tenant, ErrCrossSession)
		}
		dev, _ := q.binding()
		if !seen[dev.node] {
			seen[dev.node] = true
			hops = append(hops, q)
		}
	}

	b.mu.Lock()
	defer b.mu.Unlock()

	// Validate every hop up front — sticky queue errors, replica
	// allocation (a synchronous call that can fail), chain integrity —
	// before mutating any buffer state. Failing mid-loop would strand the
	// buffer half-broadcast: host shadow updated and earlier hops issued,
	// later replicas still holding (and still marked with) old data.
	p2p := c.sess.migrationMode() == MigrateDelta
	type hop struct {
		q      *Queue
		dev    *DeviceRef // q's binding, snapshotted once for the whole plan
		qid    uint64
		rb     *remoteBuf
		chain  []int64
		svc    *Queue // p2p: forwarding source lane (all but the last hop)
		svcDev *DeviceRef
		svcID  uint64
	}
	plan := make([]hop, 0, len(hops))
	for i, q := range hops {
		if err := q.stickyErr(); err != nil {
			return nil, err
		}
		dev, qid := q.binding()
		rb, err := b.remoteOn(dev.node)
		if err != nil {
			return nil, err
		}
		chain, err := rb.chainWaits()
		if err != nil {
			return nil, err
		}
		h := hop{q: q, dev: dev, qid: qid, rb: rb, chain: chain}
		if p2p && i < len(hops)-1 {
			// Forwarding rides the node's single service lane so link
			// bookings stay totally ordered; created here because it is a
			// fallible round trip and must not fail mid-loop.
			svc, err := c.serviceQueue(dev.node)
			if err != nil {
				return nil, err
			}
			if err := svc.stickyErr(); err != nil {
				return nil, err
			}
			h.svc = svc
			h.svcDev, h.svcID = svc.binding()
		}
		plan = append(plan, h)
	}

	if b.host == nil {
		b.host = make([]byte, b.size)
	}
	copy(b.host, data)
	// The session-log copy is also every hop's wire payload (see
	// enqueueWrite): the caller keeps its slice.
	logged := append([]byte(nil), data...)
	b.hostValid.Reset()
	b.hostValid.Add(0, b.size)

	events := make([]*Event, 0, len(plan))
	var prevArrival vtime.Time
	var prevID uint64
	for i, h := range plan {
		node := h.dev.node
		var arrival vtime.Time
		var wireStart vtime.Time // hop payload departure, for the wire span
		var id uint64
		var ev *Event
		if i == 0 || !p2p {
			if i == 0 {
				// First hop crosses the host NIC.
				wireStart, arrival = c.sess.chargeNIC(b.hostReadyAt, controlMsgBytes+b.modelSize)
			} else {
				// Chain hop: previous node forwards over its own link.
				wireStart, arrival = prevArrival, prevArrival.Add(hopDelay(b.modelSize))
			}
			resp := new(protocol.EventResp)
			var pend *transport.Pending
			id, pend = c.sess.issue(node, &protocol.WriteBufferReq{
				QueueID:    h.qid,
				BufferID:   h.rb.id,
				Offset:     0,
				Data:       logged,
				SimArrival: int64(arrival),
				ModelBytes: b.modelSize,
				WaitEvents: h.chain,
			}, resp)
			ev = &Event{dev: h.dev, remoteID: id, queue: h.q, pending: pend, resp: resp,
				trace: c.sess.traceCmd(trace.KindBroadcast, h.dev, h.qid, b.modelSize, wireStart, arrival)}
		} else {
			// Chain hop over the node links: the previous node forwards
			// the buffer it just received, cut through at DepartAt.
			prev := plan[i-1]
			wireStart, arrival = prevArrival, prevArrival.Add(hopDelay(b.modelSize))
			token := c.rt.nextPushToken()
			pushCtrlStart, pushCtrl := c.sess.chargeNIC(0, controlMsgBytes)
			pushResp := new(protocol.EventResp)
			pushID, pushPend := c.sess.issue(prev.dev.node, &protocol.PushRangeReq{
				QueueID:      prev.svcID,
				BufferID:     prev.rb.id,
				PeerName:     node.name,
				PeerBufferID: h.rb.id,
				Token:        token,
				Offset:       0,
				Size:         b.size,
				SimArrival:   int64(pushCtrl),
				DepartAt:     int64(prevArrival),
				ModelBytes:   b.modelSize,
				// Functional edge only: the forward must not read the
				// replica before the previous hop's receive has copied the
				// data in. Virtual timing ignores it — DepartAt models the
				// cut-through overlap with that device write.
				WaitEvents: []int64{int64(prevID)},
			}, pushResp)
			pushEv := &Event{dev: prev.svcDev, remoteID: pushID, queue: prev.svc, pending: pushPend, resp: pushResp,
				trace: c.sess.traceCmd(trace.KindPushRange, prev.svcDev, 0, b.modelSize, pushCtrlStart, pushCtrl)}
			prev.svc.track(pushEv)
			// Anti-dependency: a later write to the forwarder's replica
			// waits for the forward to have read it.
			prev.rb.lastEvent = pushID
			prev.rb.lastEv = pushEv

			_, awaitCtrl := c.sess.chargeNIC(0, controlMsgBytes)
			resp := new(protocol.EventResp)
			var pend *transport.Pending
			id, pend = c.sess.issue(node, &protocol.AwaitPushReq{
				QueueID:    h.qid,
				BufferID:   h.rb.id,
				Token:      token,
				Offset:     0,
				Size:       b.size,
				SimArrival: int64(awaitCtrl),
				ModelBytes: b.modelSize,
				WaitEvents: h.chain,
			}, resp)
			// The hop's wire span is the peer-link flight [prevArrival,
			// arrival], not the tiny control frame.
			ev = &Event{dev: h.dev, remoteID: id, queue: h.q, pending: pend, resp: resp,
				trace: c.sess.traceCmd(trace.KindBroadcast, h.dev, h.qid, b.modelSize, wireStart, arrival)}
			c.sess.chargePeer(b.modelSize)
			c.rt.watchPush(node.client.Load(), token, pushEv)
		}
		prevArrival = arrival
		prevID = id

		h.q.track(ev)
		h.rb.valid.Reset()
		h.rb.valid.Add(0, b.size)
		h.rb.lastEvent = id
		h.rb.lastEv = ev
		events = append(events, ev)
	}

	// Replicas on nodes outside the hop set now hold stale data in full:
	// a later consumer there must re-migrate from the fresh host shadow
	// instead of reading the pre-broadcast bytes.
	for node, orb := range b.remote {
		if !seen[node] {
			orb.valid.Reset()
		}
	}
	c.sess.logCommand(&broadcastLog{
		c:    c,
		b:    b,
		data: logged,
		qs:   append([]*Queue(nil), queues...),
	})
	return events, nil
}
