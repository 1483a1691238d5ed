package protocol

import (
	"errors"
	"fmt"
)

// Op identifies the remote operation a request frame carries. Each op
// corresponds to one OpenCL API call forwarded by the wrapper library, plus
// a handful of session-management operations the paper's NMP handles
// (hello/handshake, status for the resource monitor, shutdown).
type Op uint16

// Operation codes. The numbering is part of the wire protocol; append only.
const (
	OpHello Op = iota + 1
	OpGetDeviceInfos
	OpCreateContext
	OpCreateQueue
	OpCreateBuffer
	OpWriteBuffer
	OpReadBuffer
	OpCopyBuffer
	OpBuildProgram
	OpCreateKernel
	OpEnqueueKernel
	OpFinishQueue
	OpQueryEvent
	OpRelease
	OpNodeStatus
	OpShutdown
	OpError // response-only: carries a remote error string
	OpBatch // wire v3: envelope op carried by FrameBatch frames
	// Peer-to-peer data plane (host-planned node→node transfers).
	OpPushRange  // host→source node: ship a buffer range to a named peer
	OpPeerPush   // source node→peer node: the data deposit itself
	OpAwaitPush  // host→destination node: receive a deposited range
	OpCancelPush // host→destination node: abort a pending rendezvous
)

var opNames = map[Op]string{
	OpHello:          "Hello",
	OpGetDeviceInfos: "GetDeviceInfos",
	OpCreateContext:  "CreateContext",
	OpCreateQueue:    "CreateQueue",
	OpCreateBuffer:   "CreateBuffer",
	OpWriteBuffer:    "WriteBuffer",
	OpReadBuffer:     "ReadBuffer",
	OpCopyBuffer:     "CopyBuffer",
	OpBuildProgram:   "BuildProgram",
	OpCreateKernel:   "CreateKernel",
	OpEnqueueKernel:  "EnqueueKernel",
	OpFinishQueue:    "FinishQueue",
	OpQueryEvent:     "QueryEvent",
	OpRelease:        "Release",
	OpNodeStatus:     "NodeStatus",
	OpShutdown:       "Shutdown",
	OpError:          "Error",
	OpBatch:          "Batch",
	OpPushRange:      "PushRange",
	OpPeerPush:       "PeerPush",
	OpAwaitPush:      "AwaitPush",
	OpCancelPush:     "CancelPush",
}

// String names the op for logs and errors.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint16(o))
}

// Message is the interface implemented by every protocol message body.
type Message interface {
	// Op reports which operation this message belongs to.
	Op() Op
	// MarshalBody appends the message to the encoder.
	MarshalBody(e *Encoder)
	// UnmarshalBody decodes the message from the decoder.
	UnmarshalBody(d *Decoder)
}

// DeviceType mirrors the OpenCL device-type bitfield restricted to the
// hardware classes HaoCL manages.
type DeviceType uint8

// Device types.
const (
	DeviceCPU DeviceType = iota + 1
	DeviceGPU
	DeviceFPGA
)

// String names the device type as in clinfo output.
func (t DeviceType) String() string {
	switch t {
	case DeviceCPU:
		return "CPU"
	case DeviceGPU:
		return "GPU"
	case DeviceFPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("DeviceType(%d)", uint8(t))
	}
}

// DeviceInfo describes one device exported by a node, combining the fields
// clGetDeviceInfo exposes with the performance-model parameters the
// heterogeneity-aware scheduler consumes (paper §I: "a scheduler requires
// device model and run-time information").
type DeviceInfo struct {
	ID               uint32
	Type             DeviceType
	Name             string
	Vendor           string
	ComputeUnits     uint32
	ClockMHz         uint32
	GlobalMemBytes   int64
	MaxWorkGroupSize int64
	// Shared reports whether multiple users may hold the device at once
	// (paper §III-D: the NMP receives a shared flag with each request).
	Shared bool

	// Performance-model parameters.
	PeakGFLOPS float64 // sustained arithmetic throughput, GFLOP/s
	MemBWGBps  float64 // device memory bandwidth, GB/s
	TDPWatts   float64 // board power for the energy model
}

func (i *DeviceInfo) marshal(e *Encoder) {
	e.U32(i.ID)
	e.U8(uint8(i.Type))
	e.Str(i.Name)
	e.Str(i.Vendor)
	e.U32(i.ComputeUnits)
	e.U32(i.ClockMHz)
	e.I64(i.GlobalMemBytes)
	e.I64(i.MaxWorkGroupSize)
	e.Bool(i.Shared)
	e.F64(i.PeakGFLOPS)
	e.F64(i.MemBWGBps)
	e.F64(i.TDPWatts)
}

func (i *DeviceInfo) unmarshal(d *Decoder) {
	i.ID = d.U32()
	i.Type = DeviceType(d.U8())
	i.Name = d.Str()
	i.Vendor = d.Str()
	i.ComputeUnits = d.U32()
	i.ClockMHz = d.U32()
	i.GlobalMemBytes = d.I64()
	i.MaxWorkGroupSize = d.I64()
	i.Shared = d.Bool()
	i.PeakGFLOPS = d.F64()
	i.MemBWGBps = d.F64()
	i.TDPWatts = d.F64()
}

// Profile carries the four OpenCL event-profiling timestamps, in virtual
// nanoseconds (clGetEventProfilingInfo equivalents): Queued is the
// command's arrival at the node (SimArrival), Submit the instant its wire
// waits resolved and it entered the device lane, Start the instant the
// device began executing it, End its completion. Queued ≤ Submit ≤ Start
// ≤ End for lane-executed commands; [Queued,Submit] is
// registration/dependency wait, [Submit,Start] device queue wait,
// [Start,End] the busy interval — the split the host-side tracer renders
// as child spans. Cut-through forwarding pushes are the one exception:
// their planned departure (Submit = Start = DepartAt) may precede the
// control frame's booked arrival (Queued).
type Profile struct {
	Queued int64
	Submit int64
	Start  int64
	End    int64
}

func (p *Profile) marshal(e *Encoder) {
	e.I64(p.Queued)
	e.I64(p.Submit)
	e.I64(p.Start)
	e.I64(p.End)
}

func (p *Profile) unmarshal(d *Decoder) {
	p.Queued = d.I64()
	p.Submit = d.I64()
	p.Start = d.I64()
	p.End = d.I64()
}

// DurationNS reports the modeled execution span (END-START) in nanoseconds.
func (p *Profile) DurationNS() int64 { return p.End - p.Start }

// ArgKind tags one kernel argument in an EnqueueKernel request.
type ArgKind uint8

// Argument kinds: a device buffer handle, an inline scalar value, or a
// request for per-work-group local memory (clSetKernelArg with nil pointer).
const (
	ArgBuffer ArgKind = iota + 1
	ArgScalar
	ArgLocal
)

// KernelArg is one bound kernel argument, as set by clSetKernelArg and
// shipped with the launch message.
type KernelArg struct {
	Kind     ArgKind
	BufferID uint64 // ArgBuffer: remote buffer handle
	Scalar   []byte // ArgScalar: raw little-endian value bytes
	LocalLen int64  // ArgLocal: bytes of local memory per work-group
}

func (a *KernelArg) marshal(e *Encoder) {
	e.U8(uint8(a.Kind))
	e.U64(a.BufferID)
	e.Blob(a.Scalar)
	e.I64(a.LocalLen)
}

func (a *KernelArg) unmarshal(d *Decoder) {
	a.Kind = ArgKind(d.U8())
	a.BufferID = d.U64()
	a.Scalar = d.Blob()
	a.LocalLen = d.I64()
}

// --- Session management -----------------------------------------------

// PeerAddr names one cluster node and the address its NMP listens on. The
// host ships the full topology with Hello so nodes can dial each other
// directly for peer-to-peer transfers.
type PeerAddr struct {
	Name string
	Addr string
}

// HelloReq opens a session with a node. The user identity travels with the
// session so the NMP can enforce shared-device policies per user.
type HelloReq struct {
	UserID      string
	ClientName  string
	WireVersion uint32
	// Peers lists every cluster node's listen address so this node can
	// dial siblings for PushRange traffic. Appended after the v3 fields;
	// requests from older hosts lack it and decode as nil (the node then
	// rejects PushRange commands instead of data-plane traffic hanging).
	Peers []PeerAddr
	// Epoch is the host's membership generation. It starts at 1 and is
	// bumped on every node death or (re)join; a repeat Hello on a live
	// session with a higher epoch tells the node to adopt the new peer
	// list, drop pooled peer connections, and cancel parked push
	// rendezvous (their counterpart may be gone). Appended after Peers;
	// requests from older hosts decode as 0, which never triggers the
	// membership-change path.
	Epoch uint64
}

// Op implements Message.
func (*HelloReq) Op() Op { return OpHello }

// MarshalBody implements Message.
func (m *HelloReq) MarshalBody(e *Encoder) {
	e.Str(m.UserID)
	e.Str(m.ClientName)
	e.U32(m.WireVersion)
	e.U32(uint32(len(m.Peers)))
	for i := range m.Peers {
		e.Str(m.Peers[i].Name)
		e.Str(m.Peers[i].Addr)
	}
	e.U64(m.Epoch)
}

// UnmarshalBody implements Message.
func (m *HelloReq) UnmarshalBody(d *Decoder) {
	m.UserID = d.Str()
	m.ClientName = d.Str()
	m.WireVersion = d.U32()
	if d.Err() != nil || d.Remaining() < 4 {
		return // pre-p2p request without the peer list
	}
	n := int(d.U32())
	if !d.Need(n) {
		return
	}
	if n > 0 {
		m.Peers = make([]PeerAddr, n)
		for i := range m.Peers {
			m.Peers[i].Name = d.Str()
			m.Peers[i].Addr = d.Str()
		}
	}
	if d.Err() == nil && d.Remaining() >= 8 {
		m.Epoch = d.U64() // pre-fault-tolerance requests lack the field
	}
}

// HelloResp acknowledges a session and advertises the node's devices.
type HelloResp struct {
	NodeName string
	Devices  []DeviceInfo
	// WireVersion is the protocol version the node negotiated for this
	// session: min(host's offered version, node's own). The host enables
	// Batch coalescing only when it is at least VersionBatch. The field
	// was appended in v3; responses from v2 nodes lack it and decode as
	// MinVersion.
	WireVersion uint32
	// BootID identifies this incarnation of the node process. A restarted
	// node reports a fresh BootID, letting the host distinguish "same
	// process, repeated Hello" (epoch bump) from "new process at the same
	// address" (all prior replicas and objects are gone). Appended after
	// WireVersion; responses from older nodes decode as 0.
	BootID uint64
}

// Op implements Message.
func (*HelloResp) Op() Op { return OpHello }

// MarshalBody implements Message.
func (m *HelloResp) MarshalBody(e *Encoder) {
	e.Str(m.NodeName)
	e.U32(uint32(len(m.Devices)))
	for i := range m.Devices {
		m.Devices[i].marshal(e)
	}
	e.U32(m.WireVersion)
	e.U64(m.BootID)
}

// UnmarshalBody implements Message.
func (m *HelloResp) UnmarshalBody(d *Decoder) {
	m.NodeName = d.Str()
	n := int(d.U32())
	if !d.Need(n) {
		return
	}
	m.Devices = make([]DeviceInfo, n)
	for i := range m.Devices {
		m.Devices[i].unmarshal(d)
	}
	if d.Err() == nil && d.Remaining() >= 4 {
		m.WireVersion = d.U32()
	} else if d.Err() == nil {
		m.WireVersion = MinVersion // pre-v3 response without the field
	}
	if d.Err() == nil && d.Remaining() >= 8 {
		m.BootID = d.U64() // pre-fault-tolerance response without the field
	}
}

// GetDeviceInfosReq re-queries the device list (clGetDeviceIDs forwarding:
// the wrapper lib sends a device-ID request to every node and records the
// returned mapping, paper §III-C).
type GetDeviceInfosReq struct {
	TypeMask uint8 // bitwise OR of 1<<DeviceType values; 0 means all
}

// Op implements Message.
func (*GetDeviceInfosReq) Op() Op { return OpGetDeviceInfos }

// MarshalBody implements Message.
func (m *GetDeviceInfosReq) MarshalBody(e *Encoder) { e.U8(m.TypeMask) }

// UnmarshalBody implements Message.
func (m *GetDeviceInfosReq) UnmarshalBody(d *Decoder) { m.TypeMask = d.U8() }

// GetDeviceInfosResp lists matching devices.
type GetDeviceInfosResp struct {
	Devices []DeviceInfo
}

// Op implements Message.
func (*GetDeviceInfosResp) Op() Op { return OpGetDeviceInfos }

// MarshalBody implements Message.
func (m *GetDeviceInfosResp) MarshalBody(e *Encoder) {
	e.U32(uint32(len(m.Devices)))
	for i := range m.Devices {
		m.Devices[i].marshal(e)
	}
}

// UnmarshalBody implements Message.
func (m *GetDeviceInfosResp) UnmarshalBody(d *Decoder) {
	n := int(d.U32())
	if !d.Need(n) {
		return
	}
	m.Devices = make([]DeviceInfo, n)
	for i := range m.Devices {
		m.Devices[i].unmarshal(d)
	}
}

// --- Object lifecycle ---------------------------------------------------

// ObjectKind tags a remote object handle for Release.
type ObjectKind uint8

// Remote object kinds.
const (
	ObjContext ObjectKind = iota + 1
	ObjQueue
	ObjBuffer
	ObjProgram
	ObjKernel
	ObjEvent
)

// String names the object kind.
func (k ObjectKind) String() string {
	switch k {
	case ObjContext:
		return "context"
	case ObjQueue:
		return "queue"
	case ObjBuffer:
		return "buffer"
	case ObjProgram:
		return "program"
	case ObjKernel:
		return "kernel"
	case ObjEvent:
		return "event"
	default:
		return fmt.Sprintf("ObjectKind(%d)", uint8(k))
	}
}

// CreateContextReq creates a context over a set of node-local devices.
type CreateContextReq struct {
	DeviceIDs []int64
	// SessionID and Tenant identify the host-side session the context
	// belongs to, so node-side accounting and logs can attribute objects to
	// tenants. Appended after DeviceIDs; requests from pre-session hosts
	// lack them and decode as 0/"" (the node treats that as one anonymous
	// session).
	SessionID uint64
	Tenant    string
}

// Op implements Message.
func (*CreateContextReq) Op() Op { return OpCreateContext }

// MarshalBody implements Message.
func (m *CreateContextReq) MarshalBody(e *Encoder) {
	e.Ints(m.DeviceIDs)
	e.U64(m.SessionID)
	e.Str(m.Tenant)
}

// UnmarshalBody implements Message.
func (m *CreateContextReq) UnmarshalBody(d *Decoder) {
	m.DeviceIDs = d.Ints()
	if d.Err() == nil && d.Remaining() >= 8 {
		m.SessionID = d.U64()
	}
	if d.Err() == nil && d.Remaining() >= 4 {
		m.Tenant = d.Str()
	}
}

// ObjectResp returns a freshly created remote object handle.
type ObjectResp struct {
	ID uint64
}

// Op implements Message. ObjectResp answers several create ops; the op on
// the frame envelope disambiguates, so this reports 0.
func (*ObjectResp) Op() Op { return 0 }

// MarshalBody implements Message.
func (m *ObjectResp) MarshalBody(e *Encoder) { e.U64(m.ID) }

// UnmarshalBody implements Message.
func (m *ObjectResp) UnmarshalBody(d *Decoder) { m.ID = d.U64() }

// CreateQueueReq creates an in-order command queue on one device.
type CreateQueueReq struct {
	ContextID uint64
	DeviceID  uint32
	Profiling bool
}

// Op implements Message.
func (*CreateQueueReq) Op() Op { return OpCreateQueue }

// MarshalBody implements Message.
func (m *CreateQueueReq) MarshalBody(e *Encoder) {
	e.U64(m.ContextID)
	e.U32(m.DeviceID)
	e.Bool(m.Profiling)
}

// UnmarshalBody implements Message.
func (m *CreateQueueReq) UnmarshalBody(d *Decoder) {
	m.ContextID = d.U64()
	m.DeviceID = d.U32()
	m.Profiling = d.Bool()
}

// CreateBufferReq allocates a device buffer.
type CreateBufferReq struct {
	ContextID uint64
	Size      int64
}

// Op implements Message.
func (*CreateBufferReq) Op() Op { return OpCreateBuffer }

// MarshalBody implements Message.
func (m *CreateBufferReq) MarshalBody(e *Encoder) {
	e.U64(m.ContextID)
	e.I64(m.Size)
}

// UnmarshalBody implements Message.
func (m *CreateBufferReq) UnmarshalBody(d *Decoder) {
	m.ContextID = d.U64()
	m.Size = d.I64()
}

// ReleaseReq drops one reference to a remote object.
type ReleaseReq struct {
	Kind ObjectKind
	ID   uint64
}

// Op implements Message.
func (*ReleaseReq) Op() Op { return OpRelease }

// MarshalBody implements Message.
func (m *ReleaseReq) MarshalBody(e *Encoder) {
	e.U8(uint8(m.Kind))
	e.U64(m.ID)
}

// UnmarshalBody implements Message.
func (m *ReleaseReq) UnmarshalBody(d *Decoder) {
	m.Kind = ObjectKind(d.U8())
	m.ID = d.U64()
}

// EmptyResp is the body of acknowledgement-only responses.
type EmptyResp struct{}

// Op implements Message.
func (*EmptyResp) Op() Op { return 0 }

// MarshalBody implements Message.
func (*EmptyResp) MarshalBody(*Encoder) {}

// UnmarshalBody implements Message.
func (*EmptyResp) UnmarshalBody(*Decoder) {}

// --- Data movement -------------------------------------------------------

// CommandReq is implemented by the enqueue requests that create an event:
// the host names the event itself (SetEventID) so it can pipeline further
// commands referencing that event before the node has responded. A zero
// EventID asks the node to assign one (used by direct-session tests).
type CommandReq interface {
	Message
	SetEventID(id uint64)
}

// WriteBufferReq transfers host data into a device buffer
// (clEnqueueWriteBuffer). SimArrival is the virtual instant at which the
// data finishes crossing the host NIC; the node starts the device-side copy
// no earlier than this, which is how network time composes with device time
// across the distributed virtual clocks.
type WriteBufferReq struct {
	QueueID    uint64
	BufferID   uint64
	Offset     int64
	Data       []byte
	SimArrival int64
	// EventID, when non-zero, is the host-assigned ID for the completion
	// event (see CommandReq).
	EventID uint64
	// ModelBytes, when positive, sizes the transfer in the device's
	// timing model instead of len(Data) — the logical-scale counterpart
	// of EnqueueKernelReq's cost override.
	ModelBytes int64
	// WaitEvents lists remote event IDs that must complete first.
	WaitEvents []int64
}

// Op implements Message.
func (*WriteBufferReq) Op() Op { return OpWriteBuffer }

// SetEventID implements CommandReq.
func (m *WriteBufferReq) SetEventID(id uint64) { m.EventID = id }

// MarshalBody implements Message.
func (m *WriteBufferReq) MarshalBody(e *Encoder) {
	m.marshalHead(e)
	e.Blob(m.Data)
	m.marshalTail(e)
}

func (m *WriteBufferReq) payload() []byte { return m.Data }

func (m *WriteBufferReq) marshalHead(e *Encoder) {
	e.U64(m.QueueID)
	e.U64(m.BufferID)
	e.I64(m.Offset)
}

func (m *WriteBufferReq) marshalTail(e *Encoder) {
	e.I64(m.SimArrival)
	e.U64(m.EventID)
	e.I64(m.ModelBytes)
	e.Ints(m.WaitEvents)
}

// UnmarshalBody implements Message.
func (m *WriteBufferReq) UnmarshalBody(d *Decoder) {
	m.QueueID = d.U64()
	m.BufferID = d.U64()
	m.Offset = d.I64()
	m.Data = d.Payload()
	m.SimArrival = d.I64()
	m.EventID = d.U64()
	m.ModelBytes = d.I64()
	m.WaitEvents = d.Ints()
}

// EventResp returns the event created by an enqueue operation.
type EventResp struct {
	EventID uint64
	Profile Profile
}

// Op implements Message.
func (*EventResp) Op() Op { return 0 }

// MarshalBody implements Message.
func (m *EventResp) MarshalBody(e *Encoder) {
	e.U64(m.EventID)
	m.Profile.marshal(e)
}

// UnmarshalBody implements Message.
func (m *EventResp) UnmarshalBody(d *Decoder) {
	m.EventID = d.U64()
	m.Profile.unmarshal(d)
}

// ReadBufferReq transfers device data back to the host
// (clEnqueueReadBuffer).
type ReadBufferReq struct {
	QueueID    uint64
	BufferID   uint64
	Offset     int64
	Size       int64
	SimArrival int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID uint64
	// ModelBytes, when positive, sizes the transfer in the timing model.
	ModelBytes int64
	WaitEvents []int64
}

// Op implements Message.
func (*ReadBufferReq) Op() Op { return OpReadBuffer }

// SetEventID implements CommandReq.
func (m *ReadBufferReq) SetEventID(id uint64) { m.EventID = id }

// MarshalBody implements Message.
func (m *ReadBufferReq) MarshalBody(e *Encoder) {
	e.U64(m.QueueID)
	e.U64(m.BufferID)
	e.I64(m.Offset)
	e.I64(m.Size)
	e.I64(m.SimArrival)
	e.U64(m.EventID)
	e.I64(m.ModelBytes)
	e.Ints(m.WaitEvents)
}

// UnmarshalBody implements Message.
func (m *ReadBufferReq) UnmarshalBody(d *Decoder) {
	m.QueueID = d.U64()
	m.BufferID = d.U64()
	m.Offset = d.I64()
	m.Size = d.I64()
	m.SimArrival = d.I64()
	m.EventID = d.U64()
	m.ModelBytes = d.I64()
	m.WaitEvents = d.Ints()
}

// ReadBufferResp carries the data and the completion event.
type ReadBufferResp struct {
	Data    []byte
	EventID uint64
	Profile Profile
}

// Op implements Message.
func (*ReadBufferResp) Op() Op { return OpReadBuffer }

// MarshalBody implements Message.
func (m *ReadBufferResp) MarshalBody(e *Encoder) {
	e.Blob(m.Data)
	m.marshalTail(e)
}

func (m *ReadBufferResp) payload() []byte { return m.Data }

func (*ReadBufferResp) marshalHead(*Encoder) {}

func (m *ReadBufferResp) marshalTail(e *Encoder) {
	e.U64(m.EventID)
	m.Profile.marshal(e)
}

// UnmarshalBody implements Message.
func (m *ReadBufferResp) UnmarshalBody(d *Decoder) {
	m.Data = d.Payload()
	m.EventID = d.U64()
	m.Profile.unmarshal(d)
}

// CopyBufferReq copies between two buffers on the same node
// (clEnqueueCopyBuffer).
type CopyBufferReq struct {
	QueueID   uint64
	SrcID     uint64
	DstID     uint64
	SrcOffset int64
	DstOffset int64
	Size      int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID    uint64
	WaitEvents []int64
}

// Op implements Message.
func (*CopyBufferReq) Op() Op { return OpCopyBuffer }

// SetEventID implements CommandReq.
func (m *CopyBufferReq) SetEventID(id uint64) { m.EventID = id }

// MarshalBody implements Message.
func (m *CopyBufferReq) MarshalBody(e *Encoder) {
	e.U64(m.QueueID)
	e.U64(m.SrcID)
	e.U64(m.DstID)
	e.I64(m.SrcOffset)
	e.I64(m.DstOffset)
	e.I64(m.Size)
	e.U64(m.EventID)
	e.Ints(m.WaitEvents)
}

// UnmarshalBody implements Message.
func (m *CopyBufferReq) UnmarshalBody(d *Decoder) {
	m.QueueID = d.U64()
	m.SrcID = d.U64()
	m.DstID = d.U64()
	m.SrcOffset = d.I64()
	m.DstOffset = d.I64()
	m.Size = d.I64()
	m.EventID = d.U64()
	m.WaitEvents = d.Ints()
}

// --- Peer-to-peer data plane ---------------------------------------------

// PushRangeReq tells a source node to ship [Offset, Offset+Size) of one of
// its buffer replicas to a named peer. The host stays the control plane: it
// plans the transfer from its validity map and assigns the completion event,
// but the data itself crosses the node↔node link, never the host NIC.
type PushRangeReq struct {
	QueueID  uint64 // source-side queue whose lane serializes the egress
	BufferID uint64
	// PeerName/PeerBufferID locate the destination replica; the source
	// resolves PeerName against the address book learned at Hello time.
	PeerName     string
	PeerBufferID uint64
	// Token pairs this push with the peer's AwaitPush rendezvous entry.
	Token  uint64
	Offset int64
	Size   int64
	// SimArrival is the virtual instant the host's command frame reaches
	// the source node (control traffic still crosses the host NIC).
	SimArrival int64
	// DepartAt, when positive, books the peer-link egress at that virtual
	// instant without a device read: broadcast hops forward data that is
	// already in flight (cut-through), so only the first chunk's link time
	// gates the next hop. Zero means a migration push: read the range from
	// the device, then cross the link.
	DepartAt int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID uint64
	// ModelBytes, when positive, sizes the transfer in the timing model.
	ModelBytes int64
	// WaitEvents lists source-side events that must complete first (the
	// producer chain that made this replica range valid).
	WaitEvents []int64
}

// Op implements Message.
func (*PushRangeReq) Op() Op { return OpPushRange }

// SetEventID implements CommandReq.
func (m *PushRangeReq) SetEventID(id uint64) { m.EventID = id }

// MarshalBody implements Message.
func (m *PushRangeReq) MarshalBody(e *Encoder) {
	e.U64(m.QueueID)
	e.U64(m.BufferID)
	e.Str(m.PeerName)
	e.U64(m.PeerBufferID)
	e.U64(m.Token)
	e.I64(m.Offset)
	e.I64(m.Size)
	e.I64(m.SimArrival)
	e.I64(m.DepartAt)
	e.U64(m.EventID)
	e.I64(m.ModelBytes)
	e.Ints(m.WaitEvents)
}

// UnmarshalBody implements Message.
func (m *PushRangeReq) UnmarshalBody(d *Decoder) {
	m.QueueID = d.U64()
	m.BufferID = d.U64()
	m.PeerName = d.Str()
	m.PeerBufferID = d.U64()
	m.Token = d.U64()
	m.Offset = d.I64()
	m.Size = d.I64()
	m.SimArrival = d.I64()
	m.DepartAt = d.I64()
	m.EventID = d.U64()
	m.ModelBytes = d.I64()
	m.WaitEvents = d.Ints()
}

// PeerPushReq is the node→node data deposit: the source ships the bytes to
// the peer, which parks them in its rendezvous table until the host-issued
// AwaitPush command consumes them. Answered with EmptyResp (the ack is the
// source's signal that the peer owns the data).
type PeerPushReq struct {
	Token uint64
	Data  []byte
	// SimArrival is the virtual instant the data finishes crossing the
	// node↔node link, computed by the source against its egress link.
	SimArrival int64
}

// Op implements Message.
func (*PeerPushReq) Op() Op { return OpPeerPush }

// MarshalBody implements Message.
func (m *PeerPushReq) MarshalBody(e *Encoder) {
	m.marshalHead(e)
	e.Blob(m.Data)
	m.marshalTail(e)
}

func (m *PeerPushReq) payload() []byte { return m.Data }

func (m *PeerPushReq) marshalHead(e *Encoder) { e.U64(m.Token) }

func (m *PeerPushReq) marshalTail(e *Encoder) { e.I64(m.SimArrival) }

// UnmarshalBody implements Message.
func (m *PeerPushReq) UnmarshalBody(d *Decoder) {
	m.Token = d.U64()
	m.Data = d.Payload()
	m.SimArrival = d.I64()
}

// AwaitPushReq tells the destination node to receive a deposited range into
// a buffer. It rides the normal registration-stage→lane machinery so the
// completion event chains like any other command; the exec handler blocks
// on the rendezvous entry for Token.
type AwaitPushReq struct {
	QueueID  uint64
	BufferID uint64
	Token    uint64
	Offset   int64
	Size     int64
	// SimArrival is the virtual arrival of the host's control frame.
	SimArrival int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID uint64
	// ModelBytes, when positive, sizes the device-side write in the model.
	ModelBytes int64
	// WaitEvents lists destination-side events that must complete first
	// (anti-dependencies on the replica being overwritten).
	WaitEvents []int64
}

// Op implements Message.
func (*AwaitPushReq) Op() Op { return OpAwaitPush }

// SetEventID implements CommandReq.
func (m *AwaitPushReq) SetEventID(id uint64) { m.EventID = id }

// MarshalBody implements Message.
func (m *AwaitPushReq) MarshalBody(e *Encoder) {
	e.U64(m.QueueID)
	e.U64(m.BufferID)
	e.U64(m.Token)
	e.I64(m.Offset)
	e.I64(m.Size)
	e.I64(m.SimArrival)
	e.U64(m.EventID)
	e.I64(m.ModelBytes)
	e.Ints(m.WaitEvents)
}

// UnmarshalBody implements Message.
func (m *AwaitPushReq) UnmarshalBody(d *Decoder) {
	m.QueueID = d.U64()
	m.BufferID = d.U64()
	m.Token = d.U64()
	m.Offset = d.I64()
	m.Size = d.I64()
	m.SimArrival = d.I64()
	m.EventID = d.U64()
	m.ModelBytes = d.I64()
	m.WaitEvents = d.Ints()
}

// CancelPushReq aborts a pending rendezvous: when the source side of a push
// fails, the host cancels the peer's AwaitPush so the dependent event chain
// fails instead of parking forever.
type CancelPushReq struct {
	Token  uint64
	Reason string
}

// Op implements Message.
func (*CancelPushReq) Op() Op { return OpCancelPush }

// MarshalBody implements Message.
func (m *CancelPushReq) MarshalBody(e *Encoder) {
	e.U64(m.Token)
	e.Str(m.Reason)
}

// UnmarshalBody implements Message.
func (m *CancelPushReq) UnmarshalBody(d *Decoder) {
	m.Token = d.U64()
	m.Reason = d.Str()
}

// --- Programs and kernels -------------------------------------------------

// BuildProgramReq ships OpenCL C source for compilation on the node
// (clCreateProgramWithSource + clBuildProgram). The node's front end parses
// the source and resolves each kernel against its driver's kernel binaries.
type BuildProgramReq struct {
	ContextID uint64
	Source    string
	Options   string
}

// Op implements Message.
func (*BuildProgramReq) Op() Op { return OpBuildProgram }

// MarshalBody implements Message.
func (m *BuildProgramReq) MarshalBody(e *Encoder) {
	e.U64(m.ContextID)
	e.Str(m.Source)
	e.Str(m.Options)
}

// UnmarshalBody implements Message.
func (m *BuildProgramReq) UnmarshalBody(d *Decoder) {
	m.ContextID = d.U64()
	m.Source = d.Str()
	m.Options = d.Str()
}

// BuildProgramResp reports the program handle and build log.
type BuildProgramResp struct {
	ProgramID uint64
	Log       string
	Kernels   []string // kernel names found in the source
}

// Op implements Message.
func (*BuildProgramResp) Op() Op { return OpBuildProgram }

// MarshalBody implements Message.
func (m *BuildProgramResp) MarshalBody(e *Encoder) {
	e.U64(m.ProgramID)
	e.Str(m.Log)
	e.U32(uint32(len(m.Kernels)))
	for _, k := range m.Kernels {
		e.Str(k)
	}
}

// UnmarshalBody implements Message.
func (m *BuildProgramResp) UnmarshalBody(d *Decoder) {
	m.ProgramID = d.U64()
	m.Log = d.Str()
	n := int(d.U32())
	if !d.Need(n) {
		return
	}
	m.Kernels = make([]string, n)
	for i := range m.Kernels {
		m.Kernels[i] = d.Str()
	}
}

// CreateKernelReq instantiates one kernel from a built program.
type CreateKernelReq struct {
	ProgramID uint64
	Name      string
}

// Op implements Message.
func (*CreateKernelReq) Op() Op { return OpCreateKernel }

// MarshalBody implements Message.
func (m *CreateKernelReq) MarshalBody(e *Encoder) {
	e.U64(m.ProgramID)
	e.Str(m.Name)
}

// UnmarshalBody implements Message.
func (m *CreateKernelReq) UnmarshalBody(d *Decoder) {
	m.ProgramID = d.U64()
	m.Name = d.Str()
}

// EnqueueKernelReq launches an NDRange (clEnqueueNDRangeKernel). Arguments
// travel with the launch, matching the paper's message-per-API-call design.
type EnqueueKernelReq struct {
	QueueID    uint64
	KernelID   uint64
	Global     []int64
	Local      []int64
	Args       []KernelArg
	SimArrival int64
	// EventID, when non-zero, is the host-assigned completion event ID.
	EventID    uint64
	WaitEvents []int64
	// CostFlops/CostBytes, when positive, override the kernel's own cost
	// model. The experiment harness uses this to model paper-scale
	// problem sizes while executing functionally on reduced data.
	CostFlops int64
	CostBytes int64
}

// Op implements Message.
func (*EnqueueKernelReq) Op() Op { return OpEnqueueKernel }

// SetEventID implements CommandReq.
func (m *EnqueueKernelReq) SetEventID(id uint64) { m.EventID = id }

// MarshalBody implements Message.
func (m *EnqueueKernelReq) MarshalBody(e *Encoder) {
	e.U64(m.QueueID)
	e.U64(m.KernelID)
	e.Ints(m.Global)
	e.Ints(m.Local)
	e.U32(uint32(len(m.Args)))
	for i := range m.Args {
		m.Args[i].marshal(e)
	}
	e.I64(m.SimArrival)
	e.U64(m.EventID)
	e.Ints(m.WaitEvents)
	e.I64(m.CostFlops)
	e.I64(m.CostBytes)
}

// UnmarshalBody implements Message.
func (m *EnqueueKernelReq) UnmarshalBody(d *Decoder) {
	m.QueueID = d.U64()
	m.KernelID = d.U64()
	m.Global = d.Ints()
	m.Local = d.Ints()
	n := int(d.U32())
	if !d.Need(n) {
		return
	}
	m.Args = make([]KernelArg, n)
	for i := range m.Args {
		m.Args[i].unmarshal(d)
	}
	m.SimArrival = d.I64()
	m.EventID = d.U64()
	m.WaitEvents = d.Ints()
	m.CostFlops = d.I64()
	m.CostBytes = d.I64()
}

// --- Synchronization and status -------------------------------------------

// FinishQueueReq blocks until all commands on a queue complete (clFinish).
type FinishQueueReq struct {
	QueueID uint64
}

// Op implements Message.
func (*FinishQueueReq) Op() Op { return OpFinishQueue }

// MarshalBody implements Message.
func (m *FinishQueueReq) MarshalBody(e *Encoder) { e.U64(m.QueueID) }

// UnmarshalBody implements Message.
func (m *FinishQueueReq) UnmarshalBody(d *Decoder) { m.QueueID = d.U64() }

// FinishQueueResp reports the queue's virtual completion time.
type FinishQueueResp struct {
	SimTime int64
}

// Op implements Message.
func (*FinishQueueResp) Op() Op { return OpFinishQueue }

// MarshalBody implements Message.
func (m *FinishQueueResp) MarshalBody(e *Encoder) { e.I64(m.SimTime) }

// UnmarshalBody implements Message.
func (m *FinishQueueResp) UnmarshalBody(d *Decoder) { m.SimTime = d.I64() }

// QueryEventReq fetches an event's status and profiling timestamps.
type QueryEventReq struct {
	EventID uint64
}

// Op implements Message.
func (*QueryEventReq) Op() Op { return OpQueryEvent }

// MarshalBody implements Message.
func (m *QueryEventReq) MarshalBody(e *Encoder) { e.U64(m.EventID) }

// UnmarshalBody implements Message.
func (m *QueryEventReq) UnmarshalBody(d *Decoder) { m.EventID = d.U64() }

// QueryEventResp carries the event state.
type QueryEventResp struct {
	Complete bool
	Profile  Profile
}

// Op implements Message.
func (*QueryEventResp) Op() Op { return OpQueryEvent }

// MarshalBody implements Message.
func (m *QueryEventResp) MarshalBody(e *Encoder) {
	e.Bool(m.Complete)
	m.Profile.marshal(e)
}

// UnmarshalBody implements Message.
func (m *QueryEventResp) UnmarshalBody(d *Decoder) {
	m.Complete = d.Bool()
	m.Profile.unmarshal(d)
}

// NodeStatusReq polls the node for the resource monitor.
type NodeStatusReq struct{}

// Op implements Message.
func (*NodeStatusReq) Op() Op { return OpNodeStatus }

// MarshalBody implements Message.
func (*NodeStatusReq) MarshalBody(*Encoder) {}

// UnmarshalBody implements Message.
func (*NodeStatusReq) UnmarshalBody(*Decoder) {}

// DeviceStatus is one device's runtime load snapshot.
type DeviceStatus struct {
	DeviceID      uint32
	BusyUntil     int64 // virtual instant the device's queues drain
	QueuedCmds    int64
	KernelsRun    int64
	FlopsDone     float64
	BytesMoved    float64
	EnergyJ       float64
	ActiveUsers   int64
	EWMAGFLOPS    float64 // observed sustained rate, for the scheduler
	EWMAKernelSec float64 // observed mean kernel duration
}

func (s *DeviceStatus) marshal(e *Encoder) {
	e.U32(s.DeviceID)
	e.I64(s.BusyUntil)
	e.I64(s.QueuedCmds)
	e.I64(s.KernelsRun)
	e.F64(s.FlopsDone)
	e.F64(s.BytesMoved)
	e.F64(s.EnergyJ)
	e.I64(s.ActiveUsers)
	e.F64(s.EWMAGFLOPS)
	e.F64(s.EWMAKernelSec)
}

func (s *DeviceStatus) unmarshal(d *Decoder) {
	s.DeviceID = d.U32()
	s.BusyUntil = d.I64()
	s.QueuedCmds = d.I64()
	s.KernelsRun = d.I64()
	s.FlopsDone = d.F64()
	s.BytesMoved = d.F64()
	s.EnergyJ = d.F64()
	s.ActiveUsers = d.I64()
	s.EWMAGFLOPS = d.F64()
	s.EWMAKernelSec = d.F64()
}

// NodeStatusResp is the monitor snapshot for every device on the node.
type NodeStatusResp struct {
	Devices []DeviceStatus
}

// Op implements Message.
func (*NodeStatusResp) Op() Op { return OpNodeStatus }

// MarshalBody implements Message.
func (m *NodeStatusResp) MarshalBody(e *Encoder) {
	e.U32(uint32(len(m.Devices)))
	for i := range m.Devices {
		m.Devices[i].marshal(e)
	}
}

// UnmarshalBody implements Message.
func (m *NodeStatusResp) UnmarshalBody(d *Decoder) {
	n := int(d.U32())
	if !d.Need(n) {
		return
	}
	m.Devices = make([]DeviceStatus, n)
	for i := range m.Devices {
		m.Devices[i].unmarshal(d)
	}
}

// ShutdownReq asks the NMP to drain and exit.
type ShutdownReq struct{}

// Op implements Message.
func (*ShutdownReq) Op() Op { return OpShutdown }

// MarshalBody implements Message.
func (*ShutdownReq) MarshalBody(*Encoder) {}

// UnmarshalBody implements Message.
func (*ShutdownReq) UnmarshalBody(*Decoder) {}

// The enqueue requests all carry host-assignable event IDs.
var (
	_ CommandReq = (*WriteBufferReq)(nil)
	_ CommandReq = (*ReadBufferReq)(nil)
	_ CommandReq = (*CopyBufferReq)(nil)
	_ CommandReq = (*EnqueueKernelReq)(nil)
	_ CommandReq = (*PushRangeReq)(nil)
	_ CommandReq = (*AwaitPushReq)(nil)
)

// ErrorResp carries a remote failure back to the caller.
type ErrorResp struct {
	Code    uint32
	Message string
}

// Op implements Message.
func (*ErrorResp) Op() Op { return OpError }

// MarshalBody implements Message.
func (m *ErrorResp) MarshalBody(e *Encoder) {
	e.U32(m.Code)
	e.Str(m.Message)
}

// UnmarshalBody implements Message.
func (m *ErrorResp) UnmarshalBody(d *Decoder) {
	m.Code = d.U32()
	m.Message = d.Str()
}

// RemoteError is the host-side error produced from an ErrorResp.
type RemoteError struct {
	Op      Op
	Code    uint32
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s: %s (code %d)", e.Op, e.Message, e.Code)
}

// ErrRemote matches any remote error with errors.Is.
var ErrRemote = errors.New("protocol: remote error")

// Is reports whether target is ErrRemote.
func (e *RemoteError) Is(target error) bool { return target == ErrRemote }

// EncodeMessage marshals m into a fresh body slice.
func EncodeMessage(m Message) []byte {
	e := NewEncoder()
	m.MarshalBody(e)
	return e.Bytes()
}

// bulkMessage is implemented by the messages that carry one bulk payload
// (WriteBufferReq, PeerPushReq, ReadBufferResp): the body is the head
// fields, the payload as a blob, then the tail fields. Their decoders read
// the payload with Decoder.Payload.
type bulkMessage interface {
	payload() []byte
	marshalHead(e *Encoder)
	marshalTail(e *Encoder)
}

// The bulk messages.
var (
	_ bulkMessage = (*WriteBufferReq)(nil)
	_ bulkMessage = (*PeerPushReq)(nil)
	_ bulkMessage = (*ReadBufferResp)(nil)
)

// EncodeByRef encodes m as a frame body whose wire bytes equal
// EncodeMessage(m), without copying a bulk payload. For a message carrying
// a payload above BatchableBodyLimit, body ends with the payload's length
// prefix and bulk holds the payload itself, by reference, and the encoded
// fields after it; such a frame travels alone (WriteFrameTo), so the
// payload is never staged. The caller must not modify the payload after
// handing it over: the frame may be written at any later time. For every
// other message bulk is nil and body is EncodeMessage(m).
func EncodeByRef(m Message) (body []byte, bulk *Bulk) {
	bm, ok := m.(bulkMessage)
	if !ok || len(bm.payload()) <= BatchableBodyLimit {
		return EncodeMessage(m), nil
	}
	e := NewEncoder()
	bm.marshalHead(e)
	e.U32(uint32(len(bm.payload())))
	n := len(e.buf)
	bm.marshalTail(e)
	return e.buf[:n:n], &Bulk{Payload: bm.payload(), Tail: e.buf[n:]}
}

// DecodeMessage unmarshals body into m, reporting truncation errors.
func DecodeMessage(m Message, body []byte) error {
	d := NewDecoder(body)
	m.UnmarshalBody(d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("decode %T: %w", m, err)
	}
	return nil
}
