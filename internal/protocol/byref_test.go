package protocol

import (
	"bytes"
	"reflect"
	"testing"
)

// sampleMessages returns one message of every kind, filled from a, s and
// payload. The payload lands in every byte-slice field: the three bulk
// payloads and a kernel scalar, which rides shared envelopes and is always
// copied.
func sampleMessages(a uint64, s string, payload []byte) []Message {
	i := int64(a)
	ints := []int64{i, -i}
	dev := DeviceInfo{ID: uint32(a), Type: DeviceGPU, Name: s, Vendor: s, GlobalMemBytes: i,
		MaxWorkGroupSize: i, Shared: a%2 == 1, PeakGFLOPS: float64(a), MemBWGBps: 1.5, TDPWatts: 75}
	prof := Profile{Queued: i, Submit: i + 1, Start: i + 2, End: i + 3}
	return []Message{
		&HelloReq{UserID: s, ClientName: s, WireVersion: uint32(a), Peers: []PeerAddr{{Name: s, Addr: s}}, Epoch: a},
		&HelloResp{NodeName: s, Devices: []DeviceInfo{dev}, WireVersion: uint32(a), BootID: a},
		&GetDeviceInfosReq{TypeMask: uint8(a)},
		&GetDeviceInfosResp{Devices: []DeviceInfo{dev}},
		&CreateContextReq{DeviceIDs: ints, SessionID: a, Tenant: s},
		&ObjectResp{ID: a},
		&CreateQueueReq{ContextID: a, DeviceID: uint32(a), Profiling: a%2 == 0},
		&CreateBufferReq{ContextID: a, Size: i},
		&ReleaseReq{Kind: ObjBuffer, ID: a},
		&EmptyResp{},
		&WriteBufferReq{QueueID: a, BufferID: a + 1, Offset: i, Data: payload, SimArrival: i,
			EventID: a, ModelBytes: i, WaitEvents: ints},
		&EventResp{EventID: a, Profile: prof},
		&ReadBufferReq{QueueID: a, BufferID: a, Offset: i, Size: i, SimArrival: i, EventID: a,
			ModelBytes: i, WaitEvents: ints},
		&ReadBufferResp{Data: payload, EventID: a, Profile: prof},
		&CopyBufferReq{QueueID: a, SrcID: a, DstID: a, SrcOffset: i, DstOffset: i, Size: i,
			EventID: a, WaitEvents: ints},
		&PushRangeReq{QueueID: a, BufferID: a, PeerName: s, PeerBufferID: a, Token: a, Offset: i,
			Size: i, SimArrival: i, DepartAt: i, EventID: a, ModelBytes: i, WaitEvents: ints},
		&PeerPushReq{Token: a, Data: payload, SimArrival: i},
		&AwaitPushReq{QueueID: a, BufferID: a, Token: a, Offset: i, Size: i, SimArrival: i,
			EventID: a, ModelBytes: i, WaitEvents: ints},
		&CancelPushReq{Token: a, Reason: s},
		&BuildProgramReq{ContextID: a, Source: s, Options: s},
		&BuildProgramResp{ProgramID: a, Log: s, Kernels: []string{s, s}},
		&CreateKernelReq{ProgramID: a, Name: s},
		&EnqueueKernelReq{QueueID: a, KernelID: a, Global: ints, Local: ints,
			Args: []KernelArg{
				{Kind: ArgBuffer, BufferID: a},
				{Kind: ArgScalar, Scalar: payload},
				{Kind: ArgLocal, LocalLen: i},
			},
			SimArrival: i, EventID: a, WaitEvents: ints, CostFlops: i, CostBytes: i},
		&FinishQueueReq{QueueID: a},
		&FinishQueueResp{SimTime: i},
		&QueryEventReq{EventID: a},
		&QueryEventResp{Complete: a%2 == 1, Profile: prof},
		&NodeStatusReq{},
		&NodeStatusResp{Devices: []DeviceStatus{{DeviceID: uint32(a), BusyUntil: i, QueuedCmds: i,
			FlopsDone: 2.5, EWMAKernelSec: 0.5}}},
		&ShutdownReq{},
		&ErrorResp{Code: uint32(a), Message: s},
	}
}

// checkByRef asserts the three properties of the by-reference encoding for
// one message: its wire bytes equal EncodeMessage's, the frame decodes
// back to the same message, and appending to a decoded payload leaves the
// rest of the frame untouched.
func checkByRef(t *testing.T, m Message) {
	t.Helper()
	want := EncodeMessage(m)
	wantWire, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 7, Op: m.Op(), Body: want})
	if err != nil {
		t.Fatal(err)
	}
	body, bulk := EncodeByRef(m)
	var wire bytes.Buffer
	if err := WriteFrameTo(&wire, &Frame{Kind: FrameRequest, ReqID: 7, Op: m.Op(), Body: body}, bulk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Bytes(), wantWire) {
		t.Fatalf("%T: by-reference wire bytes differ from EncodeMessage's", m)
	}
	bm, isBulk := m.(bulkMessage)
	if isBulk && len(bm.payload()) > BatchableBodyLimit {
		if bulk == nil || &bulk.Payload[0] != &bm.payload()[0] {
			t.Fatalf("%T: %d-byte payload was copied, want it sent by reference", m, len(bm.payload()))
		}
	} else if bulk != nil {
		t.Fatalf("%T: split a body with no bulk payload", m)
	}

	f, err := ReadFrame(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	out := reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message)
	if err := DecodeMessage(out, f.Body); err != nil {
		t.Fatalf("%T: %v", m, err)
	}
	if !bytes.Equal(EncodeMessage(out), want) {
		t.Fatalf("%T: decode does not round-trip", m)
	}

	ob, ok := out.(bulkMessage)
	if !ok {
		return
	}
	p := ob.payload()
	if len(p) > BatchableBodyLimit && &p[0] != &f.Body[len(body)] {
		t.Fatalf("%T: %d-byte payload was copied out of its frame, want it decoded in place", m, len(p))
	}
	// One byte at a time, two different values: an unclipped payload would
	// overwrite the first byte after it, whatever that byte holds.
	snapshot := bytes.Clone(f.Body)
	for _, v := range []byte{0xEE, 0x11} {
		grown := append(p, v)
		if len(grown) != len(p)+1 || !bytes.Equal(f.Body, snapshot) {
			t.Fatalf("%T: appending to the decoded payload changed the frame", m)
		}
	}
}

// TestEncodeByRefMatchesEncodeMessage pins the wire format of the
// by-reference path for every message kind, with payloads on both sides
// of the bulk threshold.
func TestEncodeByRefMatchesEncodeMessage(t *testing.T) {
	for _, n := range []int{0, 3, BatchableBodyLimit, BatchableBodyLimit + 1, 1 << 20} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		for _, m := range sampleMessages(0x0102030405060708, "gpu-01", payload) {
			checkByRef(t, m)
		}
	}
}

// FuzzEncodeByRef checks the by-reference encoding against EncodeMessage
// for every message kind with fuzzed field values and payload sizes.
func FuzzEncodeByRef(f *testing.F) {
	f.Add(uint64(1), "u", uint32(0), byte(0))
	f.Add(uint64(42), "gpu-1", uint32(3), byte(9))
	f.Add(uint64(1<<63), "", uint32(BatchableBodyLimit), byte(0xFF))
	f.Add(uint64(7), "tenant", uint32(BatchableBodyLimit+1), byte(1))
	f.Add(uint64(9), "x", uint32(3*BatchableBodyLimit), byte(0x80))
	f.Fuzz(func(t *testing.T, a uint64, s string, size uint32, fill byte) {
		payload := make([]byte, int(size%(4*BatchableBodyLimit)))
		for i := range payload {
			payload[i] = fill + byte(i)
		}
		for _, m := range sampleMessages(a, s, payload) {
			checkByRef(t, m)
		}
	})
}
