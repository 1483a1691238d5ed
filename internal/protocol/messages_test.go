package protocol

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// roundTrip encodes m and decodes into out, failing the test on error.
func roundTrip(t *testing.T, m Message, out Message) {
	t.Helper()
	if err := DecodeMessage(out, EncodeMessage(m)); err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := &HelloReq{UserID: "alice", ClientName: "app", WireVersion: 1}
	var out HelloReq
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("%+v != %+v", out, in)
	}

	resp := &HelloResp{
		NodeName: "gpu-00",
		Devices: []DeviceInfo{{
			ID: 1, Type: DeviceGPU, Name: "Tesla P4", Vendor: "NVIDIA",
			ComputeUnits: 20, ClockMHz: 1063, GlobalMemBytes: 8 << 30,
			MaxWorkGroupSize: 1024, Shared: true,
			PeakGFLOPS: 5500, MemBWGBps: 192, TDPWatts: 75,
		}},
	}
	var outResp HelloResp
	roundTrip(t, resp, &outResp)
	if !reflect.DeepEqual(resp, &outResp) {
		t.Fatalf("%+v != %+v", outResp, resp)
	}
}

func TestEnqueueKernelRoundTrip(t *testing.T) {
	in := &EnqueueKernelReq{
		QueueID:  3,
		KernelID: 9,
		Global:   []int64{1024, 32, 1},
		Local:    []int64{64},
		Args: []KernelArg{
			{Kind: ArgBuffer, BufferID: 77},
			{Kind: ArgScalar, Scalar: []byte{1, 0, 0, 0}},
			{Kind: ArgLocal, LocalLen: 2048},
		},
		SimArrival: 123456,
		EventID:    42,
		WaitEvents: []int64{5, 6},
		CostFlops:  1e12,
		CostBytes:  1e11,
	}
	var out EnqueueKernelReq
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("%+v != %+v", out, in)
	}
}

// TestAllMessagesRoundTripProperty round-trips every message type with
// randomized field values.
func TestAllMessagesRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msgs := []func() (Message, Message){
		func() (Message, Message) {
			return &HelloReq{UserID: randStr(rng), ClientName: randStr(rng), WireVersion: rng.Uint32()}, &HelloReq{}
		},
		func() (Message, Message) {
			return &GetDeviceInfosReq{TypeMask: uint8(rng.Uint32())}, &GetDeviceInfosReq{}
		},
		func() (Message, Message) {
			return &GetDeviceInfosResp{Devices: []DeviceInfo{randDevice(rng), randDevice(rng)}}, &GetDeviceInfosResp{}
		},
		func() (Message, Message) {
			return &CreateContextReq{DeviceIDs: []int64{rng.Int63(), rng.Int63()},
				SessionID: rng.Uint64(), Tenant: randStr(rng)}, &CreateContextReq{}
		},
		func() (Message, Message) {
			return &CreateQueueReq{ContextID: rng.Uint64(), DeviceID: rng.Uint32(), Profiling: rng.Intn(2) == 0}, &CreateQueueReq{}
		},
		func() (Message, Message) {
			return &CreateBufferReq{ContextID: rng.Uint64(), Size: rng.Int63()}, &CreateBufferReq{}
		},
		func() (Message, Message) {
			return &WriteBufferReq{QueueID: rng.Uint64(), BufferID: rng.Uint64(), Offset: rng.Int63(),
				Data: randBlob(rng), SimArrival: rng.Int63(), EventID: rng.Uint64(), ModelBytes: rng.Int63(),
				WaitEvents: []int64{rng.Int63()}}, &WriteBufferReq{}
		},
		func() (Message, Message) {
			return &ReadBufferReq{QueueID: rng.Uint64(), BufferID: rng.Uint64(), Offset: rng.Int63(),
				Size: rng.Int63(), SimArrival: rng.Int63(), EventID: rng.Uint64(), ModelBytes: rng.Int63()}, &ReadBufferReq{}
		},
		func() (Message, Message) {
			return &ReadBufferResp{Data: randBlob(rng), EventID: rng.Uint64(),
				Profile: Profile{Queued: 1, Submit: 2, Start: 3, End: 4}}, &ReadBufferResp{}
		},
		func() (Message, Message) {
			return &CopyBufferReq{QueueID: 1, SrcID: 2, DstID: 3, SrcOffset: 4, DstOffset: 5, Size: 6,
				EventID: rng.Uint64()}, &CopyBufferReq{}
		},
		func() (Message, Message) {
			return &BuildProgramReq{ContextID: rng.Uint64(), Source: randStr(rng), Options: randStr(rng)}, &BuildProgramReq{}
		},
		func() (Message, Message) {
			return &BuildProgramResp{ProgramID: rng.Uint64(), Log: randStr(rng),
				Kernels: []string{randStr(rng), randStr(rng)}}, &BuildProgramResp{}
		},
		func() (Message, Message) {
			return &CreateKernelReq{ProgramID: rng.Uint64(), Name: randStr(rng)}, &CreateKernelReq{}
		},
		func() (Message, Message) {
			return &FinishQueueReq{QueueID: rng.Uint64()}, &FinishQueueReq{}
		},
		func() (Message, Message) {
			return &FinishQueueResp{SimTime: rng.Int63()}, &FinishQueueResp{}
		},
		func() (Message, Message) {
			return &QueryEventReq{EventID: rng.Uint64()}, &QueryEventReq{}
		},
		func() (Message, Message) {
			return &QueryEventResp{Complete: true, Profile: Profile{End: rng.Int63()}}, &QueryEventResp{}
		},
		func() (Message, Message) {
			return &ReleaseReq{Kind: ObjBuffer, ID: rng.Uint64()}, &ReleaseReq{}
		},
		func() (Message, Message) {
			return &NodeStatusResp{Devices: []DeviceStatus{{
				DeviceID: rng.Uint32(), BusyUntil: rng.Int63(), QueuedCmds: 3,
				KernelsRun: 9, FlopsDone: 1e12, BytesMoved: 5e9, EnergyJ: 120,
				ActiveUsers: 2, EWMAGFLOPS: 800, EWMAKernelSec: 0.25,
			}}}, &NodeStatusResp{}
		},
		func() (Message, Message) {
			return &ErrorResp{Code: rng.Uint32(), Message: randStr(rng)}, &ErrorResp{}
		},
		func() (Message, Message) {
			return &ObjectResp{ID: rng.Uint64()}, &ObjectResp{}
		},
		func() (Message, Message) {
			return &EventResp{EventID: rng.Uint64(), Profile: Profile{Start: 5, End: 9}}, &EventResp{}
		},
		func() (Message, Message) {
			return &HelloReq{UserID: randStr(rng), ClientName: randStr(rng), WireVersion: rng.Uint32(),
				Peers: []PeerAddr{{Name: randStr(rng), Addr: randStr(rng)}, {Name: randStr(rng), Addr: randStr(rng)}}}, &HelloReq{}
		},
		func() (Message, Message) {
			return &PushRangeReq{QueueID: rng.Uint64(), BufferID: rng.Uint64(), PeerName: randStr(rng),
				PeerBufferID: rng.Uint64(), Token: rng.Uint64(), Offset: rng.Int63(), Size: rng.Int63(),
				SimArrival: rng.Int63(), DepartAt: rng.Int63(), EventID: rng.Uint64(), ModelBytes: rng.Int63(),
				WaitEvents: []int64{rng.Int63()}}, &PushRangeReq{}
		},
		func() (Message, Message) {
			return &PeerPushReq{Token: rng.Uint64(), Data: randBlob(rng), SimArrival: rng.Int63()}, &PeerPushReq{}
		},
		func() (Message, Message) {
			return &AwaitPushReq{QueueID: rng.Uint64(), BufferID: rng.Uint64(), Token: rng.Uint64(),
				Offset: rng.Int63(), Size: rng.Int63(), SimArrival: rng.Int63(), EventID: rng.Uint64(),
				ModelBytes: rng.Int63(), WaitEvents: []int64{rng.Int63(), rng.Int63()}}, &AwaitPushReq{}
		},
		func() (Message, Message) {
			return &CancelPushReq{Token: rng.Uint64(), Reason: randStr(rng)}, &CancelPushReq{}
		},
	}
	for round := 0; round < 25; round++ {
		for i, mk := range msgs {
			in, out := mk()
			if err := DecodeMessage(out, EncodeMessage(in)); err != nil {
				t.Fatalf("case %d (%T): %v", i, in, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("case %d (%T): %+v != %+v", i, in, out, in)
			}
		}
	}
}

func randStr(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(20))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randBlob(rng *rand.Rand) []byte {
	b := make([]byte, rng.Intn(64)+1)
	rng.Read(b)
	return b
}

func randDevice(rng *rand.Rand) DeviceInfo {
	return DeviceInfo{
		ID:   rng.Uint32(),
		Type: DeviceType(rng.Intn(3) + 1),
		Name: randStr(rng), Vendor: randStr(rng),
		ComputeUnits: rng.Uint32(), ClockMHz: rng.Uint32(),
		GlobalMemBytes: rng.Int63(), MaxWorkGroupSize: rng.Int63(),
		Shared: rng.Intn(2) == 0, PeakGFLOPS: rng.Float64() * 1e4,
		MemBWGBps: rng.Float64() * 1e3, TDPWatts: rng.Float64() * 300,
	}
}

// TestDecodeTruncatedMessages feeds every prefix of a valid encoding to
// the decoder and requires a clean error, never a panic.
func TestDecodeTruncatedMessages(t *testing.T) {
	in := &EnqueueKernelReq{
		QueueID: 1, KernelID: 2,
		Global: []int64{10}, Local: []int64{2},
		Args:       []KernelArg{{Kind: ArgBuffer, BufferID: 3}, {Kind: ArgScalar, Scalar: []byte{1, 2, 3, 4}}},
		WaitEvents: []int64{7},
	}
	body := EncodeMessage(in)
	for cut := 0; cut < len(body); cut++ {
		var out EnqueueKernelReq
		if err := DecodeMessage(&out, body[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// TestDecodeTruncatedPushMessages feeds every proper prefix of the p2p
// data-plane messages and the session-opening messages to the decoder and
// requires a clean error, never a panic or a silent partial decode — these
// decoders feed the node registration stage straight off the wire, and a
// session runs at one wire version, so no trailing field is optional.
func TestDecodeTruncatedPushMessages(t *testing.T) {
	cases := []struct{ in, out Message }{
		{&PushRangeReq{QueueID: 1, BufferID: 2, PeerName: "gpu-1", PeerBufferID: 3, Token: 4,
			Offset: 5, Size: 6, SimArrival: 7, DepartAt: 8, EventID: 9, ModelBytes: 10,
			WaitEvents: []int64{11}}, &PushRangeReq{}},
		{&PeerPushReq{Token: 1, Data: []byte{1, 2, 3}, SimArrival: 4}, &PeerPushReq{}},
		{&AwaitPushReq{QueueID: 1, BufferID: 2, Token: 3, Offset: 4, Size: 5, SimArrival: 6,
			EventID: 7, ModelBytes: 8, WaitEvents: []int64{9}}, &AwaitPushReq{}},
		{&CancelPushReq{Token: 1, Reason: "source died"}, &CancelPushReq{}},
		{&HelloReq{UserID: "u", ClientName: "c", WireVersion: Version}, &HelloReq{}},
		{&HelloReq{UserID: "u", ClientName: "c", WireVersion: Version, Epoch: 4,
			Peers: []PeerAddr{{Name: "gpu-0", Addr: "10.0.0.1:7010"}}}, &HelloReq{}},
		{&HelloResp{NodeName: "gpu-1", WireVersion: Version, BootID: 42,
			Devices: []DeviceInfo{{ID: 1, Type: DeviceGPU, Name: "GPU", Shared: true}}}, &HelloResp{}},
		{&CreateContextReq{DeviceIDs: []int64{3, 9}, SessionID: 7}, &CreateContextReq{}},
		{&CreateContextReq{DeviceIDs: []int64{3, 9}, SessionID: 7, Tenant: "team-a"}, &CreateContextReq{}},
	}
	for _, c := range cases {
		body := EncodeMessage(c.in)
		for cut := 0; cut < len(body); cut++ {
			if err := DecodeMessage(c.out, body[:cut]); err == nil {
				t.Fatalf("%T: truncation at %d decoded without error", c.in, cut)
			}
		}
	}
}

// TestHelloPeerListBackCompat: a Hello without an address book decodes
// with no peers and epoch 0, and one with peers round-trips them.
func TestHelloPeerListBackCompat(t *testing.T) {
	var out HelloReq
	roundTrip(t, &HelloReq{UserID: "u", ClientName: "c", WireVersion: Version}, &out)
	if out.UserID != "u" || out.Peers != nil || out.Epoch != 0 {
		t.Fatalf("peerless hello decoded to %+v", out)
	}

	in := &HelloReq{UserID: "u", WireVersion: Version, Epoch: 4,
		Peers: []PeerAddr{{Name: "gpu-0", Addr: "10.0.0.1:7010"}}}
	var withPeers HelloReq
	roundTrip(t, in, &withPeers)
	if !reflect.DeepEqual(in, &withPeers) {
		t.Fatalf("%+v != %+v", withPeers, in)
	}
}

// TestHelloEpochBootIDRoundTrip: the fault-tolerance fields of the Hello
// pair survive a round trip.
func TestHelloEpochBootIDRoundTrip(t *testing.T) {
	in := &HelloReq{UserID: "u", ClientName: "c", WireVersion: 3, Epoch: 7,
		Peers: []PeerAddr{{Name: "gpu-1", Addr: "mem://gpu-1"}}}
	var out HelloReq
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("%+v != %+v", out, in)
	}

	resp := &HelloResp{NodeName: "gpu-1", WireVersion: 3, BootID: 42}
	var outResp HelloResp
	roundTrip(t, resp, &outResp)
	if outResp.NodeName != resp.NodeName || outResp.WireVersion != resp.WireVersion ||
		outResp.BootID != resp.BootID {
		t.Fatalf("%+v != %+v", outResp, resp)
	}
}

// TestCreateContextSessionBackCompat: the session identity of
// CreateContextReq survives a round trip.
func TestCreateContextSessionBackCompat(t *testing.T) {
	in := &CreateContextReq{DeviceIDs: []int64{3, 9}, SessionID: 7, Tenant: "team-a"}
	var out CreateContextReq
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("%+v != %+v", out, in)
	}
}

func TestRemoteError(t *testing.T) {
	err := &RemoteError{Op: OpBuildProgram, Code: CodeBuildFailed, Message: "no kernel"}
	if !errors.Is(err, ErrRemote) {
		t.Fatal("RemoteError must match ErrRemote")
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestOpAndKindStrings(t *testing.T) {
	for op := OpHello; op <= OpCancelPush; op++ {
		if s := op.String(); s == "" || s[0] == 'O' && s[1] == 'p' && s[2] == '(' {
			t.Fatalf("op %d has no name: %q", op, s)
		}
	}
	if Op(999).String() != "Op(999)" {
		t.Fatal("unknown op formatting broken")
	}
	for k := ObjContext; k <= ObjEvent; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	for _, dt := range []DeviceType{DeviceCPU, DeviceGPU, DeviceFPGA} {
		if dt.String() == "" {
			t.Fatal("device type name missing")
		}
	}
}

func TestProfileDuration(t *testing.T) {
	p := Profile{Start: 100, End: 350}
	if p.DurationNS() != 250 {
		t.Fatalf("DurationNS = %d", p.DurationNS())
	}
}

// TestDeviceInfoQuick round-trips DeviceInfo through HelloResp with
// testing/quick generating the struct.
func TestDeviceInfoQuick(t *testing.T) {
	check := func(id uint32, name string, peak float64, shared bool) bool {
		in := &HelloResp{NodeName: "n", Devices: []DeviceInfo{{
			ID: id, Type: DeviceFPGA, Name: name, PeakGFLOPS: peak, Shared: shared,
		}}}
		var out HelloResp
		if err := DecodeMessage(&out, EncodeMessage(in)); err != nil {
			return false
		}
		return reflect.DeepEqual(in, &out)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
