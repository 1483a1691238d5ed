package protocol

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// subFramesEqual compares two frame slices field by field.
func subFramesEqual(a, b []*Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].ReqID != b[i].ReqID || a[i].Op != b[i].Op ||
			!bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

// batchRoundTrip encodes subs into an envelope, ships it through
// WriteFrameTo/ReadFrame, and decodes it back.
func batchRoundTrip(t *testing.T, subs []*Frame) []*Frame {
	t.Helper()
	env, err := EncodeBatch(subs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if env.Kind != FrameBatch || env.Op != OpBatch {
		t.Fatalf("envelope = kind %d op %s", env.Kind, env.Op)
	}
	var buf bytes.Buffer
	if err := WriteFrameTo(&buf, env, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Batch frames carry the VersionBatch header byte; plain frames
	// carry MinVersion.
	if v := buf.Bytes()[2]; v != VersionBatch {
		t.Fatalf("envelope version byte = %d, want %d", v, VersionBatch)
	}
	read, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	out, err := DecodeBatch(read)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestBatchRoundTripEmpty(t *testing.T) {
	out := batchRoundTrip(t, nil)
	if len(out) != 0 {
		t.Fatalf("decoded %d sub-frames from empty batch", len(out))
	}
}

func TestBatchRoundTripSingle(t *testing.T) {
	subs := []*Frame{{Kind: FrameRequest, ReqID: 7, Op: OpEnqueueKernel, Body: []byte("launch")}}
	if out := batchRoundTrip(t, subs); !subFramesEqual(subs, out) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestBatchRoundTripMixed(t *testing.T) {
	// Requests and responses of different ops, empty and non-empty
	// bodies, in one envelope; order must be preserved exactly.
	subs := []*Frame{
		{Kind: FrameRequest, ReqID: 1, Op: OpWriteBuffer, Body: bytes.Repeat([]byte{0xAB}, 512)},
		{Kind: FrameRequest, ReqID: 2, Op: OpEnqueueKernel, Body: []byte{1}},
		{Kind: FrameResponse, ReqID: 1, Op: OpWriteBuffer},
		{Kind: FrameResponse, ReqID: 3, Op: OpError, Body: []byte("boom")},
		{Kind: FrameRequest, ReqID: 4, Op: OpFinishQueue, Body: []byte{9, 9}},
	}
	if out := batchRoundTrip(t, subs); !subFramesEqual(subs, out) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestBatchRoundTripMaxSize(t *testing.T) {
	// The largest envelope a coalescing writer produces: MaxBatchMessages
	// sub-frames, each at the batchable body limit.
	subs := make([]*Frame, MaxBatchMessages)
	for i := range subs {
		body := make([]byte, BatchableBodyLimit)
		for j := range body {
			body[j] = byte(i * j)
		}
		subs[i] = &Frame{Kind: FrameRequest, ReqID: uint64(i + 1), Op: OpWriteBuffer, Body: body}
	}
	if out := batchRoundTrip(t, subs); !subFramesEqual(subs, out) {
		t.Fatal("max-size round trip mismatch")
	}
}

func TestBatchRejectsNested(t *testing.T) {
	inner, err := EncodeBatch([]*Frame{{Kind: FrameRequest, ReqID: 1, Op: OpHello}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeBatch([]*Frame{inner}); !errors.Is(err, ErrNestedBatch) {
		t.Fatalf("encode nested: err = %v", err)
	}
	// A hand-built envelope containing a batch sub-frame must be rejected
	// on decode too.
	e := NewEncoder()
	e.U32(1)
	e.U8(uint8(FrameBatch))
	e.U64(1)
	e.U16(uint16(OpBatch))
	e.Blob(nil)
	f := &Frame{Kind: FrameBatch, Op: OpBatch, Body: e.Bytes()}
	if _, err := DecodeBatch(f); !errors.Is(err, ErrNestedBatch) {
		t.Fatalf("decode nested: err = %v", err)
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	cases := map[string]*Frame{
		"not a batch":   {Kind: FrameRequest, Op: OpHello},
		"hostile count": {Kind: FrameBatch, Op: OpBatch, Body: []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		"short body":    {Kind: FrameBatch, Op: OpBatch, Body: []byte{0, 0, 0, 2, 1}},
		"empty buffer":  {Kind: FrameBatch, Op: OpBatch},
	}
	for name, f := range cases {
		if _, err := DecodeBatch(f); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// Trailing garbage after the counted sub-frames is an error: the
	// envelope must parse exactly or the connection's framing is suspect.
	env, err := EncodeBatch([]*Frame{{Kind: FrameRequest, ReqID: 1, Op: OpHello}})
	if err != nil {
		t.Fatal(err)
	}
	env.Body = append(env.Body, 0xEE)
	if _, err := DecodeBatch(env); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("trailing bytes: err = %v", err)
	}
}

func TestDecodeBatchTruncations(t *testing.T) {
	subs := []*Frame{
		{Kind: FrameRequest, ReqID: 5, Op: OpWriteBuffer, Body: []byte{1, 2, 3, 4, 5}},
		{Kind: FrameResponse, ReqID: 6, Op: OpReadBuffer, Body: []byte{6}},
	}
	env, err := EncodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(env.Body); cut++ {
		f := &Frame{Kind: FrameBatch, Op: OpBatch, Body: env.Body[:cut]}
		if _, err := DecodeBatch(f); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// TestBatchPropertyRoundTrip round-trips randomized envelopes.
func TestBatchPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		subs := make([]*Frame, rng.Intn(MaxBatchMessages+1))
		for i := range subs {
			var body []byte
			if n := rng.Intn(256); n > 0 {
				body = make([]byte, n)
				rng.Read(body)
			}
			kind := FrameRequest
			if rng.Intn(2) == 0 {
				kind = FrameResponse
			}
			subs[i] = &Frame{Kind: kind, ReqID: rng.Uint64(), Op: Op(rng.Intn(64)), Body: body}
		}
		if out := batchRoundTrip(t, subs); !subFramesEqual(subs, out) {
			t.Fatalf("round %d mismatch", round)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the full frame pipeline —
// ReadFrame, and DecodeBatch when the frame claims to be an envelope — and
// requires clean errors, never panics or hangs. It runs its seed corpus
// under plain `go test`.
func FuzzDecodeFrame(f *testing.F) {
	// Seeds: valid plain frame, valid envelope, and classic corruptions.
	plain, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 3, Op: OpHello, Body: []byte("hi")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	env, err := EncodeBatch([]*Frame{
		{Kind: FrameRequest, ReqID: 1, Op: OpWriteBuffer, Body: []byte{1, 2, 3}},
		{Kind: FrameResponse, ReqID: 2, Op: OpError, Body: []byte("x")},
	})
	if err != nil {
		f.Fatal(err)
	}
	envBytes, err := AppendFrame(nil, env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(envBytes)
	f.Add(envBytes[:len(envBytes)-3]) // truncated body
	f.Add([]byte{})
	f.Add([]byte{0xDE, 0xAD})                           // bad magic
	f.Add(append([]byte{0x48, 0x41, 99}, plain[3:]...)) // bad version
	// P2p data-plane frames: a PushRange command and a truncated variant.
	pushFrame, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 9, Op: OpPushRange,
		Body: EncodeMessage(&PushRangeReq{QueueID: 1, BufferID: 2, PeerName: "gpu-1",
			PeerBufferID: 3, Token: 4, Size: 64, WaitEvents: []int64{5}})})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pushFrame)
	f.Add(pushFrame[:len(pushFrame)-5])
	// Session-era frames: a rejoin hello with an epoch and a context
	// request carrying the appended tenant identity, plus a truncation
	// that lands inside the tenant string.
	sessHello, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 11, Op: OpHello,
		Body: EncodeMessage(&HelloReq{UserID: "u", WireVersion: Version, Epoch: 3,
			Peers: []PeerAddr{{Name: "gpu-0", Addr: "mem://gpu-0"}}})})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sessHello)
	sessCtx, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 12, Op: OpCreateContext,
		Body: EncodeMessage(&CreateContextReq{DeviceIDs: []int64{1, 2}, SessionID: 7, Tenant: "team-a"})})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sessCtx)
	f.Add(sessCtx[:len(sessCtx)-4])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if fr.Kind != FrameBatch {
			return
		}
		subs, err := DecodeBatch(fr)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same frames:
		// the codec is self-consistent on its accepted inputs.
		env, err := EncodeBatch(subs)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		again, err := DecodeBatch(env)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !subFramesEqual(subs, again) {
			t.Fatal("re-round-trip mismatch")
		}
	})
}

// FuzzDecodeMessage shreds arbitrary bodies against every request decoder
// the node dispatch feeds, mirroring what a hostile batched peer can ship.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(uint16(OpWriteBuffer), EncodeMessage(&WriteBufferReq{QueueID: 1, Data: []byte{1, 2}}))
	f.Add(uint16(OpEnqueueKernel), EncodeMessage(&EnqueueKernelReq{QueueID: 1, Global: []int64{8}}))
	f.Add(uint16(OpHello), EncodeMessage(&HelloReq{UserID: "u", WireVersion: Version,
		Peers: []PeerAddr{{Name: "gpu-0", Addr: "10.0.0.1:7010"}}}))
	f.Add(uint16(OpPushRange), EncodeMessage(&PushRangeReq{QueueID: 1, BufferID: 2,
		PeerName: "gpu-1", PeerBufferID: 3, Token: 4, Offset: 8, Size: 64, WaitEvents: []int64{5}}))
	f.Add(uint16(OpPeerPush), EncodeMessage(&PeerPushReq{Token: 4, Data: []byte{1, 2, 3}}))
	f.Add(uint16(OpAwaitPush), EncodeMessage(&AwaitPushReq{QueueID: 1, BufferID: 2, Token: 4, Size: 64}))
	f.Add(uint16(OpCancelPush), EncodeMessage(&CancelPushReq{Token: 4, Reason: "gone"}))
	f.Add(uint16(OpHello), EncodeMessage(&HelloReq{UserID: "u", WireVersion: Version, Epoch: 3}))
	f.Add(uint16(OpCreateContext), EncodeMessage(&CreateContextReq{
		DeviceIDs: []int64{1, 2}, SessionID: 7, Tenant: "team-a"}))
	f.Fuzz(func(t *testing.T, op uint16, body []byte) {
		var msgs = []Message{
			&HelloReq{}, &HelloResp{}, &GetDeviceInfosReq{}, &GetDeviceInfosResp{},
			&CreateContextReq{}, &CreateQueueReq{}, &CreateBufferReq{},
			&WriteBufferReq{}, &ReadBufferReq{}, &ReadBufferResp{}, &CopyBufferReq{},
			&BuildProgramReq{}, &BuildProgramResp{}, &CreateKernelReq{},
			&EnqueueKernelReq{}, &FinishQueueReq{}, &QueryEventReq{},
			&ReleaseReq{}, &NodeStatusResp{}, &ErrorResp{},
			&PushRangeReq{}, &PeerPushReq{}, &AwaitPushReq{}, &CancelPushReq{},
		}
		m := msgs[int(op)%len(msgs)]
		_ = DecodeMessage(m, body) // must not panic
	})
}
