package core_test

import (
	"strings"
	"testing"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// runIncrBurst pushes a pipelined burst of dependent incr launches through
// one queue and returns the functional result and the virtual makespan.
func runIncrBurst(t *testing.T, rt *core.Runtime) ([]float32, vtime.Time) {
	t.Helper()
	ctx, err := rt.CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("incr")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, int32(4)); err != nil {
		t.Fatal(err)
	}
	// The burst streams out without any synchronization: exactly the
	// command shape the coalescer packs into envelopes.
	const launches = 50
	for i := 0; i < launches; i++ {
		if _, err := q.EnqueueKernel(k, []int{4}, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := q.EnqueueRead(buf, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	return mem.BytesF32(data), rt.Metrics().Makespan
}

// TestBatchingNegotiatedByDefault checks the coalesced command path
// computes correctly end to end.
func TestBatchingNegotiatedByDefault(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	got, makespan := runIncrBurst(t, rt)
	want := []float32{51, 52, 53, 54}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	if makespan <= 0 {
		t.Fatal("no virtual makespan")
	}
}

// TestConnectRefusesOtherWireVersion stands up a node that accepts the
// Hello but answers it at wire version 2: a session runs at exactly
// protocol.Version, so Connect must fail instead of pinning the session
// at whatever the node claims.
func TestConnectRefusesOtherWireVersion(t *testing.T) {
	cfg := cluster.Synthetic("version-test", 0, 1, 0, nil)
	net := transport.NewMemNetwork()
	srv := transport.NewStaticServer(transport.HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		if op != protocol.OpHello {
			return nil, &protocol.RemoteError{Code: protocol.CodeUnsupported, Message: "unsupported"}
		}
		return &protocol.HelloResp{
			NodeName:    "v2-node",
			Devices:     []protocol.DeviceInfo{{ID: 1, Type: protocol.DeviceGPU, Name: "GPU", Shared: true}},
			WireVersion: 2,
		}, nil
	}))
	defer srv.Close()
	if err := net.Register(cfg.Nodes[0].Addr, srv); err != nil {
		t.Fatal(err)
	}
	rt, err := core.Connect(core.Options{Config: cfg, Dialer: net, ClientName: "version-test"})
	if err == nil {
		rt.Close()
		t.Fatal("Connect accepted a node answering at wire version 2")
	}
	if !strings.Contains(err.Error(), "wire version 2") {
		t.Fatalf("err = %v, want a wire-version refusal", err)
	}
}
