package transport

import (
	"net"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
)

// TestGarbageBytesDropConnection sends non-protocol bytes to a server: the
// connection must be dropped without disturbing other sessions.
func TestGarbageBytesDropConnection(t *testing.T) {
	srv := NewStaticServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A healthy client for later.
	good, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	// Raw garbage.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server must close the garbage connection.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server answered garbage")
	}
	raw.Close()

	// The healthy session still works.
	var resp protocol.HelloResp
	if err := good.Call(&protocol.HelloReq{UserID: "still-here"}, &resp); err != nil {
		t.Fatalf("healthy session broken by garbage peer: %v", err)
	}
}

// TestTruncatedFrameDropsConnection sends a frame header promising more
// bytes than arrive, then closes; the server must clean up.
func TestTruncatedFrameDropsConnection(t *testing.T) {
	srv := NewStaticServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Valid header claiming a 1000-byte body, then only 3 bytes.
	hdr := []byte{
		0x48, 0x41, // magic
		protocol.Version,
		byte(protocol.FrameRequest),
		0, 0, 0, 0, 0, 0, 0, 1, // reqID
		0, byte(protocol.OpHello), // op
		0, 0, 0x03, 0xE8, // length 1000
		1, 2, 3,
	}
	if _, err := raw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	// Server.Close must not hang on the half-dead connection.
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("server close hung on truncated connection")
	}
}

// TestNodeDeathFailsInFlightFutures kills the server while pipelined Go
// futures are in flight: every pending future must resolve to the sticky
// connection error, and futures issued afterwards must fail the same way
// without hanging.
func TestNodeDeathFailsInFlightFutures(t *testing.T) {
	block := make(chan struct{})
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		<-block // hold the dispatch worker so responses never go out
		return &protocol.EmptyResp{}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const inFlight = 8
	futures := make([]*Pending, inFlight)
	for i := range futures {
		futures[i] = client.Go(&protocol.HelloReq{UserID: "doomed"}, nil)
	}

	// Kill the server. Close waits for the blocked handler, so release it
	// once the teardown has started closing connections.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	time.Sleep(20 * time.Millisecond)
	close(block)
	<-closed

	for i, p := range futures {
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err == nil {
				// A future that raced the close may have its response; the
				// rest must consistently fail below.
				continue
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("future %d hung after node death", i)
		}
	}
	// The connection error is sticky: new futures fail immediately too.
	if err := client.Go(&protocol.HelloReq{}, nil).Wait(); err == nil {
		t.Fatal("future on dead connection resolved successfully")
	}
}

// TestNodeDeathFailsPendingCalls kills the server while calls are in
// flight; every caller must get an error, not a hang.
func TestNodeDeathFailsPendingCalls(t *testing.T) {
	block := make(chan struct{})
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		<-block // hold requests open
		return &protocol.EmptyResp{}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			errs <- client.Call(&protocol.HelloReq{}, nil)
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the calls reach the server
	close(block)
	srv.Close()
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err == nil {
				// Calls that raced the close may have completed; fine.
				continue
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending call hung after server death")
		}
	}
}

// TestLateCallWaitsForOnDown issues a call while the connection's failure
// is being announced: the call must not fail before the OnDown callback
// returns, or a caller checking the state the callback establishes (the
// host marks the node dead there) could observe a failed command on a
// node that still looks alive.
func TestLateCallWaitsForOnDown(t *testing.T) {
	hostEnd, nodeEnd := net.Pipe()
	client := NewClient(hostEnd)
	defer client.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	client.OnDown(func(error) {
		close(entered)
		<-release
	})
	nodeEnd.Close()
	<-entered // the client is closed; the callback has not returned

	done := make(chan error, 1)
	go func() { done <- client.Go(&protocol.NodeStatusReq{}, nil).Wait() }()
	select {
	case err := <-done:
		t.Fatalf("late call failed (%v) before the OnDown callback returned", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("late call on a dead connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late call hung after the OnDown callback returned")
	}
}
