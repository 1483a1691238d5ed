package transport

import (
	"fmt"

	"github.com/haocl-project/haocl/internal/protocol"
)

// Handshake performs the Hello exchange on a freshly dialed client. It
// offers protocol.Version and refuses a node that answers with any other
// version: a session runs at exactly one wire version. Both the host
// runtime and node peer-dialing share this path, so the two kinds of
// sessions agree on the rule.
func Handshake(client *Client, req protocol.HelloReq) (protocol.HelloResp, error) {
	req.WireVersion = protocol.Version
	var resp protocol.HelloResp
	if err := client.Call(&req, &resp); err != nil {
		return resp, err
	}
	if resp.WireVersion != protocol.Version {
		return resp, fmt.Errorf("transport: node answered Hello with wire version %d, want %d",
			resp.WireVersion, protocol.Version)
	}
	return resp, nil
}
