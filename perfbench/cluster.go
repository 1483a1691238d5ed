package main

import (
	"fmt"
	"net"
	"sync"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/apps/bfs"
	"github.com/haocl-project/haocl/internal/apps/cfd"
	"github.com/haocl-project/haocl/internal/apps/knn"
	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/apps/spmv"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// registry installs every Table I kernel, the set each benchmark node
// executes from.
func registry() *haocl.KernelRegistry {
	reg := haocl.NewKernelRegistry()
	matmul.RegisterKernels(reg)
	spmv.RegisterKernels(reg)
	knn.RegisterKernels(reg)
	bfs.RegisterKernels(reg)
	cfd.RegisterKernels(reg)
	return reg
}

// cluster is a set of in-process GPU nodes served on loopback TCP plus the
// host platform connected to them: the deployment shape of
// cmd/haocl-node, minus the separate processes.
type cluster struct {
	P *haocl.Platform

	servers []*transport.Server
	lns     []net.Listener // probed clusters accept connections themselves
	accepts sync.WaitGroup
}

// startCluster brings up gpus single-GPU nodes and connects a platform.
// With a probe, every layer boundary the traced run measures is wrapped:
// the ICD driver (kernel execution), the per-connection node session
// (registration and completion), the node-side connections (bytes, frames,
// envelopes, writes) and the node's peer dialer. Without one, the nodes are
// exactly what node.Serve builds.
func startCluster(gpus int, pr *probe) (*cluster, error) {
	icd := device.NewICD()
	if pr == nil {
		sim.RegisterDrivers(icd, registry())
	} else {
		inner := device.NewICD()
		sim.RegisterDrivers(inner, registry())
		icd.MustRegister(sim.DriverGPU, func(cfg device.Config) (device.Device, error) {
			dev, err := inner.Open(cfg)
			if err != nil {
				return nil, err
			}
			return &probedDevice{Device: dev, pr: pr}, nil
		})
	}
	c := &cluster{}
	cfg := &haocl.ClusterConfig{UserID: "perfbench"}
	for i := 0; i < gpus; i++ {
		name := fmt.Sprintf("gpu-%d", i)
		opts := node.Options{
			Name:        name,
			Devices:     []device.Config{{Driver: sim.DriverGPU, ID: 1, Shared: true}},
			ICD:         icd,
			ExecWorkers: 1,
			Dialer:      transport.TCPDialer{},
		}
		if pr != nil {
			opts.Dialer = peerDialer{pr: pr}
		}
		n, err := node.New(opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		addr, err := c.serve(n, pr)
		if err != nil {
			c.Close()
			return nil, err
		}
		cfg.Nodes = append(cfg.Nodes, haocl.NodeSpec{
			Name: name, Addr: addr,
			Devices: []haocl.DeviceSpec{{Type: "gpu", Shared: true}},
		})
	}
	p, err := haocl.Connect(cfg, haocl.WithClientName("perfbench"))
	if err != nil {
		c.Close()
		return nil, err
	}
	c.P = p
	return c, nil
}

// serve starts n's message listener and returns its address.
func (c *cluster) serve(n *node.Node, pr *probe) (string, error) {
	if pr == nil {
		srv := n.Serve()
		c.servers = append(c.servers, srv)
		return srv.Listen("127.0.0.1:0")
	}
	srv := transport.NewServer(func() transport.Handler {
		return &probedSession{inner: n.NewSession().(transport.AsyncHandler), pr: pr}
	})
	c.servers = append(c.servers, srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	c.lns = append(c.lns, ln)
	c.accepts.Add(1)
	go func() {
		defer c.accepts.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			srv.ServeConn(pr.nodeConn(conn))
		}
	}()
	return ln.Addr().String(), nil
}

// Close disconnects the platform and stops every node, waiting for their
// goroutines.
func (c *cluster) Close() {
	if c.P != nil {
		// Teardown errors of a finished run change nothing the benchmark
		// reports.
		_ = c.P.Close()
	}
	for _, ln := range c.lns {
		ln.Close()
	}
	c.accepts.Wait()
	for _, s := range c.servers {
		_ = s.Close()
	}
}
