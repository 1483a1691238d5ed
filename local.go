package haocl

import (
	"fmt"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// LocalClusterSpec describes an in-process simulated cluster. Either give
// node counts (the paper's homogeneous-node layout: one device per node)
// or a full Config for arbitrary topologies.
type LocalClusterSpec struct {
	// UserID identifies the host user to the NMPs.
	UserID string

	// CPUNodes, GPUNodes and FPGANodes spin up that many single-device
	// nodes. Ignored when Config is set.
	CPUNodes  int
	GPUNodes  int
	FPGANodes int
	// Bitstreams lists the pre-built kernels for FPGA devices.
	Bitstreams []string

	// Config, when set, describes the topology explicitly.
	Config *ClusterConfig

	// Kernels is the kernel implementation registry shared by every
	// node. Required.
	Kernels *KernelRegistry

	// ExecWorkers caps functional execution parallelism per node (many
	// simulated nodes share one OS process; 1 keeps them fair).
	ExecWorkers int

	// SingleLane folds every node's dispatch onto one lane per session,
	// the serialized pre-lane execution (DESIGN.md §4). Benchmarks use it
	// as the baseline against per-queue lanes.
	SingleLane bool

	// Policy is the default scheduling policy.
	Policy Policy
}

// LocalCluster is a running in-process cluster: real Node Management
// Processes served over an in-memory backbone, plus a connected Platform.
type LocalCluster struct {
	// Platform is the connected host-side platform.
	Platform *Platform

	servers []*transport.Server
	nodes   []*node.Node
}

// StartLocalCluster builds the nodes, serves them on an in-memory network,
// and connects a Platform — everything a distributed deployment has except
// the TCP sockets (integration tests cover those via cmd/haocl-node).
func StartLocalCluster(spec LocalClusterSpec) (*LocalCluster, error) {
	if spec.Kernels == nil {
		return nil, fmt.Errorf("haocl: LocalClusterSpec.Kernels is required")
	}
	var internalCfg *cluster.Config
	if spec.Config != nil {
		var err error
		internalCfg, err = spec.Config.internal()
		if err != nil {
			return nil, err
		}
		internalCfg.UserID = firstNonEmpty(spec.Config.UserID, spec.UserID)
	} else {
		internalCfg = cluster.Synthetic(spec.UserID, spec.CPUNodes, spec.GPUNodes, spec.FPGANodes, spec.Bitstreams)
	}

	icd := device.NewICD()
	sim.RegisterDrivers(icd, spec.Kernels)
	net := transport.NewMemNetwork()

	lc := &LocalCluster{}
	for _, ns := range internalCfg.Nodes {
		devCfgs, err := ns.DeviceConfigs()
		if err != nil {
			lc.Close()
			return nil, err
		}
		n, err := node.New(node.Options{
			Name:        ns.Name,
			Devices:     devCfgs,
			ICD:         icd,
			ExecWorkers: spec.ExecWorkers,
			SingleLane:  spec.SingleLane,
			Dialer:      net,
		})
		if err != nil {
			lc.Close()
			return nil, err
		}
		srv := n.Serve()
		if err := net.Register(ns.Addr, srv); err != nil {
			srv.Close()
			lc.Close()
			return nil, err
		}
		lc.nodes = append(lc.nodes, n)
		lc.servers = append(lc.servers, srv)
	}

	platform, err := Connect(fromInternalConfig(internalCfg),
		withDialer(net),
		WithPolicy(spec.Policy),
		WithClientName("haocl-local"),
	)
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.Platform = platform
	return lc, nil
}

// Close disconnects the platform and stops every node server.
func (c *LocalCluster) Close() error {
	var firstErr error
	if c.Platform != nil {
		if err := c.Platform.Close(); err != nil {
			firstErr = err
		}
	}
	for _, s := range c.servers {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
