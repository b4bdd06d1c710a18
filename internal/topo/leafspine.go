package topo

import (
	"fmt"

	"pet/internal/sim"
)

// LeafSpineConfig parameterizes a two-tier Clos fabric: every leaf connects
// to every spine, and hosts hang off leaves.
type LeafSpineConfig struct {
	Spines       int
	Leaves       int
	HostsPerLeaf int
	HostLinkBps  float64  // host <-> leaf bandwidth
	UplinkBps    float64  // leaf <-> spine bandwidth
	HostDelay    sim.Time // host <-> leaf propagation delay
	UplinkDelay  sim.Time // leaf <-> spine propagation delay
}

// PaperScale reproduces the topology of the paper's large-scale simulation
// (Sec. 5.2): 288 hosts, 12 leaves with 24×25 Gbps host ports, 6 spines over
// 100 Gbps uplinks.
func PaperScale() LeafSpineConfig {
	return LeafSpineConfig{
		Spines:       6,
		Leaves:       12,
		HostsPerLeaf: 24,
		HostLinkBps:  25e9,
		UplinkBps:    100e9,
		HostDelay:    1 * sim.Microsecond,
		UplinkDelay:  1 * sim.Microsecond,
	}
}

// SmallScale is a laptop-friendly fabric keeping the paper's 4:1
// uplink:host speed ratio; its uplinks carry twice the host capacity (the
// paper's leaf is 1:1, which MediumScale keeps).
func SmallScale() LeafSpineConfig {
	return LeafSpineConfig{
		Spines:       2,
		Leaves:       4,
		HostsPerLeaf: 4,
		HostLinkBps:  10e9,
		UplinkBps:    40e9,
		HostDelay:    1 * sim.Microsecond,
		UplinkDelay:  1 * sim.Microsecond,
	}
}

// TinyScale is the smallest fabric that still exercises multi-path routing;
// used by unit tests.
func TinyScale() LeafSpineConfig {
	return LeafSpineConfig{
		Spines:       2,
		Leaves:       2,
		HostsPerLeaf: 2,
		HostLinkBps:  10e9,
		UplinkBps:    20e9,
		HostDelay:    1 * sim.Microsecond,
		UplinkDelay:  1 * sim.Microsecond,
	}
}

// LeafSpine holds the built graph plus role indices for convenient lookup.
type LeafSpine struct {
	Graph  *Graph
	Config LeafSpineConfig
	Hosts  []NodeID
	Leaves []NodeID
	Spines []NodeID
}

// BuildLeafSpine constructs the fabric described by cfg. An invalid config
// panics — it is an internal invariant here; code assembling configs from
// user input (the CLIs) calls Validate first and reports the typed error.
func BuildLeafSpine(cfg LeafSpineConfig) *LeafSpine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	g := &Graph{}
	ls := &LeafSpine{Graph: g, Config: cfg}
	for i := 0; i < cfg.Spines; i++ {
		ls.Spines = append(ls.Spines, g.AddNode(Spine, fmt.Sprintf("spine%d", i)))
	}
	for i := 0; i < cfg.Leaves; i++ {
		leaf := g.AddNode(Leaf, fmt.Sprintf("leaf%d", i))
		ls.Leaves = append(ls.Leaves, leaf)
		for _, sp := range ls.Spines {
			g.Connect(leaf, sp, cfg.UplinkBps, cfg.UplinkDelay)
		}
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			host := g.AddNode(Host, fmt.Sprintf("h%d-%d", i, h))
			ls.Hosts = append(ls.Hosts, host)
			g.Connect(host, leaf, cfg.HostLinkBps, cfg.HostDelay)
		}
	}
	return ls
}

// LeafOf returns the leaf switch a host is attached to.
func (ls *LeafSpine) LeafOf(h NodeID) NodeID {
	n := ls.Graph.Node(h)
	if n.Kind != Host {
		panic("topo: LeafOf on non-host")
	}
	l := ls.Graph.Link(n.Links[0])
	return l.Peer(h)
}
