package netsim

import (
	"fmt"

	"pet/internal/rng"
	"pet/internal/sim"
	"pet/internal/telemetry"
	"pet/internal/topo"
)

// Endpoint receives packets addressed to a host. Transports implement it.
type Endpoint interface {
	Deliver(pkt *Packet)
}

// Config sets network-wide modelling parameters. Zero values take defaults.
type Config struct {
	MTU            int // data packet size on the wire (default 1000 B)
	BufferPerQueue int // per data queue, bytes (default 1 MiB)
	DataQueues     int // data queues per switch port (default 1)
	DefaultECN     ECNConfig
	PFC            PFCConfig          // hop-by-hop pause; disabled unless Enabled
	SharedBuffer   SharedBufferConfig // per-switch DT pool; disabled unless Enabled

	// Telemetry, when non-nil, receives live counters (enqueues, transmits,
	// ECN marks, drops, PFC pauses) and per-switch-port queue-depth gauges.
	// Observation-only: a nil registry costs one nil check per event.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.MTU == 0 {
		c.MTU = 1000
	}
	if c.BufferPerQueue == 0 {
		c.BufferPerQueue = 1 << 20
	}
	if c.DataQueues == 0 {
		c.DataQueues = 1
	}
	return c
}

// Network ties an engine, a topology and its routing tables together with
// the per-direction egress ports and host endpoints.
type Network struct {
	eng     *sim.Engine
	g       *topo.Graph
	routing *topo.Routing
	cfg     Config

	// ports[link][side]: side 0 transmits from link.A, side 1 from link.B.
	ports     [][2]*Port
	endpoints []Endpoint
	salts     []uint64

	pfcCfg   PFCConfig
	pfc      map[topo.NodeID]*pfcState
	pfcStats PFCStats

	sbCfg     SharedBufferConfig
	sharedBuf map[topo.NodeID]*sharedBufState

	tm netMetrics

	pool      packetPool
	deliverFn func(any) // cached propagation callback; arg is the *Packet

	dropsUnreachable uint64
}

// New builds the runtime network over a topology. The graph must not gain
// nodes or links afterwards (link Up state may change freely).
func New(eng *sim.Engine, g *topo.Graph, seed int64, cfg Config) *Network {
	cfg = cfg.withDefaults()
	root := rng.New(seed)
	n := &Network{
		eng:       eng,
		g:         g,
		cfg:       cfg,
		ports:     make([][2]*Port, len(g.Links)),
		endpoints: make([]Endpoint, len(g.Nodes)),
		salts:     make([]uint64, len(g.Nodes)),
		pfcCfg:    cfg.PFC.withDefaults(),
		pfc:       make(map[topo.NodeID]*pfcState),
		sbCfg:     cfg.SharedBuffer.withDefaults(),
		sharedBuf: make(map[topo.NodeID]*sharedBufState),
		tm:        newNetMetrics(cfg.Telemetry),
	}
	n.deliverFn = func(arg any) {
		pkt := arg.(*Packet)
		n.deliver(pkt.hopNode, pkt.hopLink, pkt)
	}
	saltStream := root.Split("ecmp")
	for i := range n.salts {
		n.salts[i] = uint64(saltStream.Int63())
	}
	for _, l := range g.Links {
		for side, owner := range [2]topo.NodeID{l.A, l.B} {
			nQ, buf, ecn := cfg.DataQueues, cfg.BufferPerQueue, cfg.DefaultECN
			if g.Node(owner).Kind == topo.Host {
				// Host NICs do not run the switch AQM: the transport
				// paces, so the NIC queue is a plain deep FIFO.
				nQ, ecn = 1, ECNConfig{}
				buf = 16 << 20
			}
			r := root.SplitN("port", int(l.ID)*2+side)
			p := newPort(n, owner, l.ID, nQ, buf, ecn, r)
			if g.Node(owner).Kind != topo.Host {
				// Only switch ports get a live occupancy gauge: they are the
				// queues ECN control manages, and host NICs would multiply
				// the series count without adding tuning signal.
				p.qGauge = portQueueGauge(cfg.Telemetry, int(owner), int(l.ID))
			}
			n.ports[l.ID][side] = p
		}
	}
	n.routing = topo.ComputeRouting(g)
	return n
}

// Engine returns the event engine driving this network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Graph returns the underlying topology.
func (n *Network) Graph() *topo.Graph { return n.g }

// Config returns the effective (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// PortFrom returns the egress port at node `from` onto `link`.
func (n *Network) PortFrom(from topo.NodeID, link topo.LinkID) *Port {
	l := n.g.Link(link)
	switch from {
	case l.A:
		return n.ports[link][0]
	case l.B:
		return n.ports[link][1]
	}
	panic(fmt.Sprintf("netsim: node %d not on link %d", from, link))
}

// HostPort returns the single egress port of a host NIC.
func (n *Network) HostPort(h topo.NodeID) *Port {
	node := n.g.Node(h)
	if node.Kind != topo.Host {
		panic("netsim: HostPort on non-host")
	}
	return n.PortFrom(h, node.Links[0])
}

// SwitchPorts returns every egress port owned by a switch, in deterministic
// (link, side) order. These are the ports ECN controllers manage.
func (n *Network) SwitchPorts() []*Port {
	var out []*Port
	for _, pair := range n.ports {
		for _, p := range pair {
			if n.g.Node(p.owner).Kind != topo.Host {
				out = append(out, p)
			}
		}
	}
	return out
}

// RegisterEndpoint installs the packet receiver for a host.
func (n *Network) RegisterEndpoint(h topo.NodeID, ep Endpoint) {
	if n.g.Node(h).Kind != topo.Host {
		panic("netsim: RegisterEndpoint on non-host")
	}
	n.endpoints[h] = ep
}

// SendFromHost injects a packet at the host's NIC. The transport is
// responsible for pacing; the NIC is a deep FIFO. Ownership of the packet
// passes to the network, which recycles it once delivered or dropped.
func (n *Network) SendFromHost(h topo.NodeID, pkt *Packet) {
	pkt.assertLive("SendFromHost")
	p := n.HostPort(h)
	if pkt.SentAt == 0 {
		pkt.SentAt = n.eng.Now()
	}
	p.Enqueue(pkt)
}

// deliver hands a packet arriving at `node` via `link` to the endpoint
// (hosts) or the forwarding plane (switches). Delivery to a host is the end
// of the packet's life: once the endpoint's Deliver returns, the packet is
// released back to the pool, so endpoints must not retain it.
func (n *Network) deliver(node topo.NodeID, via topo.LinkID, pkt *Packet) {
	if n.g.Node(node).Kind == topo.Host {
		if ep := n.endpoints[node]; ep != nil {
			ep.Deliver(pkt)
		}
		n.releasePacket(pkt)
		return
	}
	n.forward(node, via, pkt)
}

// forward routes a packet at a switch: ECMP-hash the flow over the
// shortest-path next hops and enqueue at the chosen egress port. With PFC
// enabled, accepted data packets are attributed to their ingress link.
func (n *Network) forward(sw topo.NodeID, via topo.LinkID, pkt *Packet) {
	hops := n.routing.NextHops(sw, pkt.Dst)
	if len(hops) == 0 {
		n.dropsUnreachable++
		n.tm.dropsNoRoute.Inc()
		n.releasePacket(pkt)
		return
	}
	idx := 0
	if len(hops) > 1 {
		idx = int(ecmpHash(uint64(pkt.Flow), n.salts[sw]) % uint64(len(hops)))
	}
	accepted := n.PortFrom(sw, hops[idx]).Enqueue(pkt)
	if accepted && n.pfcCfg.Enabled && pkt.Kind == Data {
		pkt.arrivedVia = via
		n.pfcArrived(sw, via, pkt)
	}
}

// DropsUnreachable counts packets discarded for lack of a route (only
// possible while links are down).
func (n *Network) DropsUnreachable() uint64 { return n.dropsUnreachable }

// SetLinkUp changes a link's state and recomputes routing. In-queue packets
// on a downed link are discarded at transmit time.
func (n *Network) SetLinkUp(link topo.LinkID, up bool) {
	n.g.Link(link).Up = up
	n.RecomputeRouting()
}

// SetLinksUp batch-changes link states with a single routing recompute.
func (n *Network) SetLinksUp(links []topo.LinkID, up bool) {
	for _, l := range links {
		n.g.Link(l).Up = up
	}
	n.RecomputeRouting()
}

// RecomputeRouting rebuilds ECMP tables after link-state edits.
func (n *Network) RecomputeRouting() { n.routing = topo.ComputeRouting(n.g) }

// Routing exposes the current routing table (read-only use).
func (n *Network) Routing() *topo.Routing { return n.routing }

// ecmpHash scrambles (flow, salt) into a stable per-switch path choice.
func ecmpHash(flow, salt uint64) uint64 {
	x := flow ^ salt
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
