package netsim

import (
	"pet/internal/rng"
	"pet/internal/sim"
	"pet/internal/telemetry"
	"pet/internal/topo"
)

// ECNConfig is the RED/ECN marking configuration of one egress data queue:
// below KminBytes nothing is marked, above KmaxBytes everything is, and in
// between packets are marked with probability rising linearly to Pmax.
// This is the AQM parameter triple tuned by PET (Eq. 4 of the paper).
type ECNConfig struct {
	Enabled   bool
	KminBytes int
	KmaxBytes int
	Pmax      float64
}

// markProb returns the marking probability at instantaneous queue length q.
func (c ECNConfig) markProb(q int) float64 {
	if !c.Enabled || q < c.KminBytes {
		return 0
	}
	if q >= c.KmaxBytes || c.KmaxBytes <= c.KminBytes {
		return 1
	}
	return c.Pmax * float64(q-c.KminBytes) / float64(c.KmaxBytes-c.KminBytes)
}

// PortStats are cumulative counters; controllers compute rates from deltas.
type PortStats struct {
	TxPackets       uint64
	TxBytes         uint64
	TxMarkedPackets uint64
	TxMarkedBytes   uint64
	EnqPackets      uint64
	EnqBytes        uint64
	DropsOverflow   uint64
	DropsLinkDown   uint64
}

// dataQueue is one class queue at an egress port with its own ECN config.
type dataQueue struct {
	q     fifo
	bytes int
	ecn   ECNConfig
}

// Port is the egress side of one link direction: one strict-priority control
// queue, one or more data queues served round-robin, a RED/ECN marker, and a
// serializing transmitter.
type Port struct {
	net   *Network
	owner topo.NodeID
	link  topo.LinkID

	ctrl    fifo
	ctrlCap int // packets
	queues  []dataQueue
	bufCap  int // bytes per data queue
	rrNext  int
	busy    bool
	paused  bool // PFC pause: data queues frozen, control still flows

	rng        *rng.Stream
	stats      PortStats
	taps       []func(*Packet)
	qGauge     *telemetry.Gauge // live occupancy; non-nil only on telemetered switch ports
	completeFn func(any)        // cached serialization callback; arg is the *Packet
}

func newPort(net *Network, owner topo.NodeID, link topo.LinkID, nQueues, bufCap int, ecn ECNConfig, r *rng.Stream) *Port {
	p := &Port{
		net:     net,
		owner:   owner,
		link:    link,
		ctrlCap: 4096,
		bufCap:  bufCap,
		rng:     r,
	}
	p.completeFn = func(arg any) { p.complete(arg.(*Packet)) }
	p.queues = make([]dataQueue, nQueues)
	for i := range p.queues {
		p.queues[i].ecn = ecn
	}
	return p
}

// Owner returns the node this egress port belongs to.
func (p *Port) Owner() topo.NodeID { return p.owner }

// Link returns the link this port transmits onto.
func (p *Port) Link() topo.LinkID { return p.link }

// Bandwidth returns the port's line rate in bits per second.
func (p *Port) Bandwidth() float64 { return p.net.g.Link(p.link).Bandwidth }

// Stats returns a snapshot of the cumulative counters.
func (p *Port) Stats() PortStats { return p.stats }

// QueueBytes returns the instantaneous occupancy across all data queues.
func (p *Port) QueueBytes() int {
	total := 0
	for i := range p.queues {
		total += p.queues[i].bytes
	}
	return total
}

// ClassQueueBytes returns the occupancy of a single data queue.
func (p *Port) ClassQueueBytes(class int) int {
	return p.queues[class%len(p.queues)].bytes
}

// NumQueues returns the number of data queues at this port.
func (p *Port) NumQueues() int { return len(p.queues) }

// ECN returns the marking configuration of a data queue class.
func (p *Port) ECN(class int) ECNConfig { return p.queues[class%len(p.queues)].ecn }

// SetECN installs a marking configuration on a data queue class. This is the
// switch control interface the ECN Configuration Module drives.
func (p *Port) SetECN(class int, cfg ECNConfig) {
	p.queues[class%len(p.queues)].ecn = cfg
}

// OnTransmit registers a tap invoked for every packet the port puts on the
// wire. The Network Condition Monitor uses taps to observe headers without
// netsim knowing anything about flow classification.
func (p *Port) OnTransmit(fn func(*Packet)) { p.taps = append(p.taps, fn) }

// Enqueue admits a packet to the port and reports whether it was accepted.
// Data packets pass the RED/ECN marker and may be tail-dropped on overflow;
// control packets use the reserved strict-priority queue. A rejected packet
// is released back to the network's pool — drop sites are terminal points
// of the packet lifecycle, so callers must not touch a rejected packet.
func (p *Port) Enqueue(pkt *Packet) bool {
	pkt.assertLive("Port.Enqueue")
	if pkt.Control() {
		if p.ctrl.len() >= p.ctrlCap {
			p.stats.DropsOverflow++
			p.net.tm.dropsOverflow.Inc()
			p.net.releasePacket(pkt)
			return false
		}
		p.ctrl.push(pkt)
	} else {
		dq := &p.queues[pkt.Class%len(p.queues)]
		if dq.bytes+pkt.Size > p.bufCap {
			p.stats.DropsOverflow++
			p.net.tm.dropsOverflow.Inc()
			p.net.releasePacket(pkt)
			return false
		}
		if !p.net.sharedAdmit(p.owner, dq.bytes, pkt.Size) {
			p.stats.DropsOverflow++
			p.net.tm.dropsOverflow.Inc()
			p.net.releasePacket(pkt)
			return false
		}
		if pkt.ECT && p.rng.Bernoulli(dq.ecn.markProb(dq.bytes)) {
			pkt.CE = true
			p.net.tm.ecnMarks.Inc()
		}
		dq.q.push(pkt)
		dq.bytes += pkt.Size
		p.stats.EnqPackets++
		p.stats.EnqBytes += uint64(pkt.Size)
		p.net.tm.enqPackets.Inc()
		if p.qGauge != nil {
			p.net.tm.queueDepth.Observe(float64(dq.bytes))
			p.qGauge.Set(float64(p.QueueBytes()))
		}
	}
	p.kick()
	return true
}

// setPaused freezes or thaws the data queues (PFC). Control traffic keeps
// flowing on its own priority, which is what breaks CNP/ACK deadlocks in
// real RoCE deployments.
func (p *Port) setPaused(paused bool) {
	p.paused = paused
	if !paused {
		p.kick()
	}
}

// Paused reports whether PFC currently freezes this port's data queues.
func (p *Port) Paused() bool { return p.paused }

// next pops the next packet to serialize: control first, then round-robin
// across data queues.
func (p *Port) next() *Packet {
	if !p.ctrl.empty() {
		return p.ctrl.pop()
	}
	if p.paused {
		return nil
	}
	n := len(p.queues)
	for i := 0; i < n; i++ {
		dq := &p.queues[(p.rrNext+i)%n]
		if !dq.q.empty() {
			pkt := dq.q.pop()
			dq.bytes -= pkt.Size
			p.rrNext = (p.rrNext + i + 1) % n
			if p.qGauge != nil {
				p.qGauge.Set(float64(p.QueueBytes()))
			}
			return pkt
		}
	}
	return nil
}

// kick starts the transmitter if it is idle and work is queued.
func (p *Port) kick() {
	if p.busy {
		return
	}
	pkt := p.next()
	if pkt == nil {
		return
	}
	p.busy = true
	tx := sim.TransmitTime(pkt.Size, p.Bandwidth())
	p.net.eng.AfterArg(tx, p.completeFn, pkt)
}

// complete finishes serialization: update counters, fire taps, propagate the
// packet if the link is up, then look for more work.
func (p *Port) complete(pkt *Packet) {
	p.busy = false
	p.stats.TxPackets++
	p.stats.TxBytes += uint64(pkt.Size)
	p.net.tm.txPackets.Inc()
	p.net.tm.txBytes.Add(uint64(pkt.Size))
	if pkt.CE {
		p.stats.TxMarkedPackets++
		p.stats.TxMarkedBytes += uint64(pkt.Size)
	}
	for _, tap := range p.taps {
		tap(pkt)
	}
	// Release PFC attribution and shared-buffer bytes this packet held.
	if pkt.Kind == Data && p.net.g.Node(p.owner).Kind != topo.Host {
		if p.net.pfcCfg.Enabled {
			p.net.pfcDeparted(p.owner, pkt.arrivedVia, pkt)
		}
		p.net.sharedRelease(p.owner, pkt.Size)
	}
	link := p.net.g.Link(p.link)
	if link.Up {
		pkt.hopNode = link.Peer(p.owner)
		pkt.hopLink = link.ID
		p.net.eng.AfterArg(link.Delay, p.net.deliverFn, pkt)
	} else {
		p.stats.DropsLinkDown++
		p.net.tm.dropsLinkDown.Inc()
		p.net.releasePacket(pkt)
	}
	p.kick()
}
