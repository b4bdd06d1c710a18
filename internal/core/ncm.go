package core

import (
	"pet/internal/netsim"
	"pet/internal/topo"
	"pet/internal/workload"
)

// NCM is the Network Condition Monitor of Sec. 4.5.1. One NCM serves one
// switch agent, watching all the switch's egress ports. Its three roles:
//
//   - Monitoring: periodic retrieval of queue and counter state, plus a
//     transmit tap that observes packet headers.
//   - Computation and Analysis: derives the incast degree (senders per
//     receiver in many-to-one patterns) and the mice/elephant flow ratio.
//   - Scheduled Cleanup: expires stale flow entries on a timer, with an
//     additional threshold-triggered cleanup that bounds table memory
//     during traffic bursts.
type NCM struct {
	ports []*netsim.Port
	cfg   AgentConfig

	// Flow table for the computation/analysis role.
	flows    map[netsim.FlowID]*flowEntry
	slot     int64
	evicted  uint64
	totalBW  float64
	lastTx   []netsim.PortStats
	qSamples int
	qSum     float64

	// Per-slot incast observation: receivers → distinct senders.
	slotReceivers map[topo.NodeID]map[topo.NodeID]struct{}
}

// flowEntry is one tracked flow in the NCM's table.
type flowEntry struct {
	src      topo.NodeID
	dst      topo.NodeID
	bytes    int64
	lastSlot int64
}

// SlotFeatures are the raw per-slot metrics rolled up by the NCM, before
// normalization into the agent's state vector.
type SlotFeatures struct {
	QAvgBytes     float64 // time-averaged queue occupancy over the slot
	QEndBytes     float64 // occupancy at slot end
	TxBytes       uint64  // payload transmitted during the slot
	TxMarkedBytes uint64  // CE-marked share of TxBytes
	IncastDegree  int     // max senders converging on one receiver
	MiceRatio     float64 // mice / (mice + elephants) among live flows
	ActiveFlows   int
}

// NewNCM builds a monitor over the given egress ports and registers its
// packet-header tap. cfg must already carry its defaults.
func NewNCM(ports []*netsim.Port, cfg AgentConfig) *NCM {
	m := &NCM{
		ports:         ports,
		cfg:           cfg,
		flows:         make(map[netsim.FlowID]*flowEntry),
		slotReceivers: make(map[topo.NodeID]map[topo.NodeID]struct{}),
		lastTx:        make([]netsim.PortStats, len(ports)),
	}
	for i, p := range ports {
		m.totalBW += p.Bandwidth()
		m.lastTx[i] = p.Stats()
		p.OnTransmit(m.observe)
	}
	return m
}

// observe is the transmit tap: update the flow table and the per-slot
// incast bookkeeping from the packet header.
func (m *NCM) observe(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	e := m.flows[pkt.Flow]
	if e == nil {
		if len(m.flows) >= m.cfg.FlowTableMax {
			m.thresholdCleanup()
		}
		e = &flowEntry{src: pkt.Src, dst: pkt.Dst}
		m.flows[pkt.Flow] = e
	}
	e.bytes += int64(pkt.Size)
	e.lastSlot = m.slot

	rcv := m.slotReceivers[pkt.Dst]
	if rcv == nil {
		rcv = make(map[topo.NodeID]struct{})
		m.slotReceivers[pkt.Dst] = rcv
	}
	rcv[pkt.Src] = struct{}{}
}

// SampleQueues accumulates an instantaneous queue-occupancy sample; called
// several times per slot for a time-averaged queue length.
func (m *NCM) SampleQueues() {
	total := 0
	for _, p := range m.ports {
		total += p.ClassQueueBytes(m.cfg.Class)
	}
	m.qSum += float64(total)
	m.qSamples++
}

// QueueBytesNow returns the switch's instantaneous managed-class occupancy.
func (m *NCM) QueueBytesNow() int {
	total := 0
	for _, p := range m.ports {
		total += p.ClassQueueBytes(m.cfg.Class)
	}
	return total
}

// RollSlot closes the current monitoring slot and returns its features
// (the Computation and Analysis role).
func (m *NCM) RollSlot() SlotFeatures {
	var f SlotFeatures

	// Queue occupancy.
	if m.qSamples > 0 {
		f.QAvgBytes = m.qSum / float64(m.qSamples)
	}
	f.QEndBytes = float64(m.QueueBytesNow())
	m.qSum, m.qSamples = 0, 0

	// Rates from counter deltas.
	for i, p := range m.ports {
		cur := p.Stats()
		f.TxBytes += cur.TxBytes - m.lastTx[i].TxBytes
		f.TxMarkedBytes += cur.TxMarkedBytes - m.lastTx[i].TxMarkedBytes
		m.lastTx[i] = cur
	}

	// Incast degree: the paper's definition — the number of senders
	// communicating with the same receiver in a many-to-one pattern.
	for _, senders := range m.slotReceivers {
		if len(senders) > f.IncastDegree {
			f.IncastDegree = len(senders)
		}
	}
	clear(m.slotReceivers)

	// Mice/elephant ratio over flows seen within the last HistoryK slots.
	mice, total := 0, 0
	for _, e := range m.flows {
		if m.slot-e.lastSlot >= int64(m.cfg.HistoryK) {
			continue
		}
		total++
		if e.bytes < workload.ElephantThreshold {
			mice++
		}
	}
	f.ActiveFlows = total
	if total > 0 {
		f.MiceRatio = float64(mice) / float64(total)
	} else {
		f.MiceRatio = 1 // an idle switch sees only (vacuously) mice
	}

	m.slot++
	return f
}

// ScheduledCleanup removes entries idle for more than HistoryK slots —
// their state contributions have expired per Eq. (3).
func (m *NCM) ScheduledCleanup() {
	for id, e := range m.flows {
		if m.slot-e.lastSlot >= int64(m.cfg.HistoryK) {
			delete(m.flows, id)
			m.evicted++
		}
	}
}

// thresholdCleanup fires when the flow table hits its memory bound during
// a burst: evict the stalest half of the expired-or-oldest entries.
func (m *NCM) thresholdCleanup() {
	// First pass: drop expired entries.
	m.ScheduledCleanup()
	if len(m.flows) < m.cfg.FlowTableMax {
		return
	}
	// Still full (genuine burst): evict the oldest half by lastSlot.
	cut := m.slot - 1
	for id, e := range m.flows {
		if e.lastSlot <= cut {
			delete(m.flows, id)
			m.evicted++
			if len(m.flows) <= m.cfg.FlowTableMax/2 {
				break
			}
		}
	}
}

// FlowTableSize returns the current number of tracked flows.
func (m *NCM) FlowTableSize() int { return len(m.flows) }

// Evicted returns how many entries cleanup has removed.
func (m *NCM) Evicted() uint64 { return m.evicted }

// TotalBandwidth returns the aggregate line rate of the managed ports.
func (m *NCM) TotalBandwidth() float64 { return m.totalBW }
