package netsim

import (
	"testing"

	"pet/internal/sim"
	"pet/internal/topo"
)

// trafficSource is a self-rescheduling packet generator: each firing draws
// a packet from the pool, sends it to a pseudorandom peer, and reschedules
// itself after a jittered gap.
type trafficSource struct {
	net    *Network
	host   topo.NodeID
	peers  []topo.NodeID
	state  uint64 // xorshift64
	seq    int64
	fireFn func(any)
}

func (s *trafficSource) next() uint64 {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return s.state
}

func (s *trafficSource) fire(any) {
	r := s.next()
	dst := s.peers[r%uint64(len(s.peers))]
	if dst == s.host {
		dst = s.peers[(r+1)%uint64(len(s.peers))]
	}
	pkt := s.net.NewPacket()
	pkt.Flow, pkt.Src, pkt.Dst, pkt.Kind = FlowID(uint64(s.host)<<16|uint64(s.seq%8)), s.host, dst, Data
	pkt.Size, pkt.Seq, pkt.ECT = 1000, s.seq, true
	s.seq++
	s.net.SendFromHost(s.host, pkt)
	gap := 800*sim.Nanosecond + sim.Time(s.next()%1600)*sim.Nanosecond + sim.Time(s.next()%1000)
	s.net.eng.AfterArg(gap, s.fireFn, nil)
}

func startSource(net *Network, host topo.NodeID, peers []topo.NodeID) {
	s := &trafficSource{
		net:   net,
		host:  host,
		peers: peers,
		state: uint64(host)*0x9e3779b97f4a7c15 + 1,
	}
	s.fireFn = s.fire
	// Stagger starts by host so no two sources share an instant.
	net.eng.AfterArg(sim.Time(host)*31*sim.Nanosecond+1, s.fireFn, nil)
}

// BenchmarkForwarding measures raw forwarding throughput on the paper-scale
// fabric (288 hosts, 12 leaves, 6 spines). Each b.N iteration advances the
// clock 100µs under sustained all-to-all load; ev/op reports events
// executed per iteration.
func BenchmarkForwarding(b *testing.B) {
	ls := topo.BuildLeafSpine(topo.PaperScale())
	eng := sim.NewEngine()
	net := New(eng, ls.Graph, 7, Config{})
	for _, h := range ls.Hosts {
		startSource(net, h, ls.Hosts)
	}
	const quantum = 100 * sim.Microsecond
	horizon := quantum
	eng.RunUntil(horizon) // warm pools, freelists, rings
	start := eng.Fired()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		horizon += quantum
		eng.RunUntil(horizon)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Fired()-start)/float64(b.N), "ev/op")
}
