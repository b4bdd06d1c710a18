package netsim

import (
	"testing"

	"pet/internal/topo"
)

// A released packet must come back from NewPacket fully zeroed: leaking a
// previous life's header (CE marks, PFC attribution, hop state) would
// silently corrupt the simulation.
func TestPoolRecyclesZeroed(t *testing.T) {
	eng, ls, net := buildTiny(t, Config{})
	h0, h1 := ls.Hosts[0], ls.Hosts[1]
	net.RegisterEndpoint(h1, &collector{eng: eng})

	pkt := net.NewPacket()
	pkt.Flow, pkt.Src, pkt.Dst, pkt.Kind = 7, h0, h1, Data
	pkt.Size, pkt.Seq, pkt.Last, pkt.ECT, pkt.CE = 1000, 42, true, true, true
	net.SendFromHost(h0, pkt)
	eng.Run() // delivered, so the struct is back in the pool

	got := net.NewPacket()
	if got != pkt {
		t.Fatalf("pool did not recycle: got %p, want %p", got, pkt)
	}
	if *got != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *got)
	}
}

// Every terminal point of the lifecycle must release: after all flows drain,
// the pool holds every packet that ever flew, and steady-state traffic stops
// growing it.
func TestPoolDrainsToFreeList(t *testing.T) {
	eng, ls, net := buildTiny(t, Config{})
	h0, h1 := ls.Hosts[0], ls.Hosts[1]
	net.RegisterEndpoint(h1, &collector{eng: eng})

	for i := 0; i < 100; i++ {
		pkt := net.NewPacket()
		pkt.Flow, pkt.Src, pkt.Dst, pkt.Kind, pkt.Size = 1, h0, h1, Data, 1000
		net.SendFromHost(h0, pkt)
	}
	eng.Run()
	if got := len(net.pool.free); got != 100 {
		t.Fatalf("pool holds %d packets after drain, want 100", got)
	}

	// A second wave must reuse the freelist, not grow it.
	for i := 0; i < 100; i++ {
		pkt := net.NewPacket()
		pkt.Flow, pkt.Src, pkt.Dst, pkt.Kind, pkt.Size = 1, h0, h1, Data, 1000
		net.SendFromHost(h0, pkt)
	}
	eng.Run()
	if got := len(net.pool.free); got != 100 {
		t.Fatalf("pool grew to %d packets on reused traffic, want 100", got)
	}
}

// Dropped packets release too: a no-route drop (all links down) must not
// leak the packet.
func TestPoolReleasesOnDrop(t *testing.T) {
	eng, ls, net := buildTiny(t, Config{})
	h0, h2 := ls.Hosts[0], ls.Hosts[2] // cross-leaf: transits the spine
	before := len(net.pool.free)

	pkt := net.NewPacket()
	pkt.Flow, pkt.Src, pkt.Dst, pkt.Kind, pkt.Size = 1, h0, h2, Data, 1000
	net.SendFromHost(h0, pkt)
	// Cut every spine link while the packet serializes at the host NIC, so
	// the leaf switch has no route when it arrives.
	links := ls.Graph.Links
	var down []topo.LinkID
	for _, l := range links {
		if ls.Graph.Node(l.A).Kind != topo.Host && ls.Graph.Node(l.B).Kind != topo.Host {
			down = append(down, l.ID)
		}
	}
	net.SetLinksUp(down, false)
	eng.Run()
	if net.DropsUnreachable() == 0 {
		t.Fatal("expected a no-route drop")
	}
	if got := len(net.pool.free); got != before+1 {
		t.Fatalf("pool holds %d packets after drop, want %d", got, before+1)
	}
}

// Steady-state forwarding — schedule, serialize, propagate, deliver — must
// run allocation-free once the pool, freelist and rings are warm.
func TestForwardingZeroAllocs(t *testing.T) {
	eng, ls, net := buildTiny(t, Config{})
	h0, h1 := ls.Hosts[0], ls.Hosts[1]
	sink := 0
	net.RegisterEndpoint(h1, endpointFunc(func(p *Packet) { sink += p.Size }))

	send := func() {
		pkt := net.NewPacket()
		pkt.Flow, pkt.Src, pkt.Dst, pkt.Kind = 1, h0, h1, Data
		pkt.Size, pkt.ECT = 1000, true
		net.SendFromHost(h0, pkt)
	}
	for i := 0; i < 64; i++ {
		send()
	}
	eng.Run() // warm pool, event freelist, port rings

	allocs := testing.AllocsPerRun(200, func() {
		send()
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("packet forwarding allocates %.1f per packet, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("no packets delivered")
	}
}

// endpointFunc adapts a func to the Endpoint interface for tests.
type endpointFunc func(*Packet)

func (f endpointFunc) Deliver(p *Packet) { f(p) }
