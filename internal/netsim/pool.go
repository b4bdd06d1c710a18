package netsim

// packetPool recycles Packet structs for one network. The simulator burns
// through millions of short-lived packets per episode; without recycling,
// allocator pressure — not arithmetic — bounds events per second.
//
// Ownership protocol (see DESIGN.md "Memory model"):
//
//   - Transports take fresh packets from Network.NewPacket and hand them to
//     SendFromHost; from that moment the network owns the packet.
//   - The network releases the packet back to the pool at every terminal
//     point: after the endpoint's Deliver returns, and at each drop site
//     (queue overflow, no route, link down).
//   - Endpoints and taps therefore must not retain a *Packet past the
//     callback; copy the fields that need to outlive it.
//
// Foreign packets (built with &Packet{} by tests) are absorbed into the pool
// at release, which is harmless: they are simply recycled like pool-born
// ones. Build with -tags poolcheck to enable double-release and
// use-after-release guards.
type packetPool struct {
	free []*Packet
}

// get returns a zeroed packet, reusing a released one when available.
func (pp *packetPool) get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		*p = Packet{}
		p.markLive()
		return p
	}
	p := &Packet{}
	p.markLive()
	return p
}

// put returns a packet to the pool. With -tags poolcheck a double release
// panics; without it the checks compile to nothing.
func (pp *packetPool) put(p *Packet) {
	p.markReleased()
	pp.free = append(pp.free, p)
}

// NewPacket returns a zeroed packet owned by the caller until it is passed
// to SendFromHost or Enqueue, after which the network owns it and will
// recycle it once delivered or dropped.
func (n *Network) NewPacket() *Packet { return n.pool.get() }

// releasePacket returns a packet to the pool. Internal: all terminal points
// of the packet lifecycle live inside netsim.
func (n *Network) releasePacket(p *Packet) { n.pool.put(p) }
