package topo

import (
	"errors"
	"testing"
	"testing/quick"

	"pet/internal/sim"
)

func TestPaperScaleDimensions(t *testing.T) {
	ls := BuildLeafSpine(PaperScale())
	if got := len(ls.Hosts); got != 288 {
		t.Fatalf("hosts = %d, want 288", got)
	}
	if got := len(ls.Leaves); got != 12 {
		t.Fatalf("leaves = %d, want 12", got)
	}
	if got := len(ls.Spines); got != 6 {
		t.Fatalf("spines = %d, want 6", got)
	}
	// 12 leaves × (6 uplinks + 24 host links)
	if got := len(ls.Graph.Links); got != 12*(6+24) {
		t.Fatalf("links = %d, want 360", got)
	}
}

func TestLeafOf(t *testing.T) {
	ls := BuildLeafSpine(TinyScale())
	for i, h := range ls.Hosts {
		leaf := ls.LeafOf(h)
		want := ls.Leaves[i/ls.Config.HostsPerLeaf]
		if leaf != want {
			t.Fatalf("LeafOf(host %d) = %v, want %v", i, leaf, want)
		}
	}
}

func TestLinkPeer(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(Host, "a")
	b := g.AddNode(Leaf, "b")
	l := g.Link(g.Connect(a, b, 1e9, sim.Microsecond))
	if l.Peer(a) != b || l.Peer(b) != a {
		t.Fatal("Peer mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Peer on foreign node did not panic")
		}
	}()
	c := g.AddNode(Host, "c")
	l.Peer(c)
}

func TestRoutingShortestPaths(t *testing.T) {
	ls := BuildLeafSpine(TinyScale())
	r := ComputeRouting(ls.Graph)
	h0, h1, h2 := ls.Hosts[0], ls.Hosts[1], ls.Hosts[2]
	// Same leaf: 2 hops (host->leaf->host).
	if d := r.Distance(h0, h1); d != 2 {
		t.Fatalf("same-leaf distance = %d, want 2", d)
	}
	// Cross leaf: 4 hops.
	if d := r.Distance(h0, h2); d != 4 {
		t.Fatalf("cross-leaf distance = %d, want 4", d)
	}
	// Host has a single next hop (its access link).
	if hops := r.NextHops(h0, h2); len(hops) != 1 {
		t.Fatalf("host next hops = %d, want 1", len(hops))
	}
	// Leaf has one ECMP candidate per spine for cross-leaf traffic.
	leaf := ls.LeafOf(h0)
	if hops := r.NextHops(leaf, h2); len(hops) != ls.Config.Spines {
		t.Fatalf("leaf ECMP fan-out = %d, want %d", len(hops), ls.Config.Spines)
	}
	// Intra-leaf traffic never goes up to a spine.
	for _, lid := range r.NextHops(leaf, h1) {
		peer := ls.Graph.Link(lid).Peer(leaf)
		if ls.Graph.Node(peer).Kind == Spine {
			t.Fatal("intra-leaf route goes through a spine")
		}
	}
}

func TestRoutingFailover(t *testing.T) {
	ls := BuildLeafSpine(TinyScale())
	g := ls.Graph
	h0, h2 := ls.Hosts[0], ls.Hosts[2]
	leaf := ls.LeafOf(h0)

	// Kill the leaf0->spine0 uplink; ECMP set shrinks but stays connected.
	var killed LinkID = -1
	for _, lid := range g.SwitchLinks() {
		l := g.Link(lid)
		if l.A == leaf || l.B == leaf {
			killed = lid
			break
		}
	}
	g.Link(killed).Up = false
	r := ComputeRouting(g)
	if !r.Reachable(h0, h2) {
		t.Fatal("fabric disconnected after single uplink failure")
	}
	if hops := r.NextHops(leaf, h2); len(hops) != ls.Config.Spines-1 {
		t.Fatalf("ECMP fan-out after failure = %d, want %d", len(hops), ls.Config.Spines-1)
	}
	// Restore and verify full fan-out returns.
	g.Link(killed).Up = true
	r = ComputeRouting(g)
	if hops := r.NextHops(leaf, h2); len(hops) != ls.Config.Spines {
		t.Fatalf("ECMP fan-out after restore = %d, want %d", len(hops), ls.Config.Spines)
	}
}

func TestRoutingUnreachable(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(Host, "a")
	b := g.AddNode(Host, "b")
	l := g.Connect(a, g.AddNode(Leaf, "s"), 1e9, 0)
	_ = l
	r := ComputeRouting(g)
	if r.Reachable(a, b) {
		t.Fatal("disconnected hosts reported reachable")
	}
	if d := r.Distance(a, b); d != -1 {
		t.Fatalf("distance to unreachable = %d, want -1", d)
	}
	if !r.Reachable(a, a) {
		t.Fatal("self not reachable")
	}
}

func TestSwitchLinks(t *testing.T) {
	ls := BuildLeafSpine(SmallScale())
	sw := ls.Graph.SwitchLinks()
	want := ls.Config.Spines * ls.Config.Leaves
	if len(sw) != want {
		t.Fatalf("switch links = %d, want %d", len(sw), want)
	}
	for _, lid := range sw {
		l := ls.Graph.Link(lid)
		if ls.Graph.Node(l.A).Kind == Host || ls.Graph.Node(l.B).Kind == Host {
			t.Fatal("SwitchLinks returned a host link")
		}
	}
}

// Property: in any valid leaf-spine, every host pair is reachable and all
// next-hop links lie on shortest paths (distance strictly decreases).
func TestRoutingShortestPathProperty(t *testing.T) {
	f := func(sp, lv, hp uint8) bool {
		cfg := LeafSpineConfig{
			Spines:       int(sp%3) + 1,
			Leaves:       int(lv%3) + 1,
			HostsPerLeaf: int(hp%3) + 1,
			HostLinkBps:  10e9,
			UplinkBps:    40e9,
		}
		ls := BuildLeafSpine(cfg)
		r := ComputeRouting(ls.Graph)
		for _, src := range ls.Hosts {
			for _, dst := range ls.Hosts {
				if src == dst {
					continue
				}
				if !r.Reachable(src, dst) {
					return false
				}
				for _, lid := range r.NextHops(src, dst) {
					peer := ls.Graph.Link(lid).Peer(src)
					if r.Distance(peer, dst) != r.Distance(src, dst)-1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPresetLookup(t *testing.T) {
	for _, name := range Presets() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: invalid preset: %v", name, err)
		}
	}
	cfg, err := Preset("paper")
	if err != nil || cfg.Leaves != 12 || cfg.Spines != 6 || cfg.HostsPerLeaf*cfg.Leaves != 288 {
		t.Fatalf("paper preset wrong: %+v, %v", cfg, err)
	}
	_, err = Preset("gigantic")
	var upe *UnknownPresetError
	if !errors.As(err, &upe) || upe.Name != "gigantic" {
		t.Fatalf("unknown preset error: %v", err)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	bad := PaperScale()
	bad.Leaves = 0
	var ce *ConfigError
	if err := bad.Validate(); !errors.As(err, &ce) || ce.Field != "leaf count" {
		t.Fatalf("want leaf-count ConfigError, got %v", err)
	}
	bad = PaperScale()
	bad.UplinkBps = bad.HostLinkBps / 2
	if err := bad.Validate(); !errors.As(err, &ce) {
		t.Fatalf("want oversubscription ConfigError, got %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BuildLeafSpine on invalid config did not panic")
		}
	}()
	BuildLeafSpine(LeafSpineConfig{})
}
