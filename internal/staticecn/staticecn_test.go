package staticecn

import (
	"testing"

	"pet/internal/netsim"
	"pet/internal/sim"
	"pet/internal/topo"
)

func TestPresetValues(t *testing.T) {
	s1 := SECN1()
	if s1.KminBytes != 5<<10 || s1.KmaxBytes != 200<<10 || !s1.Enabled {
		t.Fatalf("SECN1 = %+v", s1)
	}
	s2 := SECN2()
	if s2.KminBytes != 100<<10 || s2.KmaxBytes != 400<<10 || !s2.Enabled {
		t.Fatalf("SECN2 = %+v", s2)
	}
}

func TestApplyHitsEverySwitchPort(t *testing.T) {
	eng := sim.NewEngine()
	ls := topo.BuildLeafSpine(topo.SmallScale())
	net := netsim.New(eng, ls.Graph, 1, netsim.Config{})
	Apply(net, 0, SECN2())
	for _, p := range net.SwitchPorts() {
		if p.ECN(0) != SECN2() {
			t.Fatalf("port on %v not configured", p.Owner())
		}
	}
	// Host NIC ports must remain unmarked.
	hp := net.HostPort(ls.Hosts[0])
	if hp.ECN(0).Enabled {
		t.Fatal("Apply touched a host NIC")
	}
}
