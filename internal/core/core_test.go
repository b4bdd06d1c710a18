package core

import (
	"math"
	"testing"

	"pet/internal/dcqcn"
	"pet/internal/netsim"
	"pet/internal/sim"
	"pet/internal/topo"
	"pet/internal/workload"
)

func TestThresholdBytesEq5(t *testing.T) {
	c := Config{}.withDefaults() // α = 20
	if got := c.thresholdBytes(0); got != 20*1024 {
		t.Fatalf("E(0) = %d, want 20 KB", got)
	}
	if got := c.thresholdBytes(9); got != 20*512*1024 {
		t.Fatalf("E(9) = %d, want 10240 KB", got)
	}
	c2 := Config{AgentConfig: AgentConfig{Alpha: 2}}.withDefaults()
	if got := c2.thresholdBytes(3); got != 2*8*1024 {
		t.Fatalf("α=2: E(3) = %d, want 16 KB", got)
	}
}

func TestObsDimAndHeads(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ObsDim() != 3*8 {
		t.Fatalf("ObsDim = %d", c.ObsDim())
	}
	h := c.Heads()
	if len(h) != 3 || h[0] != 10 || h[1] != 10 || h[2] != 20 {
		t.Fatalf("Heads = %v", h)
	}
}

func TestActionToECNOrdering(t *testing.T) {
	c := Config{}.withDefaults()
	// Offset parameterization: Kmax = E(nmin + 1 + offset).
	cfg := c.ActionToECN([]int{5, 3, 9})
	if cfg.KminBytes != c.thresholdBytes(5) || cfg.KmaxBytes != c.thresholdBytes(9) {
		t.Fatalf("thresholds = %d/%d", cfg.KminBytes, cfg.KmaxBytes)
	}
	// Pmax level 9 → 50%.
	if cfg.Pmax != 0.5 {
		t.Fatalf("Pmax = %v, want 0.5", cfg.Pmax)
	}
	if !cfg.Enabled {
		t.Fatal("config not enabled")
	}
	// Every joint action is valid: Kmin < Kmax across the whole grid.
	for nmin := 0; nmin <= c.NMax; nmin++ {
		for off := 0; off <= c.NMax; off++ {
			got := c.ActionToECN([]int{nmin, off, 0})
			if got.KminBytes >= got.KmaxBytes {
				t.Fatalf("action (%d,%d) gives Kmin %d >= Kmax %d", nmin, off, got.KminBytes, got.KmaxBytes)
			}
		}
	}
	hi := c.ActionToECN([]int{9, 9, 19})
	if hi.KminBytes >= hi.KmaxBytes || hi.Pmax != 1 {
		t.Fatalf("extreme action = %+v", hi)
	}
}

func TestECNToFeaturesNormalized(t *testing.T) {
	c := Config{}.withDefaults()
	kmin, kmax, pmax := c.ECNToFeatures(c.ActionToECN([]int{9, 9, 19}))
	if kmax > 2.001 || kmin <= 0 || pmax != 1 {
		t.Fatalf("features = %v %v %v", kmin, kmax, pmax)
	}
	_, kmaxTop, _ := c.ECNToFeatures(netsim.ECNConfig{KmaxBytes: c.thresholdBytes(9)})
	if math.Abs(kmaxTop-1) > 1e-12 {
		t.Fatalf("top threshold feature = %v, want 1", kmaxTop)
	}
}

func TestDefaultActionValid(t *testing.T) {
	c := Config{}.withDefaults()
	d := c.DefaultAction()
	cfg := c.ActionToECN(d)
	if cfg.KminBytes >= cfg.KmaxBytes || cfg.Pmax <= 0 || cfg.Pmax > 1 {
		t.Fatalf("default action config = %+v", cfg)
	}
}

// fixture builds a small running environment with traffic.
type fixture struct {
	eng *sim.Engine
	ls  *topo.LeafSpine
	net *netsim.Network
	tr  *dcqcn.Transport
	gen *workload.Generator
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	eng := sim.NewEngine()
	ls := topo.BuildLeafSpine(topo.TinyScale())
	net := netsim.New(eng, ls.Graph, seed, netsim.Config{BufferPerQueue: 4 << 20})
	tr := dcqcn.NewTransport(net, dcqcn.Config{})
	gen := workload.NewGenerator(eng, workload.Config{
		Hosts:          ls.Hosts,
		HostRateBps:    10e9,
		CDF:            workload.WebSearch(),
		Load:           0.6,
		IncastFraction: 0.3,
		IncastFanIn:    3,
	}, seed, func(src, dst topo.NodeID, size int64, meta workload.FlowMeta) {
		tr.StartFlow(src, dst, size, 0)
	})
	return &fixture{eng: eng, ls: ls, net: net, tr: tr, gen: gen}
}

func testConfig() Config {
	return Config{AgentConfig: AgentConfig{
		Alpha:    2, // scaled fabric
		Interval: 100 * sim.Microsecond,
		Train:    true,
		Seed:     1,
	}}
}

func TestNCMObservesTrafficAndIncast(t *testing.T) {
	f := newFixture(t, 2)
	// Three senders to one receiver: classic incast at the receiver leaf.
	dst := f.ls.Hosts[0]
	leaf := f.ls.LeafOf(dst)
	var leafPorts []*netsim.Port
	for _, p := range f.net.SwitchPorts() {
		if p.Owner() == leaf {
			leafPorts = append(leafPorts, p)
		}
	}
	ncm := NewNCM(leafPorts, testConfig().withDefaults().AgentConfig)
	for _, src := range []topo.NodeID{f.ls.Hosts[1], f.ls.Hosts[2], f.ls.Hosts[3]} {
		f.tr.StartFlow(src, dst, 50_000, 0)
	}
	f.eng.RunUntil(5 * sim.Millisecond)
	feat := ncm.RollSlot()
	if feat.TxBytes == 0 {
		t.Fatal("NCM saw no transmitted bytes")
	}
	if feat.IncastDegree != 3 {
		t.Fatalf("incast degree = %d, want 3", feat.IncastDegree)
	}
	if feat.MiceRatio != 1 {
		t.Fatalf("mice ratio = %v for 50KB flows, want 1", feat.MiceRatio)
	}
	if feat.ActiveFlows != 3 {
		t.Fatalf("active flows = %d", feat.ActiveFlows)
	}
}

func TestNCMElephantRatio(t *testing.T) {
	f := newFixture(t, 3)
	dst := f.ls.Hosts[0]
	leaf := f.ls.LeafOf(dst)
	var ports []*netsim.Port
	for _, p := range f.net.SwitchPorts() {
		if p.Owner() == leaf {
			ports = append(ports, p)
		}
	}
	ncm := NewNCM(ports, testConfig().withDefaults().AgentConfig)
	f.tr.StartFlow(f.ls.Hosts[1], dst, 3<<20, 0)  // elephant
	f.tr.StartFlow(f.ls.Hosts[2], dst, 50_000, 0) // mouse
	f.eng.RunUntil(4 * sim.Millisecond)           // elephant passes 1MB cumulative
	feat := ncm.RollSlot()
	if feat.ActiveFlows != 2 {
		t.Fatalf("active = %d", feat.ActiveFlows)
	}
	if feat.MiceRatio != 0.5 {
		t.Fatalf("mice ratio = %v, want 0.5", feat.MiceRatio)
	}
}

func TestNCMCleanupExpiresFlows(t *testing.T) {
	f := newFixture(t, 4)
	dst := f.ls.Hosts[0]
	leaf := f.ls.LeafOf(dst)
	var ports []*netsim.Port
	for _, p := range f.net.SwitchPorts() {
		if p.Owner() == leaf {
			ports = append(ports, p)
		}
	}
	cfg := testConfig().withDefaults()
	ncm := NewNCM(ports, cfg.AgentConfig)
	f.tr.StartFlow(f.ls.Hosts[1], dst, 10_000, 0)
	f.eng.RunUntil(sim.Millisecond)
	if ncm.FlowTableSize() != 1 {
		t.Fatalf("table = %d, want 1", ncm.FlowTableSize())
	}
	// Advance HistoryK slots with no traffic; the entry expires.
	for i := 0; i < cfg.HistoryK; i++ {
		ncm.RollSlot()
	}
	ncm.ScheduledCleanup()
	if ncm.FlowTableSize() != 0 {
		t.Fatalf("table = %d after cleanup, want 0", ncm.FlowTableSize())
	}
	if ncm.Evicted() != 1 {
		t.Fatalf("evicted = %d", ncm.Evicted())
	}
}

func TestNCMThresholdCleanupBoundsMemory(t *testing.T) {
	f := newFixture(t, 5)
	dst := f.ls.Hosts[0]
	leaf := f.ls.LeafOf(dst)
	var ports []*netsim.Port
	for _, p := range f.net.SwitchPorts() {
		if p.Owner() == leaf {
			ports = append(ports, p)
		}
	}
	cfg := testConfig().withDefaults()
	cfg.FlowTableMax = 16
	ncm := NewNCM(ports, cfg.AgentConfig)
	// Burst of 100 distinct single-packet flows.
	for i := 0; i < 100; i++ {
		src := f.ls.Hosts[1+i%3]
		f.tr.StartFlow(src, dst, 1000, 0)
		if i%10 == 9 {
			f.eng.RunUntil(f.eng.Now() + 200*sim.Microsecond)
			ncm.RollSlot()
		}
	}
	f.eng.RunUntil(f.eng.Now() + sim.Millisecond)
	if got := ncm.FlowTableSize(); got > cfg.FlowTableMax {
		t.Fatalf("flow table grew to %d > bound %d", got, cfg.FlowTableMax)
	}
	if ncm.Evicted() == 0 {
		t.Fatal("threshold cleanup never fired")
	}
}

func TestControllerTunesAndLearns(t *testing.T) {
	f := newFixture(t, 6)
	ctl := NewController(f.net, testConfig())
	if len(ctl.Agents()) != 4 { // 2 leaves + 2 spines
		t.Fatalf("agents = %d, want 4", len(ctl.Agents()))
	}
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(30 * sim.Millisecond)

	for _, a := range ctl.Agents() {
		if a.Steps() == 0 {
			t.Fatalf("agent %d never stepped", a.Switch)
		}
		r := a.MeanReward()
		if r <= 0 || r > 1.0001 {
			t.Fatalf("agent %d mean reward %v outside (0,1]", a.Switch, r)
		}
		cur := a.CurrentECN()
		if !cur.Enabled || cur.KminBytes >= cur.KmaxBytes {
			t.Fatalf("agent %d invalid ECN %+v", a.Switch, cur)
		}
	}
	if ctl.TotalUpdates() == 0 {
		t.Fatal("no IPPO updates despite Train=true")
	}
	if ctl.MeanReward() <= 0 {
		t.Fatal("controller mean reward not positive")
	}
}

func TestControllerExecuteOnlyNoUpdates(t *testing.T) {
	f := newFixture(t, 7)
	cfg := testConfig()
	cfg.Train = false
	ctl := NewController(f.net, cfg)
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(10 * sim.Millisecond)
	if ctl.TotalUpdates() != 0 {
		t.Fatal("updates ran with Train=false")
	}
	for _, a := range ctl.Agents() {
		if a.Steps() == 0 {
			t.Fatal("execution-only agent did not step")
		}
	}
}

func TestControllerStop(t *testing.T) {
	f := newFixture(t, 8)
	ctl := NewController(f.net, testConfig())
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(5 * sim.Millisecond)
	steps := ctl.Agents()[0].Steps()
	ctl.Stop()
	f.eng.RunUntil(15 * sim.Millisecond)
	if ctl.Agents()[0].Steps() != steps {
		t.Fatal("agent stepped after Stop")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	f := newFixture(t, 9)
	ctl := NewController(f.net, testConfig())
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(20 * sim.Millisecond)
	data, err := ctl.EncodeModels()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh controller restored from the bundle must act identically.
	f2 := newFixture(t, 9)
	cfg := testConfig()
	cfg.Train = false
	ctl2 := NewController(f2.net, cfg)
	ctl3 := NewController(f2.net, cfg)
	if err := ctl2.LoadModels(data); err != nil {
		t.Fatal(err)
	}
	state := make([]float64, cfg.withDefaults().ObsDim())
	for i := range state {
		state[i] = 0.3
	}
	aTrained, _, _ := ctl.Agents()[0].Policy().Act(state, false)
	aLoaded, _, _ := ctl2.Agents()[0].Policy().Act(state, false)
	for i := range aTrained {
		if aTrained[i] != aLoaded[i] {
			t.Fatal("restored policy acts differently")
		}
	}
	_ = ctl3 // untouched controller exists just to show isolation
	if err := ctl2.LoadModels([]byte("junk")); err == nil {
		t.Fatal("junk bundle loaded")
	}
}

func TestAblationFlagsZeroFeatures(t *testing.T) {
	cfg := testConfig()
	cfg.DisableIncastState = true
	cfg.DisableRatioState = true
	c := cfg.withDefaults()
	f := newFixture(t, 10)
	s := NewController(f.net, cfg).Agents()[0].SwitchState
	feat := c.slotFeatures(s, SlotFeatures{IncastDegree: 10, MiceRatio: 0.7, TxBytes: 1000})
	if feat[6] != 0 || feat[7] != 0 {
		t.Fatalf("ablated features nonzero: %v", feat)
	}
	full := testConfig().withDefaults()
	feat2 := full.slotFeatures(s, SlotFeatures{IncastDegree: 10, MiceRatio: 0.7})
	if feat2[6] == 0 || feat2[7] != 0.7 {
		t.Fatalf("full features wrong: %v", feat2)
	}
}

func TestRewardTradeoff(t *testing.T) {
	f := newFixture(t, 11)
	ctl := NewController(f.net, testConfig())
	s := ctl.Agents()[0].SwitchState
	reward := func(f SlotFeatures) float64 {
		r, _, _ := ctl.rewardOf(s, f)
		return r
	}
	idle := reward(SlotFeatures{})                                         // empty queue, no throughput
	busyShort := reward(SlotFeatures{TxBytes: 1 << 20})                    // throughput, empty queue
	busyLong := reward(SlotFeatures{TxBytes: 1 << 20, QAvgBytes: 1 << 20}) // deep queue
	if busyShort <= idle {
		t.Fatalf("throughput not rewarded: %v <= %v", busyShort, idle)
	}
	if busyLong >= busyShort {
		t.Fatalf("queueing not punished: %v >= %v", busyLong, busyShort)
	}
	if idle <= 0 || busyShort > 1.0001 {
		t.Fatalf("reward out of range: idle %v busy %v", idle, busyShort)
	}
}

func TestMultiQueueControllersPerClass(t *testing.T) {
	eng := sim.NewEngine()
	ls := topo.BuildLeafSpine(topo.TinyScale())
	net := netsim.New(eng, ls.Graph, 12, netsim.Config{DataQueues: 2, BufferPerQueue: 4 << 20})
	tr := dcqcn.NewTransport(net, dcqcn.Config{})

	cfg0 := testConfig()
	cfg0.Class = 0
	cfg1 := testConfig()
	cfg1.Class = 1
	cfg1.Seed = 99
	ctl0 := NewController(net, cfg0)
	ctl1 := NewController(net, cfg1)
	ctl0.Start()
	ctl1.Start()

	// Traffic on both classes.
	for i := 0; i < 8; i++ {
		tr.StartFlow(ls.Hosts[1+i%3], ls.Hosts[0], 500_000, i%2)
	}
	eng.RunUntil(10 * sim.Millisecond)

	// Each class queue carries its own controller's configuration.
	p := net.SwitchPorts()[0]
	e0, e1 := p.ECN(0), p.ECN(1)
	a0 := ctl0.agents
	var want0 netsim.ECNConfig
	for _, a := range a0 {
		if a.Switch == p.Owner() {
			want0 = a.CurrentECN()
		}
	}
	if e0 != want0 {
		t.Fatalf("class 0 config %+v != agent's %+v", e0, want0)
	}
	if e0 == e1 && ctl0.Agents()[0].Steps() > 2 {
		// Not fatal per se, but with different seeds the two controllers
		// should almost surely diverge once both have acted.
		t.Logf("warning: class configs identical: %+v", e0)
	}
	for _, a := range ctl1.Agents() {
		if a.Steps() == 0 {
			t.Fatal("class-1 controller idle")
		}
	}
}

func TestNCMQueueSampling(t *testing.T) {
	f := newFixture(t, 30)
	leaf := f.ls.LeafOf(f.ls.Hosts[0])
	var ports []*netsim.Port
	for _, p := range f.net.SwitchPorts() {
		if p.Owner() == leaf {
			ports = append(ports, p)
		}
	}
	ncm := NewNCM(ports, testConfig().withDefaults().AgentConfig)
	// No samples: average falls back to zero, end-of-slot is instantaneous.
	feat := ncm.RollSlot()
	if feat.QAvgBytes != 0 {
		t.Fatalf("QAvg with no samples = %v", feat.QAvgBytes)
	}
	// Incast builds a queue; sampled average must be positive and bounded
	// by the buffer.
	for _, src := range []topo.NodeID{f.ls.Hosts[1], f.ls.Hosts[2], f.ls.Hosts[3]} {
		f.tr.StartFlow(src, f.ls.Hosts[0], 300_000, 0)
	}
	tick := sim.NewTicker(f.eng, 20*sim.Microsecond, func(sim.Time) { ncm.SampleQueues() })
	f.eng.RunUntil(400 * sim.Microsecond)
	tick.Stop()
	feat = ncm.RollSlot()
	if feat.QAvgBytes <= 0 {
		t.Fatal("no queue observed under 3:1 incast")
	}
	if ncm.QueueBytesNow() < 0 {
		t.Fatal("negative queue")
	}
}

func TestAgentTickBeforeHistoryKeepsDefault(t *testing.T) {
	f := newFixture(t, 31)
	ctl := NewController(f.net, testConfig())
	a := ctl.Agents()[0]
	def := a.CurrentECN()
	// Fewer ticks than HistoryK: the agent must not act yet.
	for i := 0; i < ctl.Config().HistoryK-1; i++ {
		ctl.tick()
	}
	if a.CurrentECN() != def {
		t.Fatal("agent acted before its history window filled")
	}
	if a.Steps() != 0 {
		t.Fatalf("steps counted during history fill: %d", a.Steps())
	}
	ctl.tick() // window full: acts now
	if a.Steps() != 1 {
		t.Fatalf("steps = %d after window filled", a.Steps())
	}
}

func TestSetTrainStopsLearning(t *testing.T) {
	f := newFixture(t, 32)
	ctl := NewController(f.net, testConfig())
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(10 * sim.Millisecond)
	ctl.SetTrain(false)
	u := ctl.TotalUpdates()
	f.eng.RunUntil(25 * sim.Millisecond)
	if ctl.TotalUpdates() != u {
		t.Fatal("updates continued after SetTrain(false)")
	}
	// Agents still execute (steps advance).
	if ctl.Agents()[0].Steps() == 0 {
		t.Fatal("agents idle after SetTrain(false)")
	}
}

func TestControllerDeterminism(t *testing.T) {
	run := func() (int, float64) {
		f := newFixture(t, 13)
		ctl := NewController(f.net, testConfig())
		ctl.Start()
		f.gen.Start()
		f.eng.RunUntil(15 * sim.Millisecond)
		return ctl.TotalUpdates(), ctl.MeanReward()
	}
	u1, r1 := run()
	u2, r2 := run()
	if u1 != u2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", u1, r1, u2, r2)
	}
}
