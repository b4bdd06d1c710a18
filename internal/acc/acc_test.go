package acc

import (
	"testing"

	"pet/internal/bench"
	"pet/internal/core"
	"pet/internal/dcqcn"
	"pet/internal/netsim"
	"pet/internal/sim"
	"pet/internal/telemetry"
	"pet/internal/topo"
	"pet/internal/workload"
)

func testConfig() Config {
	return Config{AgentConfig: core.AgentConfig{
		Alpha:    2,
		Interval: 100 * sim.Microsecond,
		Train:    true,
		Seed:     1,
	}}
}

type fixture struct {
	eng *sim.Engine
	ls  *topo.LeafSpine
	net *netsim.Network
	tr  *dcqcn.Transport
	gen *workload.Generator
}

func newFixture(t testing.TB, seed int64) *fixture {
	t.Helper()
	eng := sim.NewEngine()
	ls := topo.BuildLeafSpine(topo.TinyScale())
	net := netsim.New(eng, ls.Graph, seed, netsim.Config{BufferPerQueue: 4 << 20})
	tr := dcqcn.NewTransport(net, dcqcn.Config{})
	gen := workload.NewGenerator(eng, workload.Config{
		Hosts:       ls.Hosts,
		HostRateBps: 10e9,
		CDF:         workload.WebSearch(),
		Load:        0.6,
	}, seed, func(src, dst topo.NodeID, size int64, meta workload.FlowMeta) {
		tr.StartFlow(src, dst, size, 0)
	})
	return &fixture{eng: eng, ls: ls, net: net, tr: tr, gen: gen}
}

func TestActionDecoding(t *testing.T) {
	c := testConfig().withDefaults()
	if c.Actions() != 10*20 {
		t.Fatalf("Actions = %d", c.Actions())
	}
	for idx := 0; idx < c.Actions(); idx += 17 {
		cfg := c.ActionToECN(idx)
		if !cfg.Enabled || cfg.KminBytes < 1 || cfg.KminBytes >= cfg.KmaxBytes {
			t.Fatalf("action %d → invalid %+v", idx, cfg)
		}
		if cfg.Pmax <= 0 || cfg.Pmax > 1 {
			t.Fatalf("action %d → Pmax %v", idx, cfg.Pmax)
		}
	}
	// Kmin tied at Kmax/4.
	cfg := c.ActionToECN(3*c.PmaxLevels + 5) // n=3
	if cfg.KmaxBytes != 2*8*1024 || cfg.KminBytes != cfg.KmaxBytes/4 {
		t.Fatalf("n=3 decode = %+v", cfg)
	}
}

func TestObsDim(t *testing.T) {
	c := testConfig().withDefaults()
	// ACC sees the 4 basic metrics (threshold triple unpacked) — no incast,
	// no mice/elephant ratio.
	if c.ObsDim() != 3*6 {
		t.Fatalf("ObsDim = %d", c.ObsDim())
	}
}

func TestControllerGlobalReplayOverhead(t *testing.T) {
	f := newFixture(t, 2)
	cfg := testConfig()
	cfg.GlobalReplay = true
	ctl := NewController(f.net, cfg)
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(20 * sim.Millisecond)

	if ctl.BytesExchanged() == 0 {
		t.Fatal("global replay exchanged no bytes")
	}
	if ctl.ReplayMemoryBytes() == 0 {
		t.Fatal("replay memory not accounted")
	}
	for _, a := range ctl.Agents() {
		if a.Steps() == 0 {
			t.Fatalf("agent %d idle", a.Switch)
		}
		if r := a.MeanReward(); r <= 0 || r > 1.0001 {
			t.Fatalf("agent %d reward %v", a.Switch, r)
		}
	}
}

func TestControllerLocalReplayNoExchange(t *testing.T) {
	f := newFixture(t, 3)
	cfg := testConfig()
	cfg.GlobalReplay = false
	ctl := NewController(f.net, cfg)
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(10 * sim.Millisecond)
	if ctl.BytesExchanged() != 0 {
		t.Fatal("local replay reported exchange bytes")
	}
	if ctl.ReplayMemoryBytes() == 0 {
		t.Fatal("local replay memory not accounted")
	}
}

func TestExecuteOnlyDeterministic(t *testing.T) {
	f := newFixture(t, 4)
	cfg := testConfig()
	cfg.Train = false
	ctl := NewController(f.net, cfg)
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(10 * sim.Millisecond)
	for _, a := range ctl.Agents() {
		if a.agent.LearnSteps() != 0 {
			t.Fatal("learning ran with Train=false")
		}
	}
}

func TestControllerStop(t *testing.T) {
	f := newFixture(t, 5)
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
	f := newFixture(t, 7)
	ctl := NewController(f.net, testConfig())
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(15 * sim.Millisecond)
	data, err := ctl.EncodeModels()
	if err != nil {
		t.Fatal(err)
	}
	f2 := newFixture(t, 7)
	cfg := testConfig()
	cfg.Train = false
	ctl2 := NewController(f2.net, cfg)
	if err := ctl2.LoadModels(data); err != nil {
		t.Fatal(err)
	}
	state := make([]float64, cfg.withDefaults().ObsDim())
	for i := range state {
		state[i] = 0.4
	}
	if ctl.Agents()[0].agent.Act(state, 0) != ctl2.Agents()[0].agent.Act(state, 0) {
		t.Fatal("restored ACC policy acts differently")
	}
	if err := ctl2.LoadModels([]byte("junk")); err == nil {
		t.Fatal("junk bundle loaded")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		f := newFixture(t, 6)
		cfg := testConfig()
		cfg.GlobalReplay = true
		ctl := NewController(f.net, cfg)
		ctl.Start()
		f.gen.Start()
		f.eng.RunUntil(15 * sim.Millisecond)
		return ctl.MeanReward(), ctl.BytesExchanged()
	}
	r1, b1 := run()
	r2, b2 := run()
	if r1 != r2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", r1, b1, r2, b2)
	}
}

// ACC's builder reads a scenario through the same translation as PET's, so
// the scenario's history depth and telemetry reach ACC's loop.
func TestBenchScenarioReachesACC(t *testing.T) {
	reg := telemetry.New()
	env, err := bench.NewEnv(bench.Scenario{Scheme: bench.SchemeACC, HistoryK: 5, Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.Control.(*Controller).Config()
	if cfg.HistoryK != 5 || cfg.ObsDim() != 30 {
		t.Fatalf("HistoryK = %d, ObsDim = %d; want 5, 30", cfg.HistoryK, cfg.ObsDim())
	}
	if _, ok := reg.Snapshot().Gauges["pet_slot_reward"]; !ok {
		t.Fatal("ACC's loop publishes no slot reward into the scenario's registry")
	}
}
