package pet_test

import (
	"errors"
	"sync"
	"testing"

	"pet"
)

// TestPublicAPIEndToEnd drives the facade exactly as README's quickstart
// does: build, run, inspect.
func TestPublicAPIEndToEnd(t *testing.T) {
	res, err := pet.Run(pet.Scenario{
		Scheme:   pet.SchemePET,
		Train:    true,
		Load:     0.5,
		Warmup:   5 * pet.Millisecond,
		Duration: 10 * pet.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsDone == 0 {
		t.Fatal("no flows completed via public API")
	}
	if res.Overall.AvgSlowdown < 1 {
		t.Fatalf("slowdown %v < 1", res.Overall.AvgSlowdown)
	}
}

func TestPublicAPILowLevel(t *testing.T) {
	eng := pet.NewEngine()
	ls := pet.BuildLeafSpine(pet.TinyScale())
	net := pet.NewNetwork(eng, ls, 7, pet.NetworkConfig{BufferPerQueue: 4 << 20})
	tr := pet.NewTransport(net, pet.TransportConfig{})
	ctl := pet.NewController(net, pet.ControllerConfig{AgentConfig: pet.AgentConfig{Alpha: 2, Train: true, Interval: 100 * pet.Microsecond}})
	ctl.Start()

	done := 0
	tr.OnFlowComplete(func(f *pet.Flow) { done++ })
	tr.StartFlow(ls.Hosts[0], ls.Hosts[3], 100_000, 0)
	tr.StartFlow(ls.Hosts[1], ls.Hosts[3], 100_000, 0)
	eng.RunUntil(20 * pet.Millisecond)

	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if len(ctl.Agents()) != 4 {
		t.Fatalf("agents = %d", len(ctl.Agents()))
	}
}

func TestPublicAPIPretrainPipeline(t *testing.T) {
	models, err := pet.PretrainPET(pet.Scenario{Load: 0.5}, 5*pet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pet.Run(pet.Scenario{
		Scheme:   pet.SchemePET,
		Models:   models,
		Train:    true,
		Load:     0.5,
		Warmup:   3 * pet.Millisecond,
		Duration: 8 * pet.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsDone == 0 {
		t.Fatal("pretrain pipeline produced no flows")
	}
}

// registerFacadeFixed registers once per process: the registry outlives a
// test, and -count=2 runs this file twice in one.
var registerFacadeFixed = sync.OnceFunc(func() {
	pet.RegisterScheme("facade-fixed", func(e *pet.Env) (pet.ControlScheme, error) {
		return facadeFixed{e}, nil
	})
})

// TestPublicAPIRegistry covers the facade's view of the pluggable control
// plane: listing, typed errors, and registering a scheme from the outside.
func TestPublicAPIRegistry(t *testing.T) {
	schemes := pet.SchemeNames()
	if len(schemes) < 8 {
		t.Fatalf("SchemeNames() = %v", schemes)
	}
	if tr := pet.TransportNames(); len(tr) < 2 {
		t.Fatalf("TransportNames() = %v", tr)
	}

	_, err := pet.Run(pet.Scenario{Scheme: "no-such-scheme"})
	var unknown *pet.UnknownSchemeError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *UnknownSchemeError", err)
	}

	registerFacadeFixed()
	res, err := pet.Run(pet.Scenario{
		Scheme:   "facade-fixed",
		Load:     0.4,
		Warmup:   2 * pet.Millisecond,
		Duration: 6 * pet.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsDone == 0 {
		t.Fatal("facade-registered scheme ran no flows")
	}
}

// facadeFixed pins one static threshold set from outside the library — the
// minimum viable custom scheme.
type facadeFixed struct{ env *pet.Env }

func (s facadeFixed) Start() {
	cfg := pet.ECNConfig{Enabled: true, KminBytes: 20 << 10, KmaxBytes: 80 << 10, Pmax: 0.1}
	for _, p := range s.env.Net.SwitchPorts() {
		p.SetECN(0, cfg)
	}
}
func (s facadeFixed) SetTrain(bool)              {}
func (s facadeFixed) Overhead() map[string]int64 { return nil }

func TestWorkloadFacades(t *testing.T) {
	if pet.WebSearch().Name() != "WebSearch" || pet.DataMining().Name() != "DataMining" {
		t.Fatal("workload names wrong")
	}
	if pet.PaperScale().Spines != 6 || len(pet.BuildLeafSpine(pet.SmallScale()).Hosts) != 16 {
		t.Fatal("topology facades wrong")
	}
}
