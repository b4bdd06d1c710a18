package bench_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"pet/internal/bench"
	"pet/internal/core"
	"pet/internal/netsim"
	"pet/internal/sim"
)

// TestEverySchemeTransportCombinationRuns exercises the full registry matrix:
// everything registered must assemble against a tiny scenario and simulate
// a millisecond without error.
func TestEverySchemeTransportCombinationRuns(t *testing.T) {
	schemes := bench.SchemeNames()
	transports := bench.TransportNames()
	if len(schemes) < 8 {
		t.Fatalf("schemes registered = %v, want at least the 8 built-ins", schemes)
	}
	if len(transports) < 2 {
		t.Fatalf("transports registered = %v, want at least dcqcn and dctcp", transports)
	}
	for _, scheme := range schemes {
		for _, tr := range transports {
			scheme, tr := scheme, tr
			t.Run(string(scheme)+"/"+string(tr), func(t *testing.T) {
				t.Parallel()
				_, err := bench.Run(bench.Scenario{
					Scheme:    scheme,
					Transport: tr,
					Train:     true,
					Load:      0.3,
					Warmup:    200 * sim.Microsecond,
					Duration:  1 * sim.Millisecond,
				})
				if err != nil {
					t.Fatalf("Run(%s over %s): %v", scheme, tr, err)
				}
			})
		}
	}
}

func TestUnknownSchemeTypedError(t *testing.T) {
	_, err := bench.Run(bench.Scenario{Scheme: "nope"})
	var unknown *bench.UnknownSchemeError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *UnknownSchemeError", err)
	}
	if unknown.Name != "nope" {
		t.Fatalf("error names scheme %q", unknown.Name)
	}
	// The message should steer the user toward what IS registered.
	if !strings.Contains(err.Error(), string(bench.SchemePET)) {
		t.Fatalf("error %q does not list registered schemes", err)
	}
	if _, err := bench.NewEnv(bench.Scenario{Scheme: "nope"}); !errors.As(err, &unknown) {
		t.Fatalf("NewEnv err = %v, want *UnknownSchemeError", err)
	}
}

// Scenario.Models is loaded in one place, NewEnv, for every scheme: a
// ModelScheme rejects a bad bundle, and a scheme that is not one rejects
// any bundle with a typed error instead of silently running untrained.
func TestScenarioModelsLoadedForEveryScheme(t *testing.T) {
	good, err := bench.PretrainInit(bench.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bench.NewEnv(bench.Scenario{Scheme: bench.SchemePET, Models: good}); err != nil {
		t.Fatalf("PET rejected its own bundle: %v", err)
	}
	for _, scheme := range []bench.Scheme{bench.SchemePET, bench.SchemePETAblated, bench.SchemeACC} {
		if _, err := bench.NewEnv(bench.Scenario{Scheme: scheme, Models: []byte("garbage")}); err == nil {
			t.Errorf("%s: garbage bundle accepted", scheme)
		}
	}
	if _, err := bench.NewEnv(bench.Scenario{Scheme: bench.SchemeACC, Models: good}); err == nil {
		t.Error("ACC accepted a PET bundle")
	}
	for _, scheme := range []bench.Scheme{bench.SchemeSECN1, bench.SchemePETCTDE} {
		_, err := bench.NewEnv(bench.Scenario{Scheme: scheme, Models: good})
		var none *bench.NoModelsError
		if !errors.As(err, &none) || none.Scheme != scheme {
			t.Errorf("%s: err = %v, want *NoModelsError", scheme, err)
		}
	}
}

func TestUnknownTransportTypedError(t *testing.T) {
	_, err := bench.Run(bench.Scenario{Transport: "carrier-pigeon"})
	var unknown *bench.UnknownTransportError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *UnknownTransportError", err)
	}
	if unknown.Name != "carrier-pigeon" {
		t.Fatalf("error names transport %q", unknown.Name)
	}
	if !strings.Contains(err.Error(), string(bench.TransportDCQCN)) {
		t.Fatalf("error %q does not list registered transports", err)
	}
}

// fixedScheme is a trivial external control scheme: install one immutable
// ECN configuration at start. Registering and selecting it from this package
// (outside internal/bench) is the acceptance test for the plugin surface.
type fixedScheme struct {
	env *bench.Env
	cfg netsim.ECNConfig
}

func (s *fixedScheme) Start() {
	for _, p := range s.env.Net.SwitchPorts() {
		p.SetECN(0, s.cfg)
	}
	s.env.RecordECNChange(0, s.cfg)
}
func (s *fixedScheme) SetTrain(bool)              {}
func (s *fixedScheme) Overhead() map[string]int64 { return map[string]int64{"fixed_installs": 1} }

const fixedSchemeName = bench.Scheme("test-fixed")

// registerFixedScheme registers once per process: the registry outlives a
// test, and -count=2 runs this file twice in one.
var registerFixedScheme = sync.OnceFunc(func() {
	bench.RegisterScheme(fixedSchemeName, func(e *bench.Env) (bench.ControlScheme, error) {
		return &fixedScheme{
			env: e,
			cfg: netsim.ECNConfig{Enabled: true, KminBytes: 10 << 10, KmaxBytes: 40 << 10, Pmax: 0.1},
		}, nil
	})
})

func TestRegisterCustomSchemeFromOutside(t *testing.T) {
	const name = fixedSchemeName
	registerFixedScheme()
	found := false
	for _, n := range bench.SchemeNames() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("SchemeNames() = %v, missing %q", bench.SchemeNames(), name)
	}
	res, err := bench.Run(bench.Scenario{
		Scheme:   name,
		Load:     0.4,
		Warmup:   2 * sim.Millisecond,
		Duration: 8 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsDone == 0 {
		t.Fatal("custom scheme ran no flows")
	}
	if res.Overhead["fixed_installs"] != 1 {
		t.Fatalf("custom overhead metric not surfaced: %v", res.Overhead)
	}
}

func TestRegisterSchemeRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration accepted")
		}
	}()
	bench.RegisterScheme(bench.SchemePET, func(e *bench.Env) (bench.ControlScheme, error) {
		return nil, nil
	})
}

// TestExplicitZeroBetas pins the satellite fix: an explicit (0, 0) reward
// weighting must survive defaulting instead of being rewritten to (0.3, 0.7).
func TestExplicitZeroBetas(t *testing.T) {
	env, err := bench.NewEnv(bench.Scenario{
		Scheme:        bench.SchemePET,
		ExplicitBetas: true,
		Load:          0.3,
		Warmup:        sim.Millisecond,
		Duration:      2 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.Control.(*core.Controller).Config()
	if cfg.Beta1 != 0 || cfg.Beta2 != 0 {
		t.Fatalf("explicit zero betas rewritten to (%v, %v)", cfg.Beta1, cfg.Beta2)
	}

	// Without the flag the historical default still applies.
	env, err = bench.NewEnv(bench.Scenario{
		Scheme:   bench.SchemePET,
		Load:     0.3,
		Warmup:   sim.Millisecond,
		Duration: 2 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg = env.Control.(*core.Controller).Config()
	if cfg.Beta1 != 0.3 || cfg.Beta2 != 0.7 {
		t.Fatalf("default betas = (%v, %v), want (0.3, 0.7)", cfg.Beta1, cfg.Beta2)
	}
}
