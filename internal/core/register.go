package core

import (
	"pet/internal/bench"
	"pet/internal/netsim"
	"pet/internal/rl/ppo"
	"pet/internal/topo"
)

// This file plugs PET into the bench scheme registry: the DTDE controller
// under "PET", its Fig. 9 state ablation under "PET-ablated", and the
// centralized-training MAPPO variant under "PET-CTDE".

func init() {
	bench.RegisterScheme(bench.SchemePET, buildPET)
	bench.RegisterScheme(bench.SchemePETAblated, buildPET)
	bench.RegisterScheme(bench.SchemePETCTDE, func(e *bench.Env) (bench.ControlScheme, error) {
		return ctdeScheme{NewCTDEController(e.Net, benchConfig(e.Scenario, e.RecordECNChange))}, nil
	})
}

func buildPET(e *bench.Env) (bench.ControlScheme, error) {
	return NewController(e.Net, benchConfig(e.Scenario, e.RecordECNChange)), nil
}

// benchTrainKnobs centralizes the IPPO training-budget knobs the bench
// scenarios use — a short-horizon budget (frequent small updates, more
// epochs per trajectory, short credit-assignment horizon: queue dynamics
// respond to a threshold change within a few intervals) — so the
// calibration tests can sweep them.
var benchTrainKnobs = struct {
	UpdateEvery int
	PPO         ppo.Config
}{
	UpdateEvery: 64,
	PPO: ppo.Config{
		Epochs:    4,
		Minibatch: 32,
		Gamma:     0.9,
		Lambda:    0.9,
	},
}

// ScenarioAgentConfig is the one translation of a bench scenario into the
// switch-agent settings every learned scheme shares; the PET, PET-ablated,
// PET-CTDE and ACC builders and NewInferenceAgents all start from it.
// onApply (nil ok) observes every installed configuration.
func ScenarioAgentConfig(s bench.Scenario, onApply func(topo.NodeID, netsim.ECNConfig)) AgentConfig {
	return AgentConfig{
		OnApply:         onApply,
		Alpha:           bench.ControlAlpha,
		Interval:        bench.ControlInterval,
		Beta1:           s.Beta1,
		Beta2:           s.Beta2,
		ExplicitWeights: true, // bench.Scenario owns reward-weight defaulting
		Train:           s.Train,
		HistoryK:        s.HistoryK,
		Seed:            s.Seed,
		Telemetry:       s.Telemetry,
	}
}

// benchConfig adds PET's own bench settings — the Fig. 9 state ablation
// and the training budget — to the scenario's shared settings.
func benchConfig(s bench.Scenario, onApply func(topo.NodeID, netsim.ECNConfig)) Config {
	return Config{
		AgentConfig:        ScenarioAgentConfig(s, onApply),
		DisableIncastState: s.Scheme == bench.SchemePETAblated,
		DisableRatioState:  s.Scheme == bench.SchemePETAblated,
		UpdateEvery:        benchTrainKnobs.UpdateEvery,
		PPO:                benchTrainKnobs.PPO,
	}
}

// Overhead implements bench.ControlScheme: DTDE exchanges nothing between
// switches — the absence of this overhead is the paper's Goal 3.
func (c *Controller) Overhead() map[string]int64 { return nil }

// ctdeScheme adapts CTDEController to bench.ControlScheme. SetTrain is a
// no-op by design: centralized training cannot be paused without abandoning
// its premise, and its collection overhead during operation is part of what
// the DTDE-vs-CTDE comparison measures. It is deliberately not a
// bench.ModelScheme: a bundle carries the per-switch actors but not the
// central critic, so CTDE trains online only.
type ctdeScheme struct{ ctl *CTDEController }

func (s ctdeScheme) Start() { s.ctl.Start() }

func (s ctdeScheme) SetTrain(bool) {}

func (s ctdeScheme) Overhead() map[string]int64 {
	return map[string]int64{bench.OverheadCentralBytes: s.ctl.BytesCollected()}
}
