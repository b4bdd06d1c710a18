package core

import (
	"pet/internal/netsim"
	"pet/internal/rl"
	"pet/internal/rl/ppo"
)

// SwitchAgent is one DTDE agent: an independent PPO learner bound to one
// switch, with its own NCM, trajectory and exploration schedule. No state,
// replay or parameters are shared with other agents.
type SwitchAgent struct {
	*SwitchState
	cfg   Config
	agent *ppo.Agent

	traj      rl.Trajectory
	hasPrev   bool
	prevState []float64
	prevActs  []int
	prevLogp  float64
	prevValue float64

	updates int
}

func newSwitchAgent(s *SwitchState, cfg Config, seed int64) *SwitchAgent {
	pcfg := cfg.PPO
	pcfg.ObsDim = cfg.ObsDim()
	pcfg.Heads = cfg.Heads()
	a := &SwitchAgent{SwitchState: s, cfg: cfg, agent: ppo.New(pcfg, seed)}
	a.agent.SetTelemetry(cfg.Telemetry)
	return a
}

// Policy exposes the underlying PPO agent (for model save/restore).
func (a *SwitchAgent) Policy() *ppo.Agent { return a.agent }

// Updates returns the number of completed IPPO updates.
func (a *SwitchAgent) Updates() int { return a.updates }

// ppoLearner is the Learner half PET and PET-CTDE share: one PPO actor per
// switch, appended to *agents, over PET's eight-feature slot state.
func ppoLearner(cfg Config, agents *[]*SwitchAgent, decide func([]Observation, []netsim.ECNConfig)) Learner {
	return Learner{
		Initial:  cfg.ActionToECN(cfg.DefaultAction()),
		Features: cfg.slotFeatures,
		Attach: func(s *SwitchState, seed int64) Model {
			a := newSwitchAgent(s, cfg, seed)
			*agents = append(*agents, a)
			return a.agent
		},
		Decide: decide,
	}
}

// slotFeatures normalizes one slot into the agent's per-slot feature
// vector (the six pivotal factors of Eq. 2, thresholds unpacked).
func (c Config) slotFeatures(s *SwitchState, f SlotFeatures) []float64 {
	kmin, kmax, pmax := c.ECNToFeatures(s.current)
	txNorm := float64(f.TxBytes) * 8 / (c.Interval.Seconds() * s.ncm.TotalBandwidth())
	markNorm := float64(f.TxMarkedBytes) * 8 / (c.Interval.Seconds() * s.ncm.TotalBandwidth())
	incast := float64(f.IncastDegree) / c.IncastNorm
	if incast > 1 {
		incast = 1
	}
	if c.DisableIncastState {
		incast = 0
	}
	ratio := f.MiceRatio
	if c.DisableRatioState {
		ratio = 0
	}
	return []float64{
		f.QAvgBytes / c.QlenNorm,
		txNorm,
		markNorm,
		kmin,
		kmax,
		pmax,
		incast,
		ratio,
	}
}
