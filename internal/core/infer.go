package core

import (
	"fmt"
	"sort"

	"pet/internal/bench"
	"pet/internal/netsim"
	"pet/internal/rng"
	"pet/internal/topo"
)

// This file is the serving-side inference surface: computing the RED/ECN
// action a trained agent would install for a raw observation vector,
// without driving (or even having) a live simulation. The petd daemon's
// batched /infer endpoint is built on it — switches ship observations, the
// policy answers with (Kmin, Kmax, Pmax).

// NewInferenceAgents decodes a bundle saved by EncodeModels into one agent
// per switch of fabric, in NodeID order: the deployed half of PET, with no
// network, NCM or training state behind it. The agents are configured and
// seeded exactly as the PET scheme builds them, and the bundle loads through
// the loop's codec, so its switch set must be the fabric's and a corrupt
// snapshot fails the whole call. Only InferECN is meaningful on the result.
func NewInferenceAgents(fabric topo.LeafSpineConfig, bundle []byte) ([]*SwitchAgent, error) {
	if err := fabric.Validate(); err != nil {
		return nil, err
	}
	ls := topo.BuildLeafSpine(fabric)
	ids := append(append([]topo.NodeID(nil), ls.Spines...), ls.Leaves...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	cfg := benchConfig(bench.Scenario{Scheme: bench.SchemePET}, nil).withDefaults()
	root := rng.New(cfg.Seed)
	agents := make([]*SwitchAgent, len(ids))
	states := make([]*SwitchState, len(ids))
	models := make([]Model, len(ids))
	for i, sw := range ids {
		states[i] = &SwitchState{Switch: sw}
		agents[i] = newSwitchAgent(states[i], cfg, root.SplitN("agent", int(sw)).Seed())
		models[i] = agents[i].agent
	}
	if err := restoreBundle(bundle, states, models); err != nil {
		return nil, err
	}
	return agents, nil
}

// AgentBySwitch returns the agent managing switch sw, or nil when the
// controller has none (sw is a host, or not in the topology).
func (c *Controller) AgentBySwitch(sw topo.NodeID) *SwitchAgent {
	for _, a := range c.agents {
		if a.Switch == sw {
			return a
		}
	}
	return nil
}

// InferECN computes the deterministic (argmax) ECN configuration this
// agent's current policy selects for one raw observation vector, without
// installing it on any queue or advancing any agent state. obs must be the
// flattened HistoryK-slot observation (Config().ObsDim() values); acts is
// caller-owned scratch of at least len(Config().Heads()) entries, so the
// hot path allocates nothing. Like training, inference is not safe for
// concurrent use on one agent — callers pool controller replicas.
func (a *SwitchAgent) InferECN(obs []float64, acts []int) (netsim.ECNConfig, error) {
	if len(obs) != a.cfg.ObsDim() {
		return netsim.ECNConfig{}, fmt.Errorf(
			"core: switch %d observation has %d values, want %d (HistoryK=%d × %d features)",
			a.Switch, len(obs), a.cfg.ObsDim(), a.cfg.HistoryK, featuresPerSlot)
	}
	if want := len(a.cfg.Heads()); len(acts) < want {
		return netsim.ECNConfig{}, fmt.Errorf("core: action scratch has %d slots, want %d", len(acts), want)
	}
	a.agent.ActionsInto(obs, acts)
	return a.cfg.ActionToECN(acts), nil
}
