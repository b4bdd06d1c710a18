package core

import (
	"fmt"
	"slices"

	"pet/internal/mat"
	"pet/internal/netsim"
	"pet/internal/rl"
	"pet/internal/rl/ppo"
)

// Controller is the PET multi-agent system over one network: one
// independent SwitchAgent per switch (DTDE), each driving the ECN
// configuration of that switch's egress queues every Δt.
type Controller struct {
	*Loop
	cfg    Config
	agents []*SwitchAgent
}

// NewController builds one agent per switch. Agents are seeded
// independently from cfg.Seed.
func NewController(net *netsim.Network, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg}
	c.Loop = NewLoop(net, cfg.AgentConfig, ppoLearner(cfg, &c.agents, c.decide))
	return c
}

// Config returns the effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// Agents returns the per-switch agents in NodeID order.
func (c *Controller) Agents() []*SwitchAgent { return c.agents }

// decide is one independent IPPO step per agent: account the reward for
// the previous action, optionally learn, and pick the next configuration.
func (c *Controller) decide(obs []Observation, out []netsim.ECNConfig) {
	for i, o := range obs {
		a := c.agents[i]
		if c.cfg.Train && a.hasPrev {
			a.traj.Add(rl.Transition{
				State:   a.prevState,
				Actions: a.prevActs,
				LogProb: a.prevLogp,
				Value:   a.prevValue,
				Reward:  o.Reward,
			})
			if a.traj.Len() >= c.cfg.UpdateEvery {
				last := a.agent.Value(o.State)
				a.agent.Update(&a.traj, last)
				a.traj.Reset()
				a.updates++
				// Eq. (13): exponential decay of the exploration parameter.
				a.agent.SetClipEps(c.cfg.Explore.At(a.updates))
			}
		}
		acts, logp, value := a.agent.Act(o.State, c.cfg.Train)
		out[i] = c.cfg.ActionToECN(acts)
		a.hasPrev = true
		a.prevState = mat.Clone(o.State)
		a.prevActs = acts
		a.prevLogp = logp
		a.prevValue = value
	}
}

// SetTrain toggles online incremental training at runtime (offline-trained
// models are deployed with Train off, then enabled for incremental tuning).
func (c *Controller) SetTrain(on bool) {
	c.cfg.Train = on
	if !on {
		for _, a := range c.agents {
			a.traj.Reset()
			a.hasPrev = false
		}
	}
}

// TotalUpdates sums completed IPPO updates across agents.
func (c *Controller) TotalUpdates() int {
	n := 0
	for _, a := range c.agents {
		n += a.updates
	}
	return n
}

// MergeModelBundles folds bundles saved by EncodeModels into one bundle by
// element-wise averaging each switch's policy and critic weights across the
// inputs — the synchronized merge step of parallel pre-training. All
// bundles must cover the same switch set. A single bundle is returned
// byte-for-byte unchanged.
func MergeModelBundles(bundles [][]byte) ([]byte, error) {
	if len(bundles) == 0 {
		return nil, fmt.Errorf("core: merging zero bundles")
	}
	if len(bundles) == 1 {
		return append([]byte(nil), bundles[0]...), nil
	}
	decoded := make([]*modelBundle, len(bundles))
	for i, data := range bundles {
		b, err := decodeBundle(data)
		if err != nil {
			return nil, fmt.Errorf("core: bundle %d: %w", i, err)
		}
		decoded[i] = b
	}
	first := decoded[0]
	for i, b := range decoded[1:] {
		if !slices.Equal(b.Switches, first.Switches) {
			return nil, fmt.Errorf("core: bundle %d switch set %v differs from bundle 0 %v",
				i+1, b.Switches, first.Switches)
		}
	}
	out := modelBundle{Switches: first.Switches}
	for j, sw := range first.Switches {
		column := make([][]byte, len(decoded))
		for i, b := range decoded {
			column[i] = b.Models[j]
		}
		merged, err := ppo.MergeSnapshots(column)
		if err != nil {
			return nil, fmt.Errorf("core: merging switch %d: %w", sw, err)
		}
		out.Models = append(out.Models, merged)
	}
	return encodeBundle(out)
}
