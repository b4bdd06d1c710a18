package core

import (
	"pet/internal/mat"
	"pet/internal/netsim"
	"pet/internal/rl"
	"pet/internal/rl/ppo"
	"pet/internal/rng"
)

// CTDEController is the Centralized-Training / Decentralized-Execution
// alternative the paper argues *against* in Sec. 4.1.2 — implemented here
// (as MAPPO: local actors, one centralized critic over the joint
// observation, a shared team reward) so the DTDE-vs-CTDE trade-off can be
// measured rather than asserted. The controller meters the bytes a real
// deployment would move to the central trainer every interval; that number
// is the bandwidth overhead PET's IPPO avoids.
type CTDEController struct {
	*Loop
	cfg    Config
	agents []*SwitchAgent
	critic *ppo.Critic

	// Joint-trajectory buffers, aligned by time step with the actors' own
	// trajectories; each actor keeps its previous local state, actions
	// and log-probability in its SwitchAgent fields.
	jointStates [][]float64
	teamRewards []float64

	hasPrev        bool
	prevJoint      []float64
	prevJointValue float64

	bytesCollected int64 // observation gossip to the central trainer
	updates        int
}

// NewCTDEController builds local actors (one per switch) plus one central
// critic over the concatenated observations.
func NewCTDEController(net *netsim.Network, cfg Config) *CTDEController {
	cfg = cfg.withDefaults()
	c := &CTDEController{cfg: cfg}
	c.Loop = NewLoop(net, cfg.AgentConfig, ppoLearner(cfg, &c.agents, c.decide))
	jointDim := cfg.ObsDim() * len(c.agents)
	c.critic = ppo.NewCritic(jointDim, cfg.PPO.Hidden, cfg.PPO.CriticLR, rng.New(cfg.Seed).Split("critic").Seed())
	return c
}

// Agents returns the per-switch actors in NodeID order.
func (c *CTDEController) Agents() []*SwitchAgent { return c.agents }

// BytesCollected returns the cumulative observation volume shipped to the
// central trainer — zero only if training never ran.
func (c *CTDEController) BytesCollected() int64 { return c.bytesCollected }

// Updates returns how many centralized updates have completed.
func (c *CTDEController) Updates() int { return c.updates }

// decide runs one joint interval: collect every agent's observation, learn
// centrally, act locally.
func (c *CTDEController) decide(obs []Observation, out []netsim.ECNConfig) {
	// Central collection: the joint observation and the team reward cross
	// the network every interval in a real CTDE deployment. 8 bytes per
	// feature.
	n := len(obs)
	joint := make([]float64, 0, c.cfg.ObsDim()*n)
	rewardSum := 0.0
	for _, o := range obs {
		joint = append(joint, o.State...)
		rewardSum += o.Reward
	}
	teamReward := rewardSum / float64(n)
	if c.cfg.Train {
		c.bytesCollected += int64(8 * len(joint))
	}
	jointValue := c.critic.Value(joint)

	if c.cfg.Train && c.hasPrev {
		c.jointStates = append(c.jointStates, c.prevJoint)
		c.teamRewards = append(c.teamRewards, teamReward)
		for _, a := range c.agents {
			a.traj.Add(rl.Transition{
				State:   a.prevState,
				Actions: a.prevActs,
				LogProb: a.prevLogp,
				Value:   c.prevJointValue,
				Reward:  teamReward,
			})
		}
		if len(c.teamRewards) >= c.cfg.UpdateEvery {
			c.update(jointValue)
		}
	}

	for i, a := range c.agents {
		a.prevActs, a.prevLogp, _ = a.agent.Act(obs[i].State, c.cfg.Train)
		out[i] = c.cfg.ActionToECN(a.prevActs)
		a.prevState = mat.Clone(obs[i].State)
	}
	c.hasPrev = true
	c.prevJoint = mat.Clone(joint)
	c.prevJointValue = jointValue
}

// update runs one MAPPO step: GAE over team rewards with centralized
// values, one critic regression pass, one clipped actor update per agent
// with the shared advantages.
func (c *CTDEController) update(lastValue float64) {
	values := make([]float64, len(c.teamRewards))
	for i, st := range c.agents[0].traj.Steps {
		values[i] = st.Value
	}
	pcfg := c.agents[0].agent.Config()
	adv, returns := rl.GAE(c.teamRewards, values, lastValue, pcfg.Gamma, pcfg.Lambda)
	rl.NormalizeAdvantages(adv)

	c.critic.Fit(c.jointStates, returns, pcfg.Minibatch)
	for _, a := range c.agents {
		a.agent.UpdateActor(&a.traj, adv)
		a.traj.Reset()
	}
	c.jointStates = c.jointStates[:0]
	c.teamRewards = c.teamRewards[:0]
	c.updates++
	for _, a := range c.agents {
		a.agent.SetClipEps(c.cfg.Explore.At(c.updates))
	}
}
