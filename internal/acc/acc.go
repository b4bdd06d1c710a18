// Package acc re-implements the ACC baseline (Yan et al., SIGCOMM 2021):
// per-switch DDQN agents that tune ECN thresholds from the four basic
// metrics (queue length, output rate, marked-output rate, current ECN
// configuration), trained with ε-greedy exploration over a *global*
// experience replay shared between switches. The global replay's gossip
// volume and memory footprint are metered — they are exactly the overhead
// PET's independent learning eliminates (the paper's Goal 3).
package acc

import (
	"math"

	"pet/internal/core"
	"pet/internal/mat"
	"pet/internal/netsim"
	"pet/internal/rl"
	"pet/internal/rl/ddqn"
	"pet/internal/rng"
)

// Config parameterizes the ACC controller: the switch-agent settings PET
// uses too — the comparison holds ACC to PET's cadence, action grid, state
// window and reward (Sec. 5.2), its ω1·throughput + ω2·delay reward being
// PET's Eq. (6) over Beta1/Beta2 — plus DDQN's own knobs. Zero values take
// the settings the paper used for its comparison.
//
// ACC's action picks Kmax = Alpha·2^n KB and a marking probability; Kmin is
// tied at Kmax/4, keeping the joint action space small enough for a DQN head.
type Config struct {
	core.AgentConfig

	GlobalReplay bool        // ACC's published design; false isolates replay per agent
	ReplayCap    int         // default 10000
	Epsilon      rl.ExpDecay // ε-greedy schedule, default 0.2/0.99/T=50
	DDQN         ddqn.Config // network overrides (ObsDim/Actions derived)
}

func (c Config) withDefaults() Config {
	c.AgentConfig = c.AgentConfig.WithDefaults()
	if c.ReplayCap == 0 {
		c.ReplayCap = 10000
	}
	if c.Epsilon == (rl.ExpDecay{}) {
		c.Epsilon = rl.ExpDecay{Init: 0.2, Rate: 0.99, DecaySlot: 50, Floor: 0.02}
	}
	return c
}

// featuresPerSlot: qlen, txRate, txRate(m), and the current (Kmin, Kmax,
// Pmax) — ACC's four basic metrics with the configuration unpacked.
const featuresPerSlot = 6

// ObsDim returns the flattened observation width.
func (c Config) ObsDim() int { return c.HistoryK * featuresPerSlot }

// Actions returns the joint action count.
func (c Config) Actions() int { return (c.NMax + 1) * c.PmaxLevels }

// ActionToECN decodes a joint action index.
func (c Config) ActionToECN(idx int) netsim.ECNConfig {
	n := idx / c.PmaxLevels
	p := idx % c.PmaxLevels
	kmax := int(c.Alpha * math.Pow(2, float64(n)) * 1024)
	pmax := c.PmaxStep * float64(p+1)
	if pmax > 1 {
		pmax = 1
	}
	kmin := kmax / 4
	if kmin < 1 {
		kmin = 1
	}
	return netsim.ECNConfig{Enabled: true, KminBytes: kmin, KmaxBytes: kmax, Pmax: pmax}
}

// SwitchAgent is one ACC agent on one switch.
type SwitchAgent struct {
	*core.SwitchState
	agent *ddqn.Agent

	hasPrev   bool
	prevState []float64
	prevAct   int
}

// Controller is the ACC multi-agent system: per-switch DDQN agents over a
// shared global replay (per the published design).
type Controller struct {
	*core.Loop
	cfg    Config
	agents []*SwitchAgent
	global *ddqn.Replay
}

// NewController builds one DDQN agent per switch.
func NewController(net *netsim.Network, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg}
	root := rng.New(cfg.Seed)
	if cfg.GlobalReplay {
		c.global = ddqn.NewReplay(cfg.ReplayCap, root.Split("replay").Seed())
	}
	dcfg := cfg.DDQN
	dcfg.ObsDim = cfg.ObsDim()
	dcfg.Actions = cfg.Actions()
	c.Loop = core.NewLoop(net, cfg.AgentConfig, core.Learner{
		// Neutral starting configuration, mid-range like PET's default.
		Initial:  cfg.ActionToECN(cfg.Actions() / 2),
		Features: cfg.slotFeatures,
		Decide:   c.decide,
		Attach: func(s *core.SwitchState, seed int64) core.Model {
			replay := c.global
			if replay == nil {
				replay = ddqn.NewReplay(cfg.ReplayCap, root.SplitN("replay", int(s.Switch)).Seed())
			}
			a := &SwitchAgent{SwitchState: s, agent: ddqn.New(dcfg, seed, replay)}
			c.agents = append(c.agents, a)
			return a.agent
		},
	})
	return c
}

// Config returns the effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// Agents returns the per-switch agents in NodeID order.
func (c *Controller) Agents() []*SwitchAgent { return c.agents }

// slotFeatures normalizes one slot into ACC's six per-slot features.
func (c Config) slotFeatures(s *core.SwitchState, f core.SlotFeatures) []float64 {
	bw := s.NCM().TotalBandwidth()
	tx := float64(f.TxBytes) * 8 / (c.Interval.Seconds() * bw)
	txm := float64(f.TxMarkedBytes) * 8 / (c.Interval.Seconds() * bw)
	kmin, kmax, pmax := c.ECNToFeatures(s.CurrentECN())
	return []float64{f.QAvgBytes / c.QlenNorm, tx, txm, kmin, kmax, pmax}
}

// decide is one DDQN step per agent in two phases. The first runs in NodeID
// order and is all that touches the global replay: store the previous
// transition and draw the minibatch. The second runs across agents: each
// learns from its own draw and acts ε-greedily with its own networks and
// random stream. The replay's contents and draws keep the order of agents
// stepping in turn, so the trained weights are those of that order too.
func (c *Controller) decide(obs []core.Observation, out []netsim.ECNConfig) {
	for i, o := range obs {
		a := c.agents[i]
		// One copy of the observation is both this transition's S2 and the
		// next one's S: nothing mutates a stored state.
		state := mat.Clone(o.State)
		if c.cfg.Train && a.hasPrev {
			a.agent.Stage(ddqn.Transition{S: a.prevState, A: a.prevAct, R: o.Reward, S2: state})
		}
		a.hasPrev = true
		a.prevState = state
	}
	core.Parallel(len(obs), func(i int) {
		a := c.agents[i]
		a.agent.Learn()
		eps := 0.0
		if c.cfg.Train {
			eps = c.cfg.Epsilon.At(a.Steps())
		}
		a.prevAct = a.agent.Act(obs[i].State, eps)
		out[i] = c.cfg.ActionToECN(a.prevAct)
	})
}

// SetTrain toggles learning on every agent.
func (c *Controller) SetTrain(on bool) {
	c.cfg.Train = on
	if !on {
		for _, a := range c.agents {
			a.hasPrev = false
		}
	}
}

// BytesExchanged returns the global replay gossip volume — the bandwidth
// overhead PET avoids. Zero when GlobalReplay is off.
func (c *Controller) BytesExchanged() int64 {
	if c.global == nil {
		return 0
	}
	return c.global.BytesExchanged()
}

// ReplayMemoryBytes returns the resident replay footprint across agents.
func (c *Controller) ReplayMemoryBytes() int64 {
	if c.global != nil {
		// Every switch keeps a copy of the shared buffer.
		return c.global.MemoryBytes() * int64(len(c.agents))
	}
	var total int64
	for _, a := range c.agents {
		total += a.agent.Replay().MemoryBytes()
	}
	return total
}
