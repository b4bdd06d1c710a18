// Package core implements PET — the paper's contribution: a multi-agent
// Independent-PPO automatic ECN tuning system running in the Decentralized
// Training / Decentralized Execution (DTDE) paradigm.
//
// One agent lives on every switch. Its Network Condition Monitor (NCM)
// observes the six congestion-contributing metrics of Sec. 4.2.1 over a
// k-slot history, the IPPO policy picks a discrete (Kmin, Kmax, Pmax)
// triple (Sec. 4.2.2), the ECN Configuration Module translates it to queue
// configurations, and the reward r = β1·T + β2·La (Sec. 4.2.3) drives
// online incremental training on top of an optional offline-pretrained
// model (Sec. 4.4).
package core

import (
	"math"

	"pet/internal/netsim"
	"pet/internal/rl"
	"pet/internal/rl/ppo"
	"pet/internal/sim"
	"pet/internal/telemetry"
	"pet/internal/topo"
)

// AgentConfig is the switch-agent configuration every learned scheme
// shares (PET, PET-CTDE and the ACC baseline): the action grid, the state
// window, the loop's cadence and reward, and the run's plumbing. The
// schemes differ only in state set and learning algorithm (Sec. 5.2), so
// each scheme's Config embeds this and adds its learner's own knobs. Zero
// values take the paper's published settings.
type AgentConfig struct {
	// Action discretization, Eq. (5): E(n) = Alpha · 2^n KB for n ∈ [0, NMax].
	Alpha      float64 // scale parameter α, default 20 (paper); use smaller on scaled fabrics
	NMax       int     // default 9
	PmaxStep   float64 // marking probability granularity, default 0.05 (5%)
	PmaxLevels int     // default 20 (5%..100%)

	// State construction, Eq. (2)–(3).
	HistoryK int     // time slots per observation, default 3
	QlenNorm float64 // bytes that map the queue-length feature to 1.0, default 256 KiB

	// Tuning cadence: Δt between ECN reconfigurations (Sec. 4.2.2 requires
	// Δt ≈ 10× RTT). Default 200 µs. Queue occupancy is sampled
	// QueueSampleDiv times per slot for the time-averaged queue length.
	Interval       sim.Time
	QueueSampleDiv int // default 8

	// Reward, Eq. (6)–(8): r = β1·T + β2·La. The paper's La = 1/queueLen is
	// unbounded at empty queues; we use the bounded, equally monotone
	// La = 1/(1 + qAvg/QrefBytes).
	Beta1     float64 // throughput weight, default 0.3 (Web Search)
	Beta2     float64 // delay weight, default 0.7
	QrefBytes float64 // default 20 KiB

	// ExplicitWeights marks Beta1/Beta2 as deliberately set, suppressing
	// the (0.3, 0.7) default even when both are zero, so ablations can put
	// all weight on one reward term.
	ExplicitWeights bool

	// Train enables online incremental training (Sec. 4.4.2).
	Train bool

	// NCM memory management (Sec. 4.5.1).
	FlowTableMax    int      // threshold-cleanup bound, default 4096 entries
	CleanupInterval sim.Time // scheduled cleanup period, default 4×Interval

	// Class selects which data-queue class this controller manages
	// (Sec. 4.5.2 multi-queue adaptation runs one controller per class).
	Class int

	// OnApply, when set, observes every ECN reconfiguration an agent
	// installs (for tracing/telemetry).
	OnApply func(sw topo.NodeID, cfg netsim.ECNConfig)

	// Telemetry, when non-nil, publishes the loop's slot-reward gauge and
	// the learner's optimization statistics. Observation-only.
	Telemetry *telemetry.Registry

	Seed int64
}

// WithDefaults fills the unset fields with the paper's settings. It is the
// one place the shared defaults are applied.
func (c AgentConfig) WithDefaults() AgentConfig {
	if c.Alpha == 0 {
		c.Alpha = 20
	}
	if c.NMax == 0 {
		c.NMax = 9
	}
	if c.PmaxStep == 0 {
		c.PmaxStep = 0.05
	}
	if c.PmaxLevels == 0 {
		c.PmaxLevels = 20
	}
	if c.HistoryK == 0 {
		c.HistoryK = 3
	}
	if c.QlenNorm == 0 {
		c.QlenNorm = 256 << 10
	}
	if c.Interval == 0 {
		c.Interval = 200 * sim.Microsecond
	}
	if c.QueueSampleDiv == 0 {
		c.QueueSampleDiv = 8
	}
	if !c.ExplicitWeights && c.Beta1 == 0 && c.Beta2 == 0 {
		c.Beta1, c.Beta2 = 0.3, 0.7
	}
	if c.QrefBytes == 0 {
		c.QrefBytes = 20 << 10
	}
	if c.FlowTableMax == 0 {
		c.FlowTableMax = 4096
	}
	if c.CleanupInterval == 0 {
		c.CleanupInterval = 4 * c.Interval
	}
	return c
}

// Config parameterizes a PET controller: the shared switch-agent settings
// plus PET's state and IPPO knobs. Zero values take the paper's published
// settings (Sec. 5.2).
type Config struct {
	AgentConfig

	IncastNorm float64 // incast degree that maps the incast feature to 1.0, default 32

	// Fig. 9 ablation switches: drop the incast-degree and mice/elephant
	// ratio states, reducing PET to ACC's state set.
	DisableIncastState bool
	DisableRatioState  bool

	// Online incremental training (Sec. 4.4.2).
	UpdateEvery int         // transitions per IPPO update, default 32
	Explore     rl.ExpDecay // Eq. (13) decay of the exploration/clip rate
	PPO         ppo.Config  // network/optimizer overrides (ObsDim/Heads are derived)
}

func (c Config) withDefaults() Config {
	c.AgentConfig = c.AgentConfig.WithDefaults()
	if c.IncastNorm == 0 {
		c.IncastNorm = 32
	}
	if c.UpdateEvery == 0 {
		c.UpdateEvery = 32
	}
	if c.Explore == (rl.ExpDecay{}) {
		// Paper: decay_rate 0.99, T = 50, applied to the clip/exploration
		// parameter ε = 0.2.
		c.Explore = rl.ExpDecay{Init: 0.2, Rate: 0.99, DecaySlot: 50, Floor: 0.02}
	}
	return c
}

// featuresPerSlot is the per-slot observation width: qlen, txRate,
// txRate(m), the current ECN triple (Kmin, Kmax, Pmax), incast degree and
// mice/elephant ratio — the paper's six pivotal factors with the ECN
// configuration spelled out as its three components.
const featuresPerSlot = 8

// ObsDim returns the flattened observation width for this config.
func (c Config) ObsDim() int { return c.HistoryK * featuresPerSlot }

// Heads returns the multi-discrete action head sizes: the Kmin exponent,
// the Kmax exponent offset above Kmin, and the Pmax level.
func (c Config) Heads() []int {
	return []int{c.NMax + 1, c.NMax + 1, c.PmaxLevels}
}

// thresholdBytes evaluates Eq. (5): E(n) = α·2^n KB.
func (c AgentConfig) thresholdBytes(n int) int {
	return int(c.Alpha * math.Pow(2, float64(n)) * 1024)
}

// maxThresholdBytes is E(NMax), used to normalize threshold features.
func (c AgentConfig) maxThresholdBytes() float64 {
	return float64(c.thresholdBytes(c.NMax))
}
