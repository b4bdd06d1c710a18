// Package ddqn implements Double Deep Q-Networks with experience replay —
// the learning algorithm of the ACC baseline (SIGCOMM'21). It supports both
// per-agent local replay and the *global* (shared between switch agents)
// replay ACC uses, with the exchange volume metered so the paper's overhead
// argument (Goal 3) can be quantified.
package ddqn

import (
	"fmt"
	"math"
	"slices"

	"pet/internal/mat"
	"pet/internal/nn"
	"pet/internal/rng"
)

// Transition is one replayed step. The ECN-tuning MDP is continuing, so
// there is no terminal flag.
type Transition struct {
	S  []float64
	A  int
	R  float64
	S2 []float64
}

// wireBytes approximates the size of a transition on the wire when gossiped
// between switches (float64 features + action + reward).
func (t Transition) wireBytes() int64 {
	return int64(8*(len(t.S)+len(t.S2)) + 4 + 8)
}

// Replay is a fixed-capacity ring buffer of transitions. A single Replay
// may be shared by several agents (ACC's global experience replay); pushes
// then account for the broadcast bytes needed to keep the copies in sync.
type Replay struct {
	cap  int
	buf  []Transition
	next int
	full bool
	r    *rng.Stream

	subscribers    int
	bytesExchanged int64
}

// NewReplay creates a buffer with the given capacity.
func NewReplay(capacity int, seed int64) *Replay {
	if capacity <= 0 {
		panic("ddqn: non-positive replay capacity")
	}
	return &Replay{cap: capacity, buf: make([]Transition, 0, capacity), r: rng.New(seed)}
}

// Subscribe registers one agent sharing this buffer and returns the buffer.
// With n subscribers every push is gossiped to the n−1 other switches.
func (rp *Replay) Subscribe() *Replay {
	rp.subscribers++
	return rp
}

// Push inserts a transition, overwriting the oldest once full.
func (rp *Replay) Push(t Transition) {
	if rp.subscribers > 1 {
		rp.bytesExchanged += t.wireBytes() * int64(rp.subscribers-1)
	}
	if len(rp.buf) < rp.cap {
		rp.buf = append(rp.buf, t)
	} else {
		rp.buf[rp.next] = t
		rp.full = true
	}
	rp.next = (rp.next + 1) % rp.cap
}

// Len returns the number of stored transitions.
func (rp *Replay) Len() int { return len(rp.buf) }

// BytesExchanged returns the cumulative gossip volume of a shared buffer —
// zero for local replay.
func (rp *Replay) BytesExchanged() int64 { return rp.bytesExchanged }

// MemoryBytes estimates resident memory of the stored transitions.
func (rp *Replay) MemoryBytes() int64 {
	var total int64
	for i := range rp.buf {
		total += rp.buf[i].wireBytes()
	}
	return total
}

// Sample draws n transitions uniformly with replacement into dst. It copies
// them by value: once the ring is full, a later Push overwrites a slot drawn
// here, and the draw must not change with it.
func (rp *Replay) Sample(n int, dst []Transition) []Transition {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, rp.buf[rp.r.Intn(len(rp.buf))])
	}
	return dst
}

// Config parameterizes a DDQN agent.
type Config struct {
	ObsDim  int
	Actions int
	Hidden  []int // default {64, 64}

	LR         float64 // default 1e-3
	Gamma      float64 // default 0.99
	BatchSize  int     // default 32
	MinReplay  int     // transitions before learning starts, default 64
	TargetSync int     // learn steps between target syncs, default 100
}

func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.MinReplay == 0 {
		c.MinReplay = 64
	}
	if c.TargetSync == 0 {
		c.TargetSync = 100
	}
	return c
}

// Agent is one Double-DQN learner over a (possibly shared) replay buffer.
type Agent struct {
	cfg    Config
	online *nn.MLP
	target *nn.MLP
	opt    *nn.Adam
	replay *Replay
	r      *rng.Stream

	learnSteps int
	batch      []Transition // the minibatch Stage drew; empty once learned
	dOut       []float64
}

// New creates an agent. replay may be shared across agents; pass nil for a
// fresh private buffer of capacity 10000.
func New(cfg Config, seed int64, replay *Replay) *Agent {
	cfg = cfg.withDefaults()
	if cfg.ObsDim <= 0 || cfg.Actions <= 0 {
		panic("ddqn: ObsDim and Actions are required")
	}
	root := rng.New(seed)
	if replay == nil {
		replay = NewReplay(10000, root.Split("replay").Seed())
	}
	sizes := append(append([]int{cfg.ObsDim}, cfg.Hidden...), cfg.Actions)
	a := &Agent{
		cfg:    cfg,
		online: nn.NewMLP(sizes, nn.ActReLU, root.Split("online")),
		target: nn.NewMLP(sizes, nn.ActReLU, root.Split("target")),
		opt:    nil,
		replay: replay.Subscribe(),
		r:      root.Split("explore"),
		dOut:   make([]float64, cfg.Actions),
	}
	a.opt = nn.NewAdam(cfg.LR, a.online)
	a.SyncTarget()
	return a
}

// Config returns the effective configuration.
func (a *Agent) Config() Config { return a.cfg }

// Replay exposes the agent's buffer (for overhead metering).
func (a *Agent) Replay() *Replay { return a.replay }

// Act returns an ε-greedy action for the state.
func (a *Agent) Act(state []float64, eps float64) int {
	if a.r.Bernoulli(eps) {
		return a.r.Intn(a.cfg.Actions)
	}
	return mat.ArgMax(a.online.Forward(state))
}

// QValues returns a copy of the online network's Q(s, ·).
func (a *Agent) QValues(state []float64) []float64 {
	return mat.Clone(a.online.Forward(state))
}

// Observe stores a transition and runs one learning step when enough
// experience has accumulated: Stage, then Learn.
func (a *Agent) Observe(t Transition) {
	a.Stage(t)
	a.Learn()
}

// Stage is the half of Observe that touches the replay: it pushes t and,
// once the replay holds MinReplay transitions, draws the minibatch the next
// Learn consumes. Agents sharing one replay stage one at a time, in a fixed
// order, which fixes the replay's contents and its draws; each then holds
// its own copy of its draw, so their Learn calls may run concurrently.
func (a *Agent) Stage(t Transition) {
	a.replay.Push(t)
	if a.replay.Len() >= a.cfg.MinReplay {
		a.batch = a.replay.Sample(a.cfg.BatchSize, a.batch)
	}
}

// Learn runs one learning step on the minibatch Stage drew, if it drew one.
// It reads and writes only the agent's own networks and optimizer.
func (a *Agent) Learn() {
	if len(a.batch) > 0 {
		a.learn()
		a.batch = a.batch[:0]
	}
}

// learn applies one Double-Q update on the staged minibatch:
//
//	y = r + γ · Q_target(s', argmax_a Q_online(s', a))
//
// Only the argmax needs every Q-value; the target and the prediction read
// one output each, so they run the one-output forward pass, and the
// gradient is one-hot at the taken action as that pass requires.
func (a *Agent) learn() {
	invB := 1.0 / float64(len(a.batch))
	for i := range a.batch {
		t := &a.batch[i]
		// The target first: its argmax pass overwrites the online
		// network's cached activations, which the backward pass reads.
		y := a.tdTarget(t)
		diff := a.online.ForwardAt(t.S, t.A) - y
		mat.Fill(a.dOut, 0)
		a.dOut[t.A] = 2 * diff * invB
		a.online.BackwardParams(a.dOut)
	}
	a.opt.ClipGradNorm(10)
	a.opt.Step()
	a.learnSteps++
	if a.learnSteps%a.cfg.TargetSync == 0 {
		a.SyncTarget()
	}
}

// LearnSteps returns how many gradient steps have run.
func (a *Agent) LearnSteps() int { return a.learnSteps }

// SyncTarget copies the online network into the target network.
// The architectures are identical by construction, so the parameter groups
// copy one to one without a flattened snapshot.
func (a *Agent) SyncTarget() {
	target := a.target.Params()
	for i, p := range a.online.Params() {
		copy(target[i], p)
	}
}

// Encode serializes the online network (the target is rebuilt on load).
func (a *Agent) Encode() ([]byte, error) {
	return a.online.Encode()
}

// ValidateSnapshot reports whether data is an Encode output loadable into
// this agent — same layer sizes — without touching any weights. Callers
// restoring many agents at once validate every snapshot first so a
// corrupted bundle cannot leave some agents restored and others not.
func (a *Agent) ValidateSnapshot(data []byte) error {
	_, err := a.decodeSnapshot(data)
	return err
}

// RestoreFrom loads weights saved by Encode into both networks. The
// architecture must match; a failed restore leaves the agent unchanged.
func (a *Agent) RestoreFrom(data []byte) error {
	m, err := a.decodeSnapshot(data)
	if err != nil {
		return err
	}
	if err := a.online.Restore(m.Snapshot()); err != nil {
		return err
	}
	a.SyncTarget()
	return nil
}

func (a *Agent) decodeSnapshot(data []byte) (*nn.MLP, error) {
	m, err := nn.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ddqn: decoding snapshot: %w", err)
	}
	if got, want := m.Sizes(), a.online.Sizes(); !slices.Equal(got, want) {
		return nil, fmt.Errorf("ddqn: snapshot layers %v, agent has %v", got, want)
	}
	return m, nil
}

// TD computes the current TD error magnitude for a transition (useful in
// tests to verify learning reduces it).
func (a *Agent) TD(t Transition) float64 {
	y := a.tdTarget(&t)
	return math.Abs(a.online.ForwardAt(t.S, t.A) - y)
}

// tdTarget is the Double-Q target of a transition (no terminal states in a
// continuing MDP).
func (a *Agent) tdTarget(t *Transition) float64 {
	bestNext := mat.ArgMax(a.online.Forward(t.S2))
	return t.R + a.cfg.Gamma*a.target.ForwardAt(t.S2, bestNext)
}
