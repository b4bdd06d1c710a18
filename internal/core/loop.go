package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"

	"pet/internal/netsim"
	"pet/internal/rng"
	"pet/internal/sim"
	"pet/internal/telemetry"
	"pet/internal/topo"
)

// This file is the one switch-agent loop every learned scheme runs on
// (PET, PET-CTDE and the ACC baseline): every Δt each switch's NCM closes
// its slot (observe), the scheme picks the next (Kmin, Kmax, Pmax) for
// every switch in one call (decide), and the ECN-CM installs them (apply).
// The loop owns everything the three share — the per-switch state, the
// tickers, the reward and the model-bundle codec; a scheme contributes a
// Learner.

// SwitchState is the loop's per-switch half of an agent: the switch's
// managed ports and NCM, its HistoryK feature window, the configuration
// installed on its queues and its reward accounting. Scheme agents embed it.
type SwitchState struct {
	Switch topo.NodeID

	ports   []*netsim.Port
	ncm     *NCM
	history [][]float64 // last HistoryK slot feature vectors
	current netsim.ECNConfig

	steps      int
	rewardSum  float64
	lastReward float64
}

// NCM exposes the switch's monitor (read-only use).
func (s *SwitchState) NCM() *NCM { return s.ncm }

// CurrentECN returns the configuration currently installed on the queues.
func (s *SwitchState) CurrentECN() netsim.ECNConfig { return s.current }

// Steps returns the number of completed tuning intervals.
func (s *SwitchState) Steps() int { return s.steps }

// MeanReward returns the average reward over all tuning steps so far.
func (s *SwitchState) MeanReward() float64 {
	if s.steps == 0 {
		return 0
	}
	return s.rewardSum / float64(s.steps)
}

// LastReward returns the most recent slot reward.
func (s *SwitchState) LastReward() float64 { return s.lastReward }

// Observation is one switch's closed slot as the decide phase sees it.
type Observation struct {
	Switch topo.NodeID
	State  []float64 // the flattened HistoryK-slot window, freshly allocated
	Reward float64   // Beta1·T + Beta2·La for the slot just closed
	T, La  float64   // the reward's throughput and delay terms
}

// Model is one switch's learner as the bundle codec sees it.
type Model interface {
	Encode() ([]byte, error)
	// ValidateSnapshot checks an Encode output without touching weights.
	ValidateSnapshot(data []byte) error
	RestoreFrom(data []byte) error
}

// Learner is the scheme-specific half of the loop.
type Learner struct {
	// Initial is the configuration installed before the first decision.
	Initial netsim.ECNConfig
	// Attach builds the learner for one switch and returns its model. It
	// runs once per switch, in NodeID order, with the switch's seed.
	Attach func(s *SwitchState, seed int64) Model
	// Features normalizes one closed slot into the per-slot feature vector
	// appended to the switch's history window.
	Features func(s *SwitchState, f SlotFeatures) []float64
	// Decide runs once per Δt over every switch's observation, in NodeID
	// order, and writes the configuration each switch installs into out.
	Decide func(obs []Observation, out []netsim.ECNConfig)
}

// Loop runs observe → decide → apply over every switch of one network.
// Phasing the interval this way is byte-identical to ticking agent by
// agent: a switch's apply touches only its own ports, and no simulation
// event fires inside a tick.
type Loop struct {
	cfg      AgentConfig
	net      *netsim.Network
	learner  Learner
	switches []*SwitchState
	models   []Model
	reward   *telemetry.Gauge // latest slot reward; nil without telemetry

	obs  []Observation
	next []netsim.ECNConfig

	started bool
	tickers []*sim.Ticker
}

// NewLoop groups the network's switch ports by owning switch and attaches
// one learner per switch, seeded independently from cfg.Seed. The loop
// reads cfg's cadence (Interval, QueueSampleDiv, CleanupInterval), Class,
// HistoryK, reward weights, OnApply and Telemetry; cfg must already carry
// its defaults.
func NewLoop(net *netsim.Network, cfg AgentConfig, learner Learner) *Loop {
	byOwner := make(map[topo.NodeID][]*netsim.Port)
	for _, p := range net.SwitchPorts() {
		byOwner[p.Owner()] = append(byOwner[p.Owner()], p)
	}
	ids := make([]topo.NodeID, 0, len(byOwner))
	for sw := range byOwner {
		ids = append(ids, sw)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	l := &Loop{
		cfg:     cfg,
		net:     net,
		learner: learner,
		reward:  cfg.Telemetry.Gauge("pet_slot_reward"),
		obs:     make([]Observation, len(ids)),
		next:    make([]netsim.ECNConfig, len(ids)),
	}
	root := rng.New(cfg.Seed)
	for _, sw := range ids {
		s := &SwitchState{Switch: sw, ports: byOwner[sw], ncm: NewNCM(byOwner[sw], cfg)}
		l.switches = append(l.switches, s)
		l.models = append(l.models, learner.Attach(s, root.SplitN("agent", int(sw)).Seed()))
		l.apply(s, learner.Initial)
	}
	return l
}

// Start arms the periodic machinery: the fine-grained queue sampler, the
// per-Δt tuning tick, and the NCM scheduled cleanup.
func (l *Loop) Start() {
	if l.started {
		return
	}
	l.started = true
	samplePeriod := l.cfg.Interval / sim.Time(l.cfg.QueueSampleDiv)
	if samplePeriod <= 0 {
		samplePeriod = l.cfg.Interval
	}
	eng := l.net.Engine()
	l.tickers = []*sim.Ticker{
		sim.NewTicker(eng, samplePeriod, func(sim.Time) {
			for _, s := range l.switches {
				s.ncm.SampleQueues()
			}
		}),
		sim.NewTicker(eng, l.cfg.Interval, func(sim.Time) { l.tick() }),
		sim.NewTicker(eng, l.cfg.CleanupInterval, func(sim.Time) {
			for _, s := range l.switches {
				s.ncm.ScheduledCleanup()
			}
		}),
	}
}

// Stop cancels the periodic machinery.
func (l *Loop) Stop() {
	for _, t := range l.tickers {
		t.Stop()
	}
	l.tickers = nil
	l.started = false
}

// MeanReward averages the per-switch mean rewards.
func (l *Loop) MeanReward() float64 {
	if len(l.switches) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range l.switches {
		sum += s.MeanReward()
	}
	return sum / float64(len(l.switches))
}

// tick closes one tuning interval Δt. Every switch's window fills on the
// same tick, so until then no switch decides and the initial
// configuration stays installed.
func (l *Loop) tick() {
	ready := true
	for i, s := range l.switches {
		l.obs[i] = l.observe(s)
		ready = ready && l.obs[i].State != nil
	}
	if !ready {
		return
	}
	l.learner.Decide(l.obs, l.next)
	for i, s := range l.switches {
		l.apply(s, l.next[i])
	}
}

// observe closes one monitoring slot: roll the NCM, fold the new features
// into the history window and, once the window is full, account the
// reward earned by the previous configuration.
func (l *Loop) observe(s *SwitchState) Observation {
	f := s.ncm.RollSlot()
	feat := l.learner.Features(s, f)
	if len(s.history) == l.cfg.HistoryK {
		copy(s.history, s.history[1:])
		s.history[l.cfg.HistoryK-1] = feat
	} else {
		s.history = append(s.history, feat)
	}
	if len(s.history) < l.cfg.HistoryK {
		return Observation{Switch: s.Switch}
	}
	reward, T, La := l.rewardOf(s, f)
	s.steps++
	s.rewardSum += reward
	s.lastReward = reward
	l.reward.Set(reward)

	state := make([]float64, 0, l.cfg.HistoryK*len(feat))
	for _, h := range s.history {
		state = append(state, h...)
	}
	return Observation{Switch: s.Switch, State: state, Reward: reward, T: T, La: La}
}

// rewardOf evaluates Eq. (6)–(8) for one slot: r = β1·T + β2·La with
// T = txRate/BW and the bounded La = 1/(1 + qAvg/Qref).
func (l *Loop) rewardOf(s *SwitchState, f SlotFeatures) (r, T, La float64) {
	T = float64(f.TxBytes) * 8 / (l.cfg.Interval.Seconds() * s.ncm.TotalBandwidth())
	if T > 1 {
		T = 1
	}
	La = 1 / (1 + f.QAvgBytes/l.cfg.QrefBytes)
	return l.cfg.Beta1*T + l.cfg.Beta2*La, T, La
}

// apply is the ECN-CM + QMM path: install cfg on every managed queue.
func (l *Loop) apply(s *SwitchState, cfg netsim.ECNConfig) {
	s.current = cfg
	for _, p := range s.ports {
		p.SetECN(l.cfg.Class, cfg)
	}
	if l.cfg.OnApply != nil {
		l.cfg.OnApply(s.Switch, cfg)
	}
}

// modelBundle is the gob wire format of saved per-switch models: parallel
// slices sorted by switch NodeID. The sorted-slice layout (rather than a
// map) makes encoding byte-deterministic — equal weights always produce
// equal bundle bytes, which the fleet's reproducibility guarantees and the
// model store's content addressing rely on.
type modelBundle struct {
	Switches []int
	Models   [][]byte
}

func decodeBundle(data []byte) (*modelBundle, error) {
	var b modelBundle
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return nil, fmt.Errorf("core: decoding model bundle: %w", err)
	}
	if len(b.Switches) != len(b.Models) {
		return nil, fmt.Errorf("core: model bundle has %d switches but %d models",
			len(b.Switches), len(b.Models))
	}
	if !sort.IntsAreSorted(b.Switches) {
		return nil, fmt.Errorf("core: model bundle switches not sorted: %v", b.Switches)
	}
	return &b, nil
}

func encodeBundle(b modelBundle) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeModels serializes every switch's model — the artifact the offline
// pre-training phase ships to switches (Sec. 4.4.1).
func (l *Loop) EncodeModels() ([]byte, error) {
	var b modelBundle
	for i, s := range l.switches {
		data, err := l.models[i].Encode()
		if err != nil {
			return nil, fmt.Errorf("core: encoding switch %d: %w", s.Switch, err)
		}
		b.Switches = append(b.Switches, int(s.Switch))
		b.Models = append(b.Models, data)
	}
	return encodeBundle(b)
}

// LoadModels restores models saved by EncodeModels through the bundle codec
// (restoreBundle): the bundle must cover exactly this loop's switches, and
// a corrupted, truncated or foreign bundle leaves the loop exactly as it was.
func (l *Loop) LoadModels(data []byte) error {
	return restoreBundle(data, l.switches, l.models)
}

// restoreBundle is the codec's one load path. The bundle's switch set must
// equal the target's — a switch the bundle does not cover would otherwise
// keep untrained weights, and a switch the target lacks would be dropped —
// and architectures must match. The load is all-or-nothing: every snapshot
// is validated before the first model is touched.
func restoreBundle(data []byte, switches []*SwitchState, models []Model) error {
	b, err := decodeBundle(data)
	if err != nil {
		return err
	}
	ids := make([]int, len(switches))
	for i, s := range switches {
		ids[i] = int(s.Switch)
	}
	if !slices.Equal(b.Switches, ids) {
		return fmt.Errorf("core: model bundle covers switches %v, target fabric has %v", b.Switches, ids)
	}
	for i, s := range switches {
		if err := models[i].ValidateSnapshot(b.Models[i]); err != nil {
			return fmt.Errorf("core: validating switch %d: %w", s.Switch, err)
		}
	}
	for i, s := range switches {
		if err := models[i].RestoreFrom(b.Models[i]); err != nil {
			return fmt.Errorf("core: restoring switch %d: %w", s.Switch, err)
		}
	}
	return nil
}
