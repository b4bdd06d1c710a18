// Package bench is the experiment harness: it assembles topology, network,
// transport, workload and an ECN control scheme into one runnable scenario,
// collects the paper's metrics (FCT buckets, per-packet latency, queue
// statistics, time series), and regenerates every table and figure of the
// evaluation section as printable text tables.
//
// Schemes and transports are pluggable: implementations register named
// builders (RegisterScheme, RegisterTransport) and scenarios select them by
// name, so bench never imports a concrete controller or end-host stack.
package bench

import (
	"context"
	"fmt"

	"pet/internal/netsim"
	"pet/internal/sim"
	"pet/internal/stats"
	"pet/internal/telemetry"
	"pet/internal/topo"
	"pet/internal/trace"
	"pet/internal/workload"
)

// Scheme selects the ECN control strategy under test.
type Scheme string

// The compared schemes (Sec. 5.4) plus the Fig. 9 ablation variant. These
// names are registered by internal/core, internal/acc, internal/staticecn
// and internal/dynecn; external packages may register further schemes.
const (
	SchemePET        Scheme = "PET"
	SchemePETAblated Scheme = "PET-ablated" // incast & M/E-ratio states removed
	SchemeACC        Scheme = "ACC"
	SchemeSECN1      Scheme = "SECN1" // DCQCN static 5/200 KB
	SchemeSECN2      Scheme = "SECN2" // HPCC static 100/400 KB

	// Rule-based dynamic schemes from the paper's related work (Sec. 2.2),
	// beyond the paper's own comparison set.
	SchemeAMT   Scheme = "AMT"   // link-utilization-driven threshold
	SchemeQAECN Scheme = "QAECN" // instantaneous-queue-driven threshold

	// SchemePETCTDE is the centralized-training (MAPPO) alternative the
	// paper rejects in Sec. 4.1.2, for measuring the DTDE-vs-CTDE trade-off.
	SchemePETCTDE Scheme = "PET-CTDE"
)

// ComparedSchemes lists the paper's four compared schemes — the fixed
// comparison set of the evaluation figures (Sec. 5.4), a paper constant
// rather than a registry view.
func ComparedSchemes() []Scheme {
	return []Scheme{SchemePET, SchemeACC, SchemeSECN1, SchemeSECN2}
}

// Scenario fully describes one simulation run.
type Scenario struct {
	Topo topo.LeafSpineConfig
	Seed int64

	Workload       *workload.CDF
	Load           float64
	IncastFraction float64
	IncastFanIn    int

	// ExplicitLoad marks Load as deliberately set, suppressing the 0.6
	// default even when it is zero — a zero-load scenario (all traffic from
	// events or incast bursts) is otherwise inexpressible. Mirrors
	// ExplicitBetas; spec-decoded scenarios set it whenever "load" was
	// present in the document.
	ExplicitLoad bool

	Scheme Scheme
	Beta1  float64 // reward weights; both zero → (0.3, 0.7) unless ExplicitBetas
	Beta2  float64

	// ExplicitBetas marks Beta1/Beta2 as deliberately set, suppressing the
	// (0.3, 0.7) default even when both are zero — without it the β-ablation
	// sweeps could never reach the axes.
	ExplicitBetas bool

	Train  bool   // online incremental training during warmup
	Models []byte // optional offline-pretrained bundle, loaded by any ModelScheme

	// TrainDuringMeasure keeps online training (and therefore exploratory
	// action sampling) enabled inside the measurement window. Off by
	// default: DTDE's "decentralized execution" is deterministic. The
	// dynamic experiments (Fig. 6/7) turn it on, since live adaptation is
	// exactly what they measure.
	TrainDuringMeasure bool

	Warmup   sim.Time // stats discarded before this point
	Duration sim.Time // measurement window after warmup

	// ExplicitWarmup marks Warmup as deliberately set, suppressing the
	// 20ms default even when it is zero — measurement from t=0. Mirrors
	// ExplicitBetas/ExplicitLoad.
	ExplicitWarmup bool

	// HistoryK overrides PET's state history depth (ablation); 0 = default.
	HistoryK int

	// Events are the scheduled perturbations (traffic switch, link failure,
	// …); NewEnv compiles them against the event-kind registry.
	Events []EventSpec

	// SeriesWindow, when nonzero, enables FCT time-series collection.
	SeriesWindow sim.Time

	// Trace, when true, records flow lifecycle, ECN reconfigurations and
	// link-state changes into Env.Trace for CSV export.
	Trace bool

	// Telemetry, when non-nil, instruments the assembled stack end to end:
	// netsim (queues, marks, drops, PFC), the DCQCN transport (CNPs, rate
	// cuts/recoveries) and the PET agents' PPO updates all publish into
	// this registry. Safe to share across concurrently running envs — the
	// parallel pre-training fleet does. Observation-only by design.
	Telemetry *telemetry.Registry

	// Transport selects the end-host stack by registered name (default
	// DCQCN). PET requires no server-side changes, so any ECN-reacting
	// transport plugs in.
	Transport TransportKind

	// Shards is ignored: every scenario runs on one event loop, whatever
	// its value. It remains only because perf/stages.go still sets it;
	// ROADMAP item 6 deletes it together with the sim.sharded_speedup_x
	// metric.
	Shards int
}

// TransportKind selects the end-host congestion control.
type TransportKind string

// The built-in transports, registered by internal/dcqcn and internal/dctcp.
const (
	TransportDCQCN TransportKind = "dcqcn" // rate-based, RDMA (default)
	TransportDCTCP TransportKind = "dctcp" // window-based, TCP
)

func (s Scenario) withDefaults() Scenario {
	if s.Topo.Spines == 0 {
		s.Topo = topo.TinyScale()
	}
	if s.Workload == nil {
		s.Workload = workload.WebSearch()
	}
	if s.Load == 0 && !s.ExplicitLoad {
		s.Load = 0.6
	}
	if s.Scheme == "" {
		s.Scheme = SchemeSECN1
	}
	if s.Transport == "" {
		s.Transport = TransportDCQCN
	}
	if !s.ExplicitBetas && s.Beta1 == 0 && s.Beta2 == 0 {
		s.Beta1, s.Beta2 = 0.3, 0.7
	}
	if s.Warmup == 0 && !s.ExplicitWarmup {
		s.Warmup = 20 * sim.Millisecond
	}
	if s.Duration == 0 {
		s.Duration = 60 * sim.Millisecond
	}
	return s
}

// ControlAlpha is the Eq. (5) scale parameter used on the scaled-down
// fabrics: α=2 spans 2 KB–1 MB, proportionate to 10–40 Gbps links the same
// way the paper's α=20 spans its 25–100 Gbps fabric. Scheme builders share
// it so every learned or rule-based controller sweeps the same action space.
const ControlAlpha = 2

// ControlInterval is the Δt every built-in scheme reconfigures at.
const ControlInterval = 100 * sim.Microsecond

// Env is a fully assembled, running scenario.
type Env struct {
	Scenario Scenario
	Eng      *sim.Engine
	LS       *topo.LeafSpine
	Net      *netsim.Network
	Tr       Transport
	Gen      *workload.Generator

	// Control is the assembled ECN control scheme selected by
	// Scenario.Scheme. Type-assert to reach a concrete controller
	// (e.g. *core.Controller) for scheme-specific inspection.
	Control ControlScheme

	Collector *stats.FCTCollector
	Latency   *stats.Sample  // one-way data-packet delay, µs
	QueueKB   *stats.Welford // sampled per-port queue occupancy, KB
	Series    map[string]*stats.TimeSeries
	Trace     *trace.Recorder // nil unless Scenario.Trace
	events    []func(*Env)    // Scenario.Events compiled, one hook per spec
	measuring bool
	flowMeta  map[netsim.FlowID]workload.FlowMeta
	hostRate  float64
	queueTick *sim.Ticker
}

// idealPathDelay estimates the size-independent part of an idle fabric's
// FCT for the pair: one-way propagation along the actual path plus the
// store-and-forward of the final packet at each intermediate hop. Added to
// the bottleneck serialization (size at the host rate) this lower-bounds
// the achievable FCT, so slowdowns are ≥ 1 up to pacing granularity.
func (e *Env) idealPathDelay(src, dst topo.NodeID, size int64) sim.Time {
	cfg := e.Scenario.Topo
	last := int(size)
	if mtu := e.Net.Config().MTU; last > mtu {
		last = mtu
	}
	if e.LS.LeafOf(src) == e.LS.LeafOf(dst) {
		return 2*cfg.HostDelay + sim.TransmitTime(last, cfg.HostLinkBps)
	}
	return 2*cfg.HostDelay + 2*cfg.UplinkDelay +
		2*sim.TransmitTime(last, cfg.UplinkBps) +
		sim.TransmitTime(last, cfg.HostLinkBps)
}

// NewEnv assembles a scenario without running it. An unregistered scheme or
// transport name yields an *UnknownSchemeError / *UnknownTransportError.
func NewEnv(s Scenario) (*Env, error) {
	s = s.withDefaults()
	buildTransport, err := transportBuilder(s.Transport)
	if err != nil {
		return nil, err
	}
	buildScheme, err := schemeBuilder(s.Scheme)
	if err != nil {
		return nil, err
	}
	events := make([]func(*Env), len(s.Events))
	for i, ev := range s.Events {
		if events[i], err = ev.compile(); err != nil {
			return nil, fmt.Errorf("bench: events[%d]: %w", i, err)
		}
	}

	if err := s.Topo.Validate(); err != nil {
		return nil, err
	}
	ls := topo.BuildLeafSpine(s.Topo)
	eng := sim.NewEngine()
	net := netsim.New(eng, ls.Graph, s.Seed, netsim.Config{BufferPerQueue: 4 << 20, Telemetry: s.Telemetry})

	e := &Env{
		Scenario:  s,
		Eng:       eng,
		LS:        ls,
		Net:       net,
		Collector: &stats.FCTCollector{},
		Latency:   &stats.Sample{},
		QueueKB:   &stats.Welford{},
		Series:    map[string]*stats.TimeSeries{},
		events:    events,
		flowMeta:  map[netsim.FlowID]workload.FlowMeta{},
		hostRate:  s.Topo.HostLinkBps,
	}
	if s.Trace {
		e.Trace = trace.NewRecorder(1 << 20)
	}

	if e.Tr, err = buildTransport(e); err != nil {
		return nil, fmt.Errorf("bench: assembling transport %q: %w", s.Transport, err)
	}
	e.Tr.OnFlowComplete(e.flowDone)
	e.Tr.OnDataDelivered(e.dataDelivered)

	e.Gen = workload.NewGenerator(eng, workload.Config{
		Hosts:          ls.Hosts,
		HostRateBps:    s.Topo.HostLinkBps,
		CDF:            s.Workload,
		Load:           s.Load,
		IncastFraction: s.IncastFraction,
		IncastFanIn:    s.IncastFanIn,
	}, s.Seed, func(src, dst topo.NodeID, size int64, meta workload.FlowMeta) {
		id := e.Tr.StartFlow(src, dst, size, 0)
		e.flowMeta[id] = meta
		e.Trace.Record(eng.Now(), trace.FlowStart,
			trace.F("flow", id), trace.F("src", src), trace.F("dst", dst),
			trace.F("size", size), trace.F("incast", meta.Incast))
	})

	if e.Control, err = buildScheme(e); err != nil {
		return nil, fmt.Errorf("bench: assembling scheme %q: %w", s.Scheme, err)
	}
	if len(s.Models) > 0 {
		ms, err := e.modelControl()
		if err != nil {
			return nil, err
		}
		if err := ms.LoadModels(s.Models); err != nil {
			return nil, fmt.Errorf("bench: loading %s models: %w", s.Scheme, err)
		}
	}
	e.Control.Start()
	return e, nil
}

// flowDone is the transport-agnostic completion hook feeding the collectors.
func (e *Env) flowDone(f FlowEnd) {
	meta := e.flowMeta[f.ID]
	delete(e.flowMeta, f.ID)
	e.Trace.Record(e.Eng.Now(), trace.FlowDone,
		trace.F("flow", f.ID), trace.F("fct_us", f.FCT.Microseconds()))
	if !e.measuring {
		return
	}
	ideal := stats.IdealFCT(f.Size, e.hostRate, e.idealPathDelay(f.Src, f.Dst, f.Size))
	rec := stats.FCTRecord{
		Size:     f.Size,
		FCT:      f.FCT,
		Slowdown: float64(f.FCT) / float64(ideal),
		Incast:   meta.Incast,
		At:       f.FinishedAt,
	}
	e.Collector.Record(rec)
	if e.Scenario.SeriesWindow > 0 {
		e.addSeries(rec)
	}
}

// dataDelivered samples one-way data-packet latency during measurement.
func (e *Env) dataDelivered(pkt *netsim.Packet, d sim.Time) {
	if e.measuring {
		e.Latency.Add(d.Microseconds())
	}
}

// RecordECNChange is the shared OnApply hook scheme builders install so
// every threshold reconfiguration lands in the run's trace, whichever
// controller produced it.
func (e *Env) RecordECNChange(sw topo.NodeID, cfg netsim.ECNConfig) {
	e.Trace.Record(e.Eng.Now(), trace.ECNChange,
		trace.F("switch", sw), trace.F("kmin", cfg.KminBytes),
		trace.F("kmax", cfg.KmaxBytes), trace.F("pmax", cfg.Pmax))
}

// addSeries folds a completed flow into the mice/elephant/all time series.
func (e *Env) addSeries(rec stats.FCTRecord) {
	add := func(name string) {
		ts := e.Series[name]
		if ts == nil {
			ts = stats.NewTimeSeries(e.Scenario.SeriesWindow)
			e.Series[name] = ts
		}
		// Series time is relative to measurement start so schemes with
		// different warmups stay comparable.
		ts.Add(rec.At-e.Scenario.Warmup, rec.Slowdown)
	}
	add("all")
	if stats.Mice(rec) {
		add("mice")
	}
	if stats.Elephant(rec) {
		add("elephant")
	}
}

// Run executes warmup then the measurement window, applying events.
func (e *Env) Run() Result {
	res, _ := e.RunContext(context.Background()) // Background never cancels
	return res
}

// RunContext is Run with mid-simulation cancellation: the horizon is split
// into chunks (see ctxCheckChunks) with a context check between each, so a
// cancelled run — a petd job DELETE, a daemon shutdown — returns within one
// chunk instead of simulating to the end. A cancelled run returns the
// partial Result alongside an error wrapping ctx.Err(). Chunking is
// invisible to the simulation: an uncancelled RunContext is byte-identical
// to the historical single-RunUntil Run.
func (e *Env) RunContext(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := e.Scenario
	for i, ev := range s.Events {
		do, at := e.events[i], ev.At.Time()
		e.Eng.At(at, func() { do(e) })
	}
	// Queue sampling at a fine cadence, mirroring the paper's Table I.
	e.queueTick = sim.NewTicker(e.Eng, 50*sim.Microsecond, func(sim.Time) {
		if !e.measuring {
			return
		}
		for _, p := range e.Net.SwitchPorts() {
			e.QueueKB.Add(float64(p.QueueBytes()) / 1024)
		}
	})

	e.Gen.Start()
	if err := e.runUntilChunked(ctx, 0, s.Warmup); err != nil {
		return e.result(), err
	}
	e.measuring = true
	if s.Train && !s.TrainDuringMeasure {
		// Switch from online training to decentralized execution. Schemes
		// for which the distinction is meaningless (static thresholds,
		// centralized training that cannot be paused without abandoning its
		// premise) treat SetTrain as a no-op.
		e.Control.SetTrain(false)
	}
	err := e.runUntilChunked(ctx, s.Warmup, s.Warmup+s.Duration)
	e.measuring = false
	return e.result(), err
}

// runUntilChunked advances the engine from (engine time) from to until in
// ctxCheckChunks steps, aborting between steps when ctx is cancelled.
func (e *Env) runUntilChunked(ctx context.Context, from, until sim.Time) error {
	step := (until - from) / ctxCheckChunks
	if step <= 0 {
		step = until - from
	}
	for now := from; now < until; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("bench: run cancelled at %v of %v: %w", now, until, err)
		}
		now += step
		if now > until {
			now = until
		}
		e.Eng.RunUntil(now)
	}
	return ctx.Err()
}

// Result summarizes one completed run.
type Result struct {
	Scheme Scheme
	Load   float64

	Overall  stats.Summary
	MiceBkt  stats.Summary
	Elephant stats.Summary
	Incast   stats.Summary

	LatencyAvgUs float64
	LatencyP99Us float64

	QueueAvgKB float64
	QueueVarKB float64

	FlowsDone int
	Drops     uint64

	// Overhead holds the scheme's control-plane overhead counters keyed by
	// metric name (see the Overhead* constants); nil when the scheme
	// incurs none.
	Overhead map[string]int64

	Series map[string]*stats.TimeSeries
}

func (e *Env) result() Result {
	var drops uint64
	for _, p := range e.Net.SwitchPorts() {
		st := p.Stats()
		drops += st.DropsOverflow + st.DropsLinkDown
	}
	return Result{
		Scheme:       e.Scenario.Scheme,
		Load:         e.Scenario.Load,
		Overall:      e.Collector.Summarize(stats.All),
		MiceBkt:      e.Collector.Summarize(stats.Mice),
		Elephant:     e.Collector.Summarize(stats.Elephant),
		Incast:       e.Collector.Summarize(stats.Incast),
		LatencyAvgUs: e.Latency.Mean(),
		LatencyP99Us: e.Latency.Percentile(0.99),
		QueueAvgKB:   e.QueueKB.Mean(),
		QueueVarKB:   e.QueueKB.Var(),
		FlowsDone:    e.Collector.N(),
		Drops:        drops,
		Overhead:     e.Control.Overhead(),
		Series:       e.Series,
	}
}

// SetLinksUp changes link states with routing recompute and trace records.
// Event hooks should prefer this over Net.SetLinksUp so failures appear in
// exported traces.
func (e *Env) SetLinksUp(links []topo.LinkID, up bool) {
	e.Net.SetLinksUp(links, up)
	for _, l := range links {
		e.Trace.Record(e.Eng.Now(), trace.LinkChange, trace.F("link", l), trace.F("up", up))
	}
}

// Run assembles and executes a scenario in one call.
func Run(s Scenario) (Result, error) {
	env, err := NewEnv(s)
	if err != nil {
		return Result{}, err
	}
	return env.Run(), nil
}

// NotPretrainableError reports a scenario whose scheme has no offline
// pre-training phase: only PET and PET-ablated train offline (Sec. 4.4.1).
type NotPretrainableError struct{ Scheme Scheme }

func (e *NotPretrainableError) Error() string {
	return fmt.Sprintf("bench: scheme %q has no offline pre-training (want %s or %s)",
		e.Scheme, SchemePET, SchemePETAblated)
}

// pretrainScenario normalizes a scenario for one offline-training episode:
// training on, no preloaded models, no events, and the episode seed
// substituted in. An empty scheme means PET.
func pretrainScenario(s Scenario, dur sim.Time, seed int64) (Scenario, error) {
	switch s.Scheme {
	case "":
		s.Scheme = SchemePET
	case SchemePET, SchemePETAblated:
	default:
		return Scenario{}, &NotPretrainableError{s.Scheme}
	}
	s = s.withDefaults()
	s.Seed = seed
	s.Train = true
	s.Models = nil
	s.Warmup = 0
	s.Duration = dur
	s.Events = nil
	return s, nil
}

// EpisodeStats summarizes one offline-training episode.
type EpisodeStats struct {
	Models     []byte  // trained model bundle (ModelScheme.EncodeModels)
	MeanReward float64 // average per-slot reward across agents
	Updates    int     // completed IPPO updates across agents
}

// NoModelsError reports a scheme that cannot serialize or load models
// (it is not a ModelScheme) asked to do so: given Scenario.Models, or
// pre-trained.
type NoModelsError struct{ Scheme Scheme }

func (e *NoModelsError) Error() string {
	return fmt.Sprintf("bench: scheme %q does not support model serialization", e.Scheme)
}

// modelControl returns the env's scheme as a ModelScheme, or a
// *NoModelsError when it is not one.
func (e *Env) modelControl() (ModelScheme, error) {
	ms, ok := e.Control.(ModelScheme)
	if !ok {
		return nil, &NoModelsError{Scheme: e.Scenario.Scheme}
	}
	return ms, nil
}

// ctxCheckChunks bounds how long a cancellation can go unnoticed: the
// episode horizon is split into this many engine runs with a context check
// between each. Chunking is invisible to the simulation — RunUntil(t1)
// followed by RunUntil(t2) fires exactly the events one RunUntil(t2) would,
// in the same order.
const ctxCheckChunks = 64

// PretrainEpisode runs one deterministic offline-training episode: assemble
// the scenario on the given seed, optionally restore an initial model
// bundle, simulate dur of training traffic, and return the trained bundle.
// This is the episode-granular rollout primitive the parallel pre-training
// fleet drives — each worker owns its own engine and environment, so
// determinism per (scenario, seed) is preserved under concurrency.
//
// ctx (nil = Background) cancels the episode between engine chunks: a
// cancelled or deadline-expired episode returns an error wrapping
// ctx.Err() instead of a bundle. Cancellation never perturbs the
// simulation itself — an uncancelled run is byte-identical regardless of
// how the horizon was chunked.
func PretrainEpisode(ctx context.Context, s Scenario, dur sim.Time, seed int64, models []byte) (EpisodeStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := pretrainScenario(s, dur, seed)
	if err != nil {
		return EpisodeStats{}, err
	}
	env, err := NewEnv(s)
	if err != nil {
		return EpisodeStats{}, err
	}
	ctl, err := env.modelControl()
	if err != nil {
		return EpisodeStats{}, err
	}
	if len(models) > 0 {
		if err := ctl.LoadModels(models); err != nil {
			return EpisodeStats{}, fmt.Errorf("bench: loading episode base models: %w", err)
		}
	}
	env.Gen.Start()
	if err := env.runUntilChunked(ctx, 0, dur); err != nil {
		return EpisodeStats{}, err
	}
	data, err := ctl.EncodeModels()
	if err != nil {
		return EpisodeStats{}, fmt.Errorf("bench: encoding pretrained models: %w", err)
	}
	ep := EpisodeStats{Models: data}
	if ts, ok := env.Control.(TrainStats); ok {
		ep.MeanReward = ts.MeanReward()
		ep.Updates = ts.TotalUpdates()
	}
	return ep, nil
}

// PretrainInit returns the untrained model bundle a scenario's controller
// starts from — the common base the fleet broadcasts to every worker before
// the first round so merged weight deltas share one origin.
func PretrainInit(s Scenario) ([]byte, error) {
	s, err := pretrainScenario(s, 0, s.Seed)
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s)
	if err != nil {
		return nil, err
	}
	ctl, err := env.modelControl()
	if err != nil {
		return nil, err
	}
	return ctl.EncodeModels()
}

// PretrainPET runs the offline training phase (Sec. 4.4.1): a training-only
// simulation on the scenario's fabric and workload whose learned models are
// returned for deployment in subsequent (online) runs. It is the
// single-episode sequential path; internal/fleet parallelizes it. The
// scheme must be PET or PET-ablated, an empty one meaning PET; any other
// returns a *NotPretrainableError, as PretrainEpisode and PretrainInit do.
func PretrainPET(s Scenario, dur sim.Time) ([]byte, error) {
	ep, err := PretrainEpisode(context.Background(), s, dur, s.Seed, nil)
	if err != nil {
		return nil, err
	}
	return ep.Models, nil
}
