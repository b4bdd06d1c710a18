package serve

import (
	"context"
	"fmt"
	"strings"

	"pet/internal/bench"
)

// The shadow-eval promotion gate: before a candidate bundle may take over
// the serving channel, both it and the incumbent replay the same fixed,
// deterministic scenario (same topology, workload, load, seed; training
// off, so neither policy moves) and the gate compares reward, FCT
// (slowdown) and ECN marking-rate deltas. A candidate that regresses past
// the configured thresholds is rejected with a *GateError carrying the
// full report — the serving model is never touched. This is the "eval"
// step of the paper's train → eval → promote → serve loop, and the safety
// valve RL-CC argues deployed RL controllers need: an exploration-noisy
// online policy never reaches traffic without a scored dress rehearsal.

// GateConfig parameterizes the shadow evaluation. The zero value replays a
// short tiny-fabric websearch scenario with lenient thresholds.
type GateConfig struct {
	// The fixed replay scenario. Zero values take the daemon's defaults:
	// the infer service's topo, the daemon gate's scheme (petd -scheme,
	// default PET), websearch, load 0.5, seed 1.
	Topo     string  `json:"topo,omitempty"`
	Scheme   string  `json:"scheme,omitempty"`
	Workload string  `json:"workload,omitempty"`
	Load     float64 `json:"load,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	// Warmup and Duration are Go duration strings of simulated time
	// (default 2ms warmup, 5ms measurement).
	Warmup   string `json:"warmup,omitempty"`
	Duration string `json:"duration,omitempty"`

	// Regression thresholds, as signed fractions of the incumbent's score.
	// A candidate passes when, for each metric, it is no worse than
	// incumbent × (1 + threshold) (for reward: no lower than incumbent
	// minus threshold × |incumbent|). Zero means the default; negative
	// values demand improvement (useful to force strict gates — or, in
	// tests, deterministic rejections). Defaults: slowdown 0.10, marking
	// 0.25, reward 0.25.
	MaxSlowdownRegress float64 `json:"max_slowdown_regress,omitempty"`
	MaxMarkRegress     float64 `json:"max_mark_regress,omitempty"`
	MaxRewardDrop      float64 `json:"max_reward_drop,omitempty"`
}

// Gate threshold defaults. Deliberately lenient: on millisecond shadow
// windows the score estimators are noisy, and the gate's job is catching
// broken or badly regressed bundles, not adjudicating ties.
const (
	defaultMaxSlowdownRegress = 0.10
	defaultMaxMarkRegress     = 0.25
	defaultMaxRewardDrop      = 0.25
	// markRateSlack is absolute headroom on the marking-rate check, so an
	// incumbent that marked nothing in the short shadow window does not
	// auto-fail every candidate that marks a single packet.
	markRateSlack = 0.005
)

// withDefaults fills the unset fields.
func (g GateConfig) withDefaults() GateConfig {
	if g.Topo == "" {
		g.Topo = "tiny"
	}
	if g.Scheme == "" {
		g.Scheme = string(bench.SchemePET)
	}
	if g.Load == 0 {
		g.Load = 0.5
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Warmup == "" {
		g.Warmup = "2ms"
	}
	if g.Duration == "" {
		g.Duration = "5ms"
	}
	if g.MaxSlowdownRegress == 0 {
		g.MaxSlowdownRegress = defaultMaxSlowdownRegress
	}
	if g.MaxMarkRegress == 0 {
		g.MaxMarkRegress = defaultMaxMarkRegress
	}
	if g.MaxRewardDrop == 0 {
		g.MaxRewardDrop = defaultMaxRewardDrop
	}
	return g
}

// GateScore is one policy's shadow-run scorecard.
type GateScore struct {
	MeanReward  float64 `json:"mean_reward"`
	AvgSlowdown float64 `json:"avg_slowdown"`
	P99Slowdown float64 `json:"p99_slowdown"`
	MarkRate    float64 `json:"mark_rate"` // ECN-marked fraction of transmitted packets
	Drops       uint64  `json:"drops"`
	FlowsDone   int     `json:"flows_done"`
}

// GateReport is the promotion gate's full verdict, surfaced on the API and
// kept alongside the promoted version.
type GateReport struct {
	Scenario  string    `json:"scenario"` // human-readable replay description
	Incumbent bool      `json:"incumbent"`
	Serving   GateScore `json:"serving,omitempty"`
	Candidate GateScore `json:"candidate"`

	// Deltas, candidate relative to serving: slowdown and marking as
	// fractions of the serving score, reward as an absolute difference.
	SlowdownDelta float64 `json:"slowdown_delta"`
	MarkDelta     float64 `json:"mark_delta"`
	RewardDelta   float64 `json:"reward_delta"`

	Pass    bool     `json:"pass"`
	Reasons []string `json:"reasons,omitempty"` // one line per failed check
}

// GateError reports a candidate rejected by the shadow-eval gate; the
// serving model was left untouched. Matchable with errors.As.
type GateError struct {
	Report GateReport
}

func (e *GateError) Error() string {
	return fmt.Sprintf("serve: promotion gate rejected the candidate: %s", strings.Join(e.Report.Reasons, "; "))
}

// shadowScenario assembles the fixed replay: the config's scenario fields
// read as a run job with training off, and the bundle under test installed.
func (g GateConfig) shadowScenario(bundle []byte) (bench.Scenario, error) {
	train := false
	s, err := ExperimentSpec{
		Scheme: g.Scheme, Topo: g.Topo, Workload: g.Workload, Load: g.Load, Seed: g.Seed,
		Train: &train, Warmup: g.Warmup, Duration: g.Duration,
	}.scenario()
	s.Models = bundle
	return s, err
}

// shadowScore replays the gate scenario with one bundle and scores it.
func shadowScore(ctx context.Context, g GateConfig, bundle []byte) (GateScore, error) {
	s, err := g.shadowScenario(bundle)
	if err != nil {
		return GateScore{}, err
	}
	env, err := bench.NewEnv(s)
	if err != nil {
		return GateScore{}, fmt.Errorf("serve: assembling shadow run: %w", err)
	}
	res, err := env.RunContext(ctx)
	if err != nil {
		return GateScore{}, fmt.Errorf("serve: shadow run: %w", err)
	}
	score := GateScore{
		AvgSlowdown: res.Overall.AvgSlowdown,
		P99Slowdown: res.Overall.P99Slowdown,
		Drops:       res.Drops,
		FlowsDone:   res.FlowsDone,
	}
	if ts, ok := env.Control.(bench.TrainStats); ok {
		score.MeanReward = ts.MeanReward()
	}
	var tx, marked uint64
	for _, p := range env.Net.SwitchPorts() {
		st := p.Stats()
		tx += st.TxPackets
		marked += st.TxMarkedPackets
	}
	if tx > 0 {
		score.MarkRate = float64(marked) / float64(tx)
	}
	return score, nil
}

// RunGate shadow-scores candidate against serving on the gate's fixed
// scenario and renders the verdict. A nil/empty serving bundle means no
// incumbent: the candidate is scored alone and passes (there is nothing to
// regress against). The error is non-nil only when a shadow run itself
// fails (bad config, unloadable bundle, cancelled context) — a failing
// verdict is Pass=false with Reasons, not an error.
func RunGate(ctx context.Context, cfg GateConfig, serving, candidate []byte) (GateReport, error) {
	g := cfg.withDefaults()
	report := GateReport{
		Scenario: fmt.Sprintf("%s/%s %s load %g seed %d, %s warmup + %s",
			g.Topo, g.Scheme, workloadName(g.Workload), g.Load, g.Seed, g.Warmup, g.Duration),
	}
	var err error
	if report.Candidate, err = shadowScore(ctx, g, candidate); err != nil {
		return report, fmt.Errorf("serve: gating candidate: %w", err)
	}
	if len(serving) == 0 {
		report.Pass = true
		return report, nil
	}
	report.Incumbent = true
	if report.Serving, err = shadowScore(ctx, g, serving); err != nil {
		return report, fmt.Errorf("serve: gating incumbent: %w", err)
	}

	sv, cand := report.Serving, report.Candidate
	if sv.AvgSlowdown > 0 {
		report.SlowdownDelta = (cand.AvgSlowdown - sv.AvgSlowdown) / sv.AvgSlowdown
	}
	if sv.MarkRate > 0 {
		report.MarkDelta = (cand.MarkRate - sv.MarkRate) / sv.MarkRate
	}
	report.RewardDelta = cand.MeanReward - sv.MeanReward

	if limit := sv.AvgSlowdown * (1 + g.MaxSlowdownRegress); cand.AvgSlowdown > limit {
		report.Reasons = append(report.Reasons, fmt.Sprintf(
			"avg slowdown %.4f exceeds %.4f (serving %.4f, threshold %+.0f%%)",
			cand.AvgSlowdown, limit, sv.AvgSlowdown, g.MaxSlowdownRegress*100))
	}
	if limit := sv.MarkRate*(1+g.MaxMarkRegress) + markRateSlack; cand.MarkRate > limit {
		report.Reasons = append(report.Reasons, fmt.Sprintf(
			"mark rate %.4f exceeds %.4f (serving %.4f, threshold %+.0f%%)",
			cand.MarkRate, limit, sv.MarkRate, g.MaxMarkRegress*100))
	}
	if floor := sv.MeanReward - g.MaxRewardDrop*abs(sv.MeanReward); cand.MeanReward < floor {
		report.Reasons = append(report.Reasons, fmt.Sprintf(
			"mean reward %.4f below %.4f (serving %.4f, threshold %+.0f%%)",
			cand.MeanReward, floor, sv.MeanReward, g.MaxRewardDrop*100))
	}
	report.Pass = len(report.Reasons) == 0
	return report, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// workloadName renders the workload for the report line ("" = default).
func workloadName(w string) string {
	if w == "" {
		return "websearch"
	}
	return w
}
