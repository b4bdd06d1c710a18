package serve

import (
	"context"
	"fmt"
	"strings"

	"pet/internal/bench"
	"pet/internal/sim"
)

// The shadow-eval promotion gate: before a candidate bundle may take over
// the serving channel, both it and the incumbent replay the same fixed,
// deterministic scenario (gateReplay: same fabric, workload, load, seed;
// training off, so neither policy moves) and the gate compares reward, FCT
// (slowdown) and ECN marking-rate deltas. A candidate that regresses past
// the configured thresholds is rejected with a *GateError carrying the
// full report — the serving model is never touched. This is the "eval"
// step of the paper's train → eval → promote → serve loop, and the safety
// valve RL-CC argues deployed RL controllers need: an exploration-noisy
// online policy never reaches traffic without a scored dress rehearsal.

// GateConfig parameterizes the shadow evaluation: the replay's scheme and
// the regression thresholds. The replay itself is one fixed document (see
// gateReplay) on the serving fabric.
type GateConfig struct {
	// Scheme is the replay's scheme (default: the daemon gate's, petd
	// -scheme, itself defaulting to PET).
	Scheme string `json:"scheme,omitempty"`

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
	if g.Scheme == "" {
		g.Scheme = string(bench.SchemePET)
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

// gateReplay is the fixed replay document: websearch at load 0.5, seed 1,
// 2ms warm-up and 5ms measurement on the named fabric, training off so
// neither policy moves.
func gateReplay(fabric, scheme string) *bench.ScenarioSpec {
	load := 0.5
	warmup, duration := bench.SimDuration(2*sim.Millisecond), bench.SimDuration(5*sim.Millisecond)
	return &bench.ScenarioSpec{
		Topo:     &bench.TopoSpec{Preset: fabric},
		Seed:     1,
		Workload: &bench.WorkloadSpec{Name: "websearch"},
		Load:     &load,
		Scheme:   scheme,
		Warmup:   &warmup,
		Duration: &duration,
	}
}

// shadowScore replays the gate document with one bundle installed and
// scores it.
func shadowScore(ctx context.Context, doc *bench.ScenarioSpec, bundle []byte) (GateScore, error) {
	s, err := doc.ToScenario()
	if err != nil {
		return GateScore{}, err
	}
	s.Models = bundle
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
// replay over fabric (a topo preset name: the serving fabric) and renders
// the verdict. A nil/empty serving bundle means no incumbent: the
// candidate is scored alone and passes (there is nothing to regress
// against). The error is non-nil only when a shadow run itself
// fails (bad config, unloadable bundle, cancelled context) — a failing
// verdict is Pass=false with Reasons, not an error.
func RunGate(ctx context.Context, cfg GateConfig, fabric string, serving, candidate []byte) (GateReport, error) {
	g := cfg.withDefaults()
	doc := gateReplay(fabric, g.Scheme)
	report := GateReport{
		Scenario: fmt.Sprintf("%s/%s %s load %g seed %d, %s warmup + %s",
			fabric, g.Scheme, doc.Workload.Name, *doc.Load, doc.Seed, doc.Warmup, doc.Duration),
	}
	var err error
	if report.Candidate, err = shadowScore(ctx, doc, candidate); err != nil {
		return report, fmt.Errorf("serve: gating candidate: %w", err)
	}
	if len(serving) == 0 {
		report.Pass = true
		return report, nil
	}
	report.Incumbent = true
	if report.Serving, err = shadowScore(ctx, doc, serving); err != nil {
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
