package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pet/internal/sim"
	"pet/internal/telemetry"
)

// chaosEpisode keeps fault-injection tests fast; determinism matters here,
// trained-weight quality does not.
const chaosEpisode = 2 * sim.Millisecond

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// chaosConfig is the common fast-retry baseline for fault tests.
func chaosConfig(workers, rounds int) Config {
	return Config{
		Workers: workers, Rounds: rounds, Episode: chaosEpisode,
		MaxRetries: 1, RetryBackoff: time.Millisecond,
	}
}

// A worker panic must not kill the pool: the attempt converts to an error,
// the retry (on a fresh deterministic seed) completes the round, and the
// whole run reproduces byte-identically under the same FaultPlan.
func TestFaultPanicIsolatedAndRetried(t *testing.T) {
	s := testScenario(30)
	cfg := chaosConfig(2, 2)
	cfg.Faults = &FaultPlan{Episodes: []Fault{{Round: 1, Worker: 0, Attempt: 0, Kind: FaultPanic}}}
	reg := telemetry.New()
	cfg.Telemetry = reg

	res, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", res.Retries)
	}
	if len(res.DegradedRounds) != 0 {
		t.Fatalf("DegradedRounds = %v, want none (the retry succeeded)", res.DegradedRounds)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fleet_episode_retries_total"]; got != 1 {
		t.Errorf("fleet_episode_retries_total = %d, want 1", got)
	}
	if got := snap.Counters["fleet_episodes_total"]; got != 5 {
		t.Errorf("fleet_episodes_total = %d, want 5 (4 slots + 1 retry attempt)", got)
	}

	cfg.Telemetry = nil
	again, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Models, again.Models) {
		t.Fatal("same FaultPlan and seed produced different bundles")
	}
}

// With MinQuorum below Workers, a slot that exhausts its retries degrades
// the round instead of aborting the run, and the degraded merge is still
// deterministic.
func TestQuorumDegradedRoundMerges(t *testing.T) {
	s := testScenario(31)
	cfg := chaosConfig(3, 2)
	cfg.MinQuorum = 2
	cfg.Faults = &FaultPlan{Episodes: []Fault{
		{Round: 1, Worker: 2, Attempt: 0, Kind: FaultFail},
		{Round: 1, Worker: 2, Attempt: 1, Kind: FaultFail}, // exhausts MaxRetries=1
	}}
	var rounds []RoundStats
	cfg.OnRound = func(r RoundStats) { rounds = append(rounds, r) }
	reg := telemetry.New()
	cfg.Telemetry = reg

	res, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DegradedRounds) != 1 || res.DegradedRounds[0] != 1 {
		t.Fatalf("DegradedRounds = %v, want [1]", res.DegradedRounds)
	}
	if len(rounds) != 2 {
		t.Fatalf("observed %d rounds, want 2", len(rounds))
	}
	if rounds[0].Degraded || rounds[0].Episodes != 3 {
		t.Fatalf("round 0 = %+v, want full strength", rounds[0])
	}
	if !rounds[1].Degraded || rounds[1].Episodes != 2 || rounds[1].Failed != 1 || rounds[1].Retries != 1 {
		t.Fatalf("round 1 = %+v, want degraded with 2 episodes, 1 failed, 1 retry", rounds[1])
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fleet_degraded_rounds_total"]; got != 1 {
		t.Errorf("fleet_degraded_rounds_total = %d, want 1", got)
	}
	if got := snap.Counters["fleet_failed_episodes_total"]; got != 1 {
		t.Errorf("fleet_failed_episodes_total = %d, want 1", got)
	}

	cfg.Telemetry, cfg.OnRound = nil, nil
	again, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Models, again.Models) || res.CumReward != again.CumReward {
		t.Fatal("degraded quorum run is not deterministic")
	}
}

// Below quorum the run must abort — but only after draining in-flight
// results and checkpointing the last completed round, so nothing finished
// is lost and resume continues exactly where the failure struck.
func TestQuorumFailureCheckpointsCompletedRounds(t *testing.T) {
	s := testScenario(32)
	dir := t.TempDir()
	cfg := Config{
		Workers: 2, Rounds: 3, Episode: chaosEpisode,
		Checkpoint: dir, CheckpointEvery: 10, // no periodic save before the failure
		Faults: &FaultPlan{Episodes: []Fault{{Round: 1, Worker: 1, Attempt: 0, Kind: FaultFail}}},
	}
	_, err := Pretrain(s, cfg)
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("below-quorum round did not abort: err = %v", err)
	}
	m, _, _, lerr := loadDir(t, dir)
	if lerr != nil {
		t.Fatalf("no checkpoint after quorum failure: %v", lerr)
	}
	if m.Round != 1 {
		t.Fatalf("checkpointed round = %d, want 1 (the last completed round)", m.Round)
	}

	// Resume with the fault gone: the run finishes and matches an
	// uninterrupted fault-free run byte for byte.
	cfg.Faults, cfg.Resume = nil, true
	res, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != 1 || res.Rounds != 3 {
		t.Fatalf("ResumedFrom=%d Rounds=%d", res.ResumedFrom, res.Rounds)
	}
	straight, err := Pretrain(s, Config{Workers: 2, Rounds: 3, Episode: chaosEpisode})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Models, straight.Models) {
		t.Fatal("post-failure resume diverged from the uninterrupted run")
	}
}

// A hung worker is detected by the episode deadline, counted as a
// straggler, and retried on a fresh seed.
func TestFaultHangHitsDeadlineAndRetries(t *testing.T) {
	s := testScenario(33)
	cfg := chaosConfig(2, 1)
	cfg.EpisodeTimeout = 2 * time.Second
	cfg.Faults = &FaultPlan{Episodes: []Fault{{Round: 0, Worker: 1, Attempt: 0, Kind: FaultHang}}}
	reg := telemetry.New()
	cfg.Telemetry = reg

	res, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stragglers != 1 {
		t.Fatalf("Stragglers = %d, want 1", res.Stragglers)
	}
	if res.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", res.Retries)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fleet_stragglers_total"]; got != 1 {
		t.Errorf("fleet_stragglers_total = %d, want 1", got)
	}
	if h, ok := snap.Histograms["fleet_straggler_seconds"]; !ok || h.Count != 1 {
		t.Errorf("fleet_straggler_seconds count = %d, want 1", h.Count)
	}
}

// Corrupting the newest retained bundle must not brick resume: the loader
// falls back to the previous round's bundle and the rerun converges to the
// exact bytes of an uninterrupted run. Episodes are long enough for the
// weights to move every round: rounds with identical bundles would share one
// content-addressed object, and rot in it would take all of them.
func TestCheckpointFallbackAfterCorruption(t *testing.T) {
	s := testScenario(34)
	dir := t.TempDir()
	straight, err := Pretrain(s, Config{Workers: 2, Rounds: 4, Episode: trainEpisode})
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Workers: 2, Rounds: 3, Episode: trainEpisode, Checkpoint: dir}
	if _, err := Pretrain(s, cfg); err != nil {
		t.Fatal(err)
	}
	corruptRound(t, dir, 3) // newest bundle rots on disk
	rotted := roundObject(t, dir, 3)

	var logs []string
	reg := telemetry.New()
	res, err := Pretrain(s, Config{
		Workers: 2, Rounds: 4, Episode: trainEpisode, Checkpoint: dir, Resume: true,
		Logf:      func(format string, a ...any) { logs = append(logs, format) },
		Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("resume with corrupt newest bundle: %v", err)
	}
	if !res.CheckpointFellBack {
		t.Fatal("CheckpointFellBack = false, want true")
	}
	if res.ResumedFrom != 2 {
		t.Fatalf("ResumedFrom = %d, want 2 (the newest intact round)", res.ResumedFrom)
	}
	if !bytes.Equal(res.Models, straight.Models) {
		t.Fatal("fallback resume diverged from the uninterrupted run")
	}
	if res.CumReward != straight.CumReward {
		t.Fatalf("fallback resume rewards diverged: %v vs %v", res.CumReward, straight.CumReward)
	}
	if len(logs) == 0 {
		t.Fatal("fallback logged nothing about the skipped checkpoint")
	}
	if got := reg.Snapshot().Counters["fleet_ckpt_fallbacks_total"]; got != 1 {
		t.Errorf("fleet_ckpt_fallbacks_total = %d, want 1", got)
	}
	// Rerunning round 3 reproduced its exact bytes, and checkpointing them
	// replaced the rotted copy rather than adopting it.
	if m, _, fellBack, err := loadDir(t, dir); err != nil || fellBack || m.Round != 4 {
		t.Fatalf("after the rerun: round=%d fellBack=%v err=%v, want round 4 clean", m.Round, fellBack, err)
	}
	if data, err := os.ReadFile(rotted); err != nil || sha256Hex(data)+".bundle" != filepath.Base(rotted) {
		t.Fatalf("round 3's object is still corrupt after its rerun (err %v)", err)
	}
}

// Run-level cancellation (the SIGINT path) drains in-flight episodes,
// writes a final checkpoint for the last completed round, and surfaces
// context.Canceled — nothing finished is lost.
func TestPretrainContextCancelWritesFinalCheckpoint(t *testing.T) {
	s := testScenario(35)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := Config{
		Workers: 2, Rounds: 50, Episode: chaosEpisode,
		Checkpoint: dir, CheckpointEvery: 100, // only the cancellation path saves
		OnRound: func(RoundStats) { once.Do(cancel) },
	}
	res, err := PretrainContext(ctx, s, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Rounds != 1 {
		t.Fatalf("completed rounds = %d, want 1", res.Rounds)
	}
	m, _, _, lerr := loadDir(t, dir)
	if lerr != nil {
		t.Fatalf("no final checkpoint after cancellation: %v", lerr)
	}
	if m.Round != res.Rounds {
		t.Fatalf("checkpoint round = %d, want %d", m.Round, res.Rounds)
	}

	// The interrupted run resumes cleanly and matches a straight run.
	res2, err := Pretrain(s, Config{
		Workers: 2, Rounds: 2, Episode: chaosEpisode, Checkpoint: dir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ResumedFrom != 1 || res2.Rounds != 2 {
		t.Fatalf("ResumedFrom=%d Rounds=%d", res2.ResumedFrom, res2.Rounds)
	}
	straight, err := Pretrain(s, Config{Workers: 2, Rounds: 2, Episode: chaosEpisode})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res2.Models, straight.Models) {
		t.Fatal("post-cancellation resume diverged from the uninterrupted run")
	}
}

// The acceptance scenario end to end: a worker panics at round 1, hangs
// past a plan-set deadline at round 3 (a FaultStraggle: no wall-clock
// timer, so no healthy attempt can straggle), exhausts its retries at round 4
// (degraded quorum merge), and the newest bundle is corrupted on disk
// before resume. Training completes with exactly one degraded round, and
// two runs of the same FaultPlan and seed are byte-identical.
func TestChaosEndToEndDeterministic(t *testing.T) {
	s := testScenario(36)
	run := func() Result {
		t.Helper()
		dir := t.TempDir()
		plan := &FaultPlan{
			Episodes: []Fault{
				{Round: 1, Worker: 0, Attempt: 0, Kind: FaultPanic},
				{Round: 3, Worker: 1, Attempt: 0, Kind: FaultStraggle},
				{Round: 4, Worker: 1, Attempt: 0, Kind: FaultFail},
				{Round: 4, Worker: 1, Attempt: 1, Kind: FaultFail},
			},
		}
		cfg := Config{
			Workers: 2, Rounds: 2, Episode: trainEpisode,
			MaxRetries: 1, RetryBackoff: time.Millisecond, MinQuorum: 1,
			Checkpoint: dir, Faults: plan,
		}
		// Phase 1: rounds 0–1 (panic at round 1 retried); then the round-2
		// bundle rots on disk.
		if _, err := Pretrain(s, cfg); err != nil {
			t.Fatal(err)
		}
		corruptRound(t, dir, 2)
		// Phase 2: resume. The corrupt bundle forces fallback to round 1,
		// then rounds 1–4 rerun through the panic, the straggler, and the
		// degraded round 4.
		cfg.Rounds, cfg.Resume = 5, true
		res, err := Pretrain(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a := run()
	if !a.CheckpointFellBack {
		t.Fatal("resume did not fall back past the corrupted bundle")
	}
	if a.ResumedFrom != 1 {
		t.Fatalf("ResumedFrom = %d, want 1", a.ResumedFrom)
	}
	if a.Rounds != 5 {
		t.Fatalf("Rounds = %d, want 5", a.Rounds)
	}
	if len(a.DegradedRounds) != 1 || a.DegradedRounds[0] != 4 {
		t.Fatalf("DegradedRounds = %v, want [4]", a.DegradedRounds)
	}
	if a.Stragglers != 1 {
		t.Fatalf("Stragglers = %d, want 1 (the hang at round 3)", a.Stragglers)
	}

	b := run()
	if !bytes.Equal(a.Models, b.Models) {
		t.Fatal("two runs of the same FaultPlan and seed produced different bundles")
	}
	if a.CumReward != b.CumReward {
		t.Fatalf("cumulative rewards differ across identical chaos runs: %v vs %v", a.CumReward, b.CumReward)
	}
}
