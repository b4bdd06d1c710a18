package fleet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pet/internal/bench"
	"pet/internal/modelstore"
	"pet/internal/sim"
)

// trainEpisode is long enough for each agent to complete at least one IPPO
// update (UpdateEvery=64 intervals of 100µs), so weights genuinely move and
// byte-comparisons exercise trained models rather than untouched inits.
const trainEpisode = 8 * sim.Millisecond

func testScenario(seed int64) bench.Scenario {
	return bench.Scenario{Seed: seed, Load: 0.4, IncastFraction: 0.2, IncastFanIn: 3}
}

func TestWorkersOneRoundOneMatchesSequential(t *testing.T) {
	s := testScenario(1)
	sequential, err := bench.PretrainPET(s, trainEpisode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pretrain(s, Config{Workers: 1, Rounds: 1, Episode: trainEpisode})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Models, sequential) {
		t.Fatal("Workers=1, Rounds=1 fleet bundle differs from sequential PretrainPET")
	}
	if res.Rounds != 1 || res.ResumedFrom != 0 {
		t.Fatalf("Rounds=%d ResumedFrom=%d", res.Rounds, res.ResumedFrom)
	}
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	s := testScenario(2)
	cfg := Config{Workers: 2, Rounds: 2, Episode: 2 * sim.Millisecond}
	a, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Models, b.Models) {
		t.Fatal("same (scenario, config) produced different bundles")
	}
	if a.CumReward != b.CumReward {
		t.Fatalf("cumulative rewards differ: %v vs %v", a.CumReward, b.CumReward)
	}
}

func TestFleetTrainsAndMerges(t *testing.T) {
	s := testScenario(3)
	init, err := bench.PretrainInit(s)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []RoundStats
	res, err := Pretrain(s, Config{
		Workers: 2, Rounds: 1, Episode: trainEpisode,
		OnRound: func(r RoundStats) { rounds = append(rounds, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(res.Models, init) {
		t.Fatal("training moved no weights")
	}
	if len(rounds) != 1 || rounds[0].Episodes != 2 {
		t.Fatalf("round stats = %+v", rounds)
	}
	if rounds[0].Updates == 0 {
		t.Fatal("no IPPO updates in a full-length episode")
	}
	if rounds[0].MeanReward <= 0 {
		t.Fatalf("mean reward = %v", rounds[0].MeanReward)
	}
	// The merged bundle must deploy: run a short online scenario from it.
	online := testScenario(3)
	online.Scheme = bench.SchemePET
	online.Models = res.Models
	online.Warmup = 2 * sim.Millisecond
	online.Duration = 4 * sim.Millisecond
	out, err := bench.Run(online)
	if err != nil {
		t.Fatal(err)
	}
	if out.FlowsDone == 0 {
		t.Fatal("no flows completed under the merged pretrained models")
	}
}

func TestCheckpointResumeMatchesStraightRun(t *testing.T) {
	s := testScenario(4)
	episode := 2 * sim.Millisecond

	straight, err := Pretrain(s, Config{Workers: 2, Rounds: 3, Episode: episode})
	if err != nil {
		t.Fatal(err)
	}

	// Run the first two rounds, "die", then resume to round 3.
	dir := t.TempDir()
	if _, err := Pretrain(s, Config{Workers: 2, Rounds: 2, Episode: episode, Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	res, err := Pretrain(s, Config{Workers: 2, Rounds: 3, Episode: episode, Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != 2 {
		t.Fatalf("ResumedFrom = %d, want 2", res.ResumedFrom)
	}
	if !bytes.Equal(res.Models, straight.Models) {
		t.Fatal("resumed run diverged from the uninterrupted run")
	}
	m, models, _, err := loadDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Round != 3 || len(m.Rewards) != 3 {
		t.Fatalf("final manifest round=%d rewards=%d", m.Round, len(m.Rewards))
	}
	if !bytes.Equal(models, res.Models) {
		t.Fatal("checkpointed bundle differs from returned bundle")
	}
}

func TestResumeIgnoresTornCheckpointWrite(t *testing.T) {
	s := testScenario(5)
	episode := 2 * sim.Millisecond
	dir := t.TempDir()
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: 1, Episode: episode, Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-checkpoint: half-written temp files and an
	// orphan object the version log never came to reference.
	for _, stray := range []string{"objects/0badc0de.bundle.tmp", "objects/0badc0de.bundle", "channels/candidate.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("torn write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Pretrain(s, Config{Workers: 1, Rounds: 2, Episode: episode, Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume after torn checkpoint: %v", err)
	}
	if res.ResumedFrom != 1 || res.Rounds != 2 {
		t.Fatalf("ResumedFrom=%d Rounds=%d", res.ResumedFrom, res.Rounds)
	}
	straight, err := Pretrain(s, Config{Workers: 1, Rounds: 2, Episode: episode})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Models, straight.Models) {
		t.Fatal("torn-checkpoint resume diverged from the uninterrupted run")
	}
}

func TestResumeRejectsCorruptedBundle(t *testing.T) {
	s := testScenario(6)
	dir := t.TempDir()
	cfg := Config{Workers: 1, Rounds: 1, Episode: 2 * sim.Millisecond, Checkpoint: dir}
	if _, err := Pretrain(s, cfg); err != nil {
		t.Fatal(err)
	}
	// Truncate the round's bundle: resume must fail loudly, not train from
	// garbage.
	path := roundObject(t, dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Rounds, cfg.Resume = 2, true
	if _, err := Pretrain(s, cfg); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted bundle resumed: err = %v", err)
	}
	// A version log damaged before its last line must also fail loudly
	// (only a torn tail is a crash artefact).
	if err := os.WriteFile(filepath.Join(dir, "versions.log"), []byte("{not json\n{\"version\": 2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Pretrain(s, cfg); !errors.Is(err, modelstore.ErrLogCorrupt) {
		t.Fatalf("corrupted version log resumed: err = %v", err)
	}
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	s := testScenario(7)
	dir := t.TempDir()
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: 1, Episode: 2 * sim.Millisecond, Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	other := testScenario(8) // different seed
	_, err := Pretrain(other, Config{Workers: 1, Rounds: 2, Episode: 2 * sim.Millisecond, Checkpoint: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch resumed: err = %v", err)
	}
	_, err = Pretrain(s, Config{Workers: 1, Rounds: 2, Episode: 3 * sim.Millisecond, Checkpoint: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "episode") {
		t.Fatalf("episode mismatch resumed: err = %v", err)
	}
}

func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	s := testScenario(9)
	res, err := Pretrain(s, Config{
		Workers: 1, Rounds: 1, Episode: 2 * sim.Millisecond,
		Checkpoint: t.TempDir(), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != 0 || res.Rounds != 1 {
		t.Fatalf("ResumedFrom=%d Rounds=%d", res.ResumedFrom, res.Rounds)
	}
}

func TestResumePastRequestedRoundsReturnsCheckpoint(t *testing.T) {
	s := testScenario(10)
	dir := t.TempDir()
	cfg := Config{Workers: 1, Rounds: 2, Episode: 2 * sim.Millisecond, Checkpoint: dir}
	full, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rounds, cfg.Resume = 1, true // already past round 1
	res, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || !bytes.Equal(res.Models, full.Models) {
		t.Fatalf("short resume reran rounds: Rounds=%d", res.Rounds)
	}
}

func TestConfigValidation(t *testing.T) {
	s := testScenario(11)
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: 1}); err == nil {
		t.Fatal("zero episode duration accepted")
	}
	if _, err := Pretrain(s, Config{Workers: -1, Rounds: 1, Episode: sim.Millisecond}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: -1, Episode: sim.Millisecond}); err == nil {
		t.Fatal("negative rounds accepted")
	}
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: 1, Episode: sim.Millisecond, Resume: true}); err == nil {
		t.Fatal("Resume without Checkpoint accepted")
	}
}

// TestCheckpointIsModelStore: a checkpoint directory is a model store. It
// opens as one, every checkpointed round is a version, the candidate channel
// tracks the newest, and retention keeps at most three rounds' bytes.
func TestCheckpointIsModelStore(t *testing.T) {
	dir := t.TempDir()
	res, err := Pretrain(testScenario(5), Config{
		Workers: 1, Rounds: 5, Episode: trainEpisode, Checkpoint: dir, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatalf("checkpoint directory does not open as a model store: %v", err)
	}
	versions := store.Versions()
	if len(versions) != 5 {
		t.Fatalf("%d versions for 5 checkpointed rounds", len(versions))
	}
	vi, bundle, err := store.Resolve(modelstore.ChannelCandidate)
	if err != nil || vi.Version != 5 {
		t.Fatalf("candidate channel = %+v, %v; want the newest version", vi, err)
	}
	if !bytes.Equal(bundle, res.Models) {
		t.Fatal("candidate bundle differs from the run result")
	}
	if !strings.Contains(versions[0].Source, "fleet round") {
		t.Fatalf("version source %q", versions[0].Source)
	}
	held := 0
	for _, v := range versions {
		if _, _, err := store.Get(v.Version); err == nil {
			held++
		} else if !errors.Is(err, modelstore.ErrBundleGone) {
			t.Fatalf("version %d: %v", v.Version, err)
		}
	}
	if held != keepRounds {
		t.Fatalf("%d rounds still hold bytes, want %d", held, keepRounds)
	}
}
