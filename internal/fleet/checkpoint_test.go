package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pet/internal/modelstore"
	"pet/internal/sim"
)

func openStore(t *testing.T, dir string) *modelstore.Store {
	t.Helper()
	st, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// loadDir is what resume does: open the checkpoint directory and take the
// newest verifiable round.
func loadDir(t *testing.T, dir string) (Manifest, []byte, bool, error) {
	t.Helper()
	return loadCheckpoint(openStore(t, dir), t.Logf)
}

// saveRounds checkpoints rounds 1..n with distinct payloads.
func saveRounds(t *testing.T, dir string, n int) *modelstore.Store {
	t.Helper()
	st := openStore(t, dir)
	for r := 1; r <= n; r++ {
		m := Manifest{Round: r, Workers: 1, Seed: 1, EpisodePs: 1}
		if err := saveCheckpoint(st, m, []byte(fmt.Sprintf("round-%d-weights", r)), t.Logf); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// roundObject returns the path of the object file holding a checkpointed
// round's bundle bytes.
func roundObject(t *testing.T, dir string, round int) string {
	t.Helper()
	for _, vi := range openStore(t, dir).Versions() {
		var m Manifest
		if len(vi.Meta) > 0 && json.Unmarshal(vi.Meta, &m) == nil && m.Round == round {
			return filepath.Join(dir, "objects", vi.SHA256+".bundle")
		}
	}
	t.Fatalf("no checkpoint for round %d in %s", round, dir)
	return ""
}

// corruptRound flips the first byte of a round's bundle in place — silent
// disk rot: same size, wrong checksum.
func corruptRound(t *testing.T, dir string, round int) {
	t.Helper()
	path := roundObject(t, dir, round)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	mustWrite(t, path, data)
}

func mustWrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Retention keeps the newest three rounds' bytes — not just the latest —
// so a single corrupted bundle still leaves fallback candidates; the log
// remembers every round.
func TestGCRetainsCheckpointHistory(t *testing.T) {
	st := saveRounds(t, t.TempDir(), 5)
	versions := st.Versions()
	if len(versions) != 5 {
		t.Fatalf("%d versions logged for 5 rounds", len(versions))
	}
	for _, vi := range versions {
		_, _, err := st.Get(vi.Version)
		if vi.Version <= 2 && !errors.Is(err, modelstore.ErrBundleGone) {
			t.Fatalf("round %d: err = %v, want ErrBundleGone (collected)", vi.Version, err)
		}
		if vi.Version > 2 && err != nil {
			t.Fatalf("round %d not retained: %v", vi.Version, err)
		}
	}
}

// Every corruption mode must yield an error when no fallback candidate
// exists — never a zero Manifest or silently-garbage weights.
func TestLoadCheckpointErrors(t *testing.T) {
	t.Run("no checkpoint", func(t *testing.T) {
		_, models, fellBack, err := loadDir(t, t.TempDir())
		if models != nil || fellBack || err != nil {
			t.Fatalf("empty store: models=%q fellBack=%v err=%v, want a clean fresh start", models, fellBack, err)
		}
	})

	t.Run("manifest of the wrong shape", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := openStore(t, dir).PutMeta([]byte("w"), "fleet round 1", "", json.RawMessage(`[1, 2]`)); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := loadDir(t, dir); err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("err = %v, want a manifest decode error", err)
		}
	})

	t.Run("version skew", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := openStore(t, dir).PutMeta([]byte("w"), "fleet round 1", "", json.RawMessage(`{"version": 99, "round": 1}`)); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := loadDir(t, dir); err == nil || !strings.Contains(err.Error(), "version 99") {
			t.Fatalf("err = %v, want a manifest version error", err)
		}
	})

	t.Run("missing bundle", func(t *testing.T) {
		dir := t.TempDir()
		saveRounds(t, dir, 1)
		if err := os.Remove(roundObject(t, dir, 1)); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := loadDir(t, dir); !errors.Is(err, modelstore.ErrBundleGone) {
			t.Fatalf("err = %v, want ErrBundleGone", err)
		}
	})

	t.Run("checksum mismatch", func(t *testing.T) {
		dir := t.TempDir()
		saveRounds(t, dir, 3)
		for r := 1; r <= 3; r++ {
			corruptRound(t, dir, r)
		}
		_, _, _, err := loadDir(t, dir)
		if !errors.Is(err, modelstore.ErrBundleCorrupt) {
			t.Fatalf("err = %v, want ErrBundleCorrupt", err)
		}
		if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("error %q does not mention the checksum", err)
		}
	})

	t.Run("retired layout", func(t *testing.T) {
		dir := t.TempDir()
		mustWrite(t, filepath.Join(dir, "manifest.json"), []byte(`{"version": 1, "round": 1, "bundle": "fleet-000001.bundle"}`))
		_, err := Pretrain(testScenario(1), Config{Workers: 1, Episode: sim.Millisecond, Checkpoint: dir, Resume: true})
		if !errors.Is(err, ErrLegacyCheckpoint) {
			t.Fatalf("err = %v, want ErrLegacyCheckpoint", err)
		}
	})
}

// With history retained, the same corruption modes fall back to the newest
// intact round instead of failing.
func TestLoadCheckpointFallsBackThroughHistory(t *testing.T) {
	dir := t.TempDir()
	saveRounds(t, dir, 3)
	// Round 3's bundle rots; round 2's bytes are gone altogether.
	corruptRound(t, dir, 3)
	if err := os.Remove(roundObject(t, dir, 2)); err != nil {
		t.Fatal(err)
	}

	var logs []string
	m, models, fellBack, err := loadCheckpoint(openStore(t, dir), func(format string, a ...any) {
		logs = append(logs, fmt.Sprintf(format, a...))
	})
	if err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if !fellBack {
		t.Fatal("fellBack = false, want true")
	}
	if m.Round != 1 {
		t.Fatalf("fell back to round %d, want 1", m.Round)
	}
	if !bytes.Equal(models, []byte("round-1-weights")) {
		t.Fatalf("fallback models = %q", models)
	}
	// Both bad candidates were logged before round 1 was accepted.
	joined := strings.Join(logs, "\n")
	for _, want := range []string{"version 3", "checksum", "version 2", "gone", "round 1"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("fallback log missing %q:\n%s", want, joined)
		}
	}
}

// A kill mid-append leaves versions.log ending in half a line. The store's
// replay drops it, so the round before resumes — cleanly, not as a fallback.
func TestTornVersionLogResumesPreviousRound(t *testing.T) {
	dir := t.TempDir()
	saveRounds(t, dir, 2)
	logPath := filepath.Join(dir, "versions.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, logPath, data[:len(data)-20])

	m, models, fellBack, err := loadDir(t, dir)
	if err != nil || fellBack {
		t.Fatalf("torn log tail: fellBack=%v err=%v, want a clean load", fellBack, err)
	}
	if m.Round != 1 || !bytes.Equal(models, []byte("round-1-weights")) {
		t.Fatalf("loaded round %d (%q), want round 1", m.Round, models)
	}

	// Checkpointing carries on past the tear: the rewritten rounds land on
	// log lines of their own and the next resume sees all of them.
	saveRounds(t, dir, 3)
	if m, _, fellBack, err = loadDir(t, dir); err != nil || fellBack || m.Round != 3 {
		t.Fatalf("after checkpointing past the tear: round=%d fellBack=%v err=%v", m.Round, fellBack, err)
	}
}

// A checkpoint directory shared with other producers: versions without a
// manifest (an upload, a published job bundle) are not checkpoints, and
// walking past them is not a fallback.
func TestLoadCheckpointSkipsForeignVersions(t *testing.T) {
	dir := t.TempDir()
	st := saveRounds(t, dir, 2)
	if _, err := st.Put([]byte("uploaded"), "api", ""); err != nil {
		t.Fatal(err)
	}
	m, _, fellBack, err := loadDir(t, dir)
	if err != nil || fellBack || m.Round != 2 {
		t.Fatalf("round=%d fellBack=%v err=%v, want round 2 without fallback", m.Round, fellBack, err)
	}
}

// Zero-valued fault-tolerance fields stay out of the log line, and a
// manifest without them loads with zero-value history.
func TestManifestWithoutFaultFieldsLoads(t *testing.T) {
	dir := t.TempDir()
	st := saveRounds(t, dir, 1)
	meta := string(st.Versions()[0].Meta)
	for _, field := range []string{"retries", "stragglers", "degraded_rounds"} {
		if strings.Contains(meta, field) {
			t.Fatalf("zero-valued %q serialized into the manifest: %s", field, meta)
		}
	}
	m, _, _, err := loadDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Retries != 0 || m.Stragglers != 0 || len(m.DegradedRounds) != 0 {
		t.Fatalf("fault fields = %+v, want zero values", m)
	}
}
