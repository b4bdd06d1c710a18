package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"pet/internal/modelstore"
)

// A checkpoint directory is a model store (see modelstore for the layout):
// a checkpointed round is one version whose log entry carries the run
// Manifest as its Meta. The round is durable once that log line is
// appended — object first, log second — so a crash before it leaves the
// previous round resumable, and a line torn mid-append is dropped by the
// store's log replay. The candidate channel follows the newest round, which
// is what `petd -store <dir>` promotes from; the store's GC keeps the
// newest keepRounds versions' bytes for resume to fall back through.

const (
	manifestVersion = 1
	// keepRounds is the store GC depth after each checkpoint: depth >= 2
	// survives the newest bundle rotting on disk.
	keepRounds = 3
)

// Manifest is the run state recorded with each checkpointed round.
type Manifest struct {
	Version   int       `json:"version"`
	Round     int       `json:"round"`   // completed merge rounds
	Workers   int       `json:"workers"` // worker count that produced it
	Seed      int64     `json:"seed"`    // scenario root seed
	EpisodePs int64     `json:"episode_ps"`
	CumReward float64   `json:"cum_reward"`
	Rewards   []float64 `json:"rewards"` // per-round mean rewards

	// Fault-tolerance history. Retry seeds derive statelessly from
	// (round, worker, attempt), so these fields document what happened —
	// resume determinism never depends on them.
	Retries        int   `json:"retries,omitempty"`         // cumulative retry attempts
	Stragglers     int   `json:"stragglers,omitempty"`      // attempts past the episode deadline
	DegradedRounds []int `json:"degraded_rounds,omitempty"` // 0-based rounds merged below full strength
}

// ErrLegacyCheckpoint reports a checkpoint directory written in the
// round-stamped manifest.json layout this package no longer reads
// (errors.Is).
var ErrLegacyCheckpoint = errors.New("fleet: checkpoint directory holds the retired manifest.json layout; start over in a new directory")

// openCheckpoint opens dir as the run's model store.
func openCheckpoint(dir string) (*modelstore.Store, error) {
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrLegacyCheckpoint, dir)
	}
	return modelstore.Open(dir)
}

// saveCheckpoint commits one round: the merged bundle becomes the store's
// next version with m in its log entry, candidate moves to it, and bytes
// beyond the retention depth are collected.
func saveCheckpoint(st *modelstore.Store, m Manifest, models []byte, logf func(string, ...any)) error {
	m.Version = manifestVersion
	meta, err := json.Marshal(m)
	if err != nil {
		return err
	}
	vi, err := st.PutMeta(models, fmt.Sprintf("fleet round %d", m.Round), "", meta)
	if err != nil {
		return err
	}
	if err := st.SetChannel(modelstore.ChannelCandidate, vi.Version); err != nil {
		return err
	}
	// Uncollected bytes cost disk, never correctness.
	if _, err := st.GC(keepRounds); err != nil {
		logf("fleet: checkpoint GC: %v", err)
	}
	return nil
}

// loadCheckpoint returns the newest checkpointed round whose bundle the
// store can verify, walking the version log newest-first and logging each
// round it has to skip; the bool reports that it skipped any. Versions
// without Meta are someone else's (an upload, a job's published bundle).
// A store with no fleet version at all returns nil models and a nil error;
// when every fleet version fails, the newest one's error is returned
// (modelstore.ErrBundleCorrupt, modelstore.ErrBundleGone, …).
func loadCheckpoint(st *modelstore.Store, logf func(string, ...any)) (Manifest, []byte, bool, error) {
	var newestErr error
	versions := st.Versions()
	for i := len(versions) - 1; i >= 0; i-- {
		vi := versions[i]
		if len(vi.Meta) == 0 {
			continue
		}
		m, models, err := readRound(st, vi)
		if err == nil {
			if newestErr != nil {
				logf("fleet: fell back to checkpoint round %d (store version %d)", m.Round, vi.Version)
			}
			return m, models, newestErr != nil, nil
		}
		logf("fleet: skipping checkpoint version %d: %v", vi.Version, err)
		if newestErr == nil {
			newestErr = err
		}
	}
	return Manifest{}, nil, false, newestErr
}

// readRound decodes one fleet version's manifest and fetches its verified
// bundle.
func readRound(st *modelstore.Store, vi modelstore.VersionInfo) (Manifest, []byte, error) {
	var m Manifest
	if err := json.Unmarshal(vi.Meta, &m); err != nil {
		return m, nil, fmt.Errorf("fleet: checkpoint manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, nil, fmt.Errorf("fleet: checkpoint manifest version %d, want %d", m.Version, manifestVersion)
	}
	_, models, err := st.Get(vi.Version)
	return m, models, err
}
