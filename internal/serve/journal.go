package serve

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"pet/internal/jsonlog"
)

// journalVersion stamps every entry this daemon writes. Replay skips entries
// from other versions with a logged warning instead of failing the boot, so
// a journal written by a newer daemon never bricks an older one. Version 2
// specs carry their scenario only as a document; a v1 spec's flat scenario
// fields would decode to nothing, so v1 entries are skipped, never resumed.
const journalVersion = 2

// JournalEntry is one line of the job journal: a spec (on the pending
// record) or a status transition. The journal is append-only JSONL with the
// repo's shared crash discipline (see internal/jsonlog): a torn final line
// is dropped on replay, damage earlier in history is a typed error.
type JournalEntry struct {
	V     int             `json:"v"`
	Time  time.Time       `json:"time"`
	ID    string          `json:"id"`
	State JobState        `json:"state"`
	Spec  *ExperimentSpec `json:"spec,omitempty"`
	Error string          `json:"error,omitempty"`
}

// ReplayedJob is one job reconstructed from the journal: its spec and the
// last state the previous process recorded before it exited (or died).
type ReplayedJob struct {
	ID         string
	Spec       ExperimentSpec
	State      JobState
	Error      string
	CreatedAt  time.Time
	StartedAt  *time.Time
	FinishedAt *time.Time
	Resumed    bool // a resumed transition appears in its history
}

// Journal is the daemon's durable job journal. Every accepted spec and every
// status transition is appended before (for accepts) or as (for transitions)
// the in-memory state changes, so a kill -9 at any instant leaves a journal
// from which the next boot reconstructs every job: terminal jobs reappear as
// records, jobs caught mid-flight are marked interrupted, and interrupted
// pretrain jobs with a checkpoint directory are resumed.
type Journal struct {
	path string
	logf func(format string, a ...any)

	mu       sync.Mutex
	dead     bool // test hook: a simulated kill — appends silently stop landing
	replayed []ReplayedJob
}

// OpenJournal opens (creating if needed) the journal at path and replays its
// history; logf (nil = silent) receives one warning per skipped entry.
// faults (nil ok) may tear the journal before replay for chaos tests.
// Replay is tolerant of a torn final line and of duplicate transitions
// (idempotent), and skips version-skew or unknown-job entries with a
// warning; damage before the final line is an error wrapping
// jsonlog.ErrCorrupt.
func OpenJournal(path string, logf func(string, ...any), faults *FaultPlan) (*Journal, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if faults != nil && faults.JournalTearAfter > 0 {
		if fi, err := os.Stat(path); err == nil && fi.Size() > faults.JournalTearAfter {
			if err := os.Truncate(path, faults.JournalTearAfter); err != nil {
				return nil, fmt.Errorf("serve: tearing journal: %w", err)
			}
		}
	}
	jl := &Journal{path: path, logf: logf}
	byID := map[string]*ReplayedJob{}
	var order []string
	err := jsonlog.Replay(path, func(line int, e JournalEntry) error {
		if e.V != journalVersion {
			logf("journal: line %d: skipping v%d entry for job %s (this daemon speaks v%d)",
				line, e.V, e.ID, journalVersion)
			return nil
		}
		rj := byID[e.ID]
		if rj == nil {
			if e.State != StatePending || e.Spec == nil {
				logf("journal: line %d: skipping %s transition for unknown job %s", line, e.State, e.ID)
				return nil
			}
			byID[e.ID] = &ReplayedJob{ID: e.ID, Spec: *e.Spec, State: StatePending, CreatedAt: e.Time}
			order = append(order, e.ID)
			return nil
		}
		if e.State == rj.State {
			return nil // duplicate transition: replay is idempotent
		}
		t := e.Time
		switch e.State {
		case StateRunning:
			if rj.StartedAt == nil {
				rj.StartedAt = &t
			}
		case StateResumed:
			rj.Resumed = true
		case StateDone, StateFailed, StateCancelled, StateInterrupted:
			rj.FinishedAt = &t
		}
		rj.State = e.State
		rj.Error = e.Error
		return nil
	})
	if err != nil {
		if errors.Is(err, jsonlog.ErrCorrupt) {
			return nil, fmt.Errorf("serve: job journal: %w", err)
		}
		return nil, err
	}
	jl.replayed = make([]ReplayedJob, len(order))
	for i, id := range order {
		jl.replayed[i] = *byID[id]
	}
	return jl, nil
}

// Replayed returns the jobs reconstructed at open, in accept order.
func (jl *Journal) Replayed() []ReplayedJob { return jl.replayed }

// Path returns the journal file's location.
func (jl *Journal) Path() string { return jl.path }

// Record appends one entry. spec travels only on the pending record; errMsg
// only on failure-ish transitions.
func (jl *Journal) Record(id string, state JobState, spec *ExperimentSpec, errMsg string) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.dead {
		return nil
	}
	return jsonlog.Append(jl.path, JournalEntry{
		V:     journalVersion,
		Time:  time.Now().UTC(),
		ID:    id,
		State: state,
		Spec:  spec,
		Error: errMsg,
	})
}

// kill simulates the process dying at this instant for restart tests: every
// later Record is silently dropped, exactly as if the writes never ran.
func (jl *Journal) kill() {
	jl.mu.Lock()
	jl.dead = true
	jl.mu.Unlock()
}

// States replays the journal and returns the transition sequence for one
// job, in file order — the shape restart tests assert on (e.g. pending,
// running, interrupted, resumed, running, done). Version-skew and torn
// entries are skipped exactly as OpenJournal skips them.
func (jl *Journal) States(id string) ([]JobState, error) {
	var out []JobState
	err := jsonlog.Replay(jl.path, func(_ int, e JournalEntry) error {
		if e.V == journalVersion && e.ID == id {
			out = append(out, e.State)
		}
		return nil
	})
	return out, err
}
