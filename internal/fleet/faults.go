package fleet

import "fmt"

// Deterministic fault injection for chaos-testing the fleet. A FaultPlan
// pins failures to exact episode (round, worker, attempt) coordinates, so
// every failure path (panic isolation, retry, deadline, quorum merge) can
// be exercised by a seedable test, including under the race detector. The
// plan is consulted read-only from worker goroutines; it must not be
// mutated while a run is in flight.

// FaultKind selects what an injected episode fault does.
type FaultKind int

const (
	// FaultFail makes the episode attempt return an error immediately.
	FaultFail FaultKind = iota + 1
	// FaultPanic makes the episode attempt panic. The worker pool must
	// absorb it (panic isolation) and convert it into a retryable error.
	FaultPanic
	// FaultHang makes the episode attempt block until its context is
	// cancelled (episode deadline or run cancellation) and then return
	// the context error — the deterministic stand-in for a stuck worker.
	// It requires Config.EpisodeTimeout or an externally cancelled run
	// context; with neither, the attempt blocks forever.
	FaultHang
	// FaultStraggle is a hang whose deadline is already past: the attempt
	// is cut, counted and retried as a straggler at once. The plan, not a
	// wall-clock timer, decides it, so healthy attempts on a loaded host
	// never straggle and EpisodeTimeout may stay unbounded.
	FaultStraggle
)

func (k FaultKind) String() string {
	switch k {
	case FaultFail:
		return "fail"
	case FaultPanic:
		return "panic"
	case FaultHang:
		return "hang"
	case FaultStraggle:
		return "straggle"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault injects one episode-level fault at an exact coordinate. Round and
// Attempt are 0-based (attempt 0 is the first try, attempt k its k-th
// retry), matching RoundStats.Round and the retry-seed derivation.
type Fault struct {
	Round   int
	Worker  int
	Attempt int
	Kind    FaultKind
}

// FaultPlan is the deterministic chaos schedule for one fleet run. A nil
// plan injects nothing, so production configs pay only a nil check.
type FaultPlan struct {
	// Episodes lists episode-level faults by (round, worker, attempt).
	Episodes []Fault
}

// episodeFault returns the fault scheduled at (round, worker, attempt),
// or 0 when none is.
func (p *FaultPlan) episodeFault(round, worker, attempt int) FaultKind {
	if p == nil {
		return 0
	}
	for _, f := range p.Episodes {
		if f.Round == round && f.Worker == worker && f.Attempt == attempt {
			return f.Kind
		}
	}
	return 0
}
