package serve

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pet/internal/bench"
	"pet/internal/fleet"
	"pet/internal/modelstore"
	"pet/internal/telemetry"
)

// JobState is one experiment's lifecycle position.
type JobState string

// The lifecycle: pending → running → one of the terminal states. A daemon
// death adds two journal-only transitions: a job caught mid-flight is
// replayed as interrupted, and an interrupted pretrain job with a checkpoint
// is marked resumed before it runs again under the same ID.
const (
	StatePending     JobState = "pending"     // accepted, waiting for a slot
	StateRunning     JobState = "running"     // simulating
	StateDone        JobState = "done"        // finished, result available
	StateFailed      JobState = "failed"      // assembly or run error
	StateCancelled   JobState = "cancelled"   // DELETE'd or daemon shutdown
	StateInterrupted JobState = "interrupted" // daemon died mid-job, not resumable
	StateResumed     JobState = "resumed"     // journal transition: relaunching after interrupt
)

// Terminal reports whether a state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateInterrupted
}

// RunSummary is the compact, JSON-stable result view of a completed
// measurement run (a "run" job).
type RunSummary struct {
	Scheme       string  `json:"scheme"`
	Load         float64 `json:"load"`
	FlowsDone    int     `json:"flows_done"`
	Drops        uint64  `json:"drops"`
	AvgSlowdown  float64 `json:"avg_slowdown"`
	P99Slowdown  float64 `json:"p99_slowdown"`
	MiceAvg      float64 `json:"mice_avg_slowdown"`
	ElephantAvg  float64 `json:"elephant_avg_slowdown"`
	IncastAvg    float64 `json:"incast_avg_slowdown"`
	LatencyAvgUs float64 `json:"latency_avg_us"`
	LatencyP99Us float64 `json:"latency_p99_us"`
	QueueAvgKB   float64 `json:"queue_avg_kb"`
}

func summarize(res bench.Result) *RunSummary {
	return &RunSummary{
		Scheme:       string(res.Scheme),
		Load:         res.Load,
		FlowsDone:    res.FlowsDone,
		Drops:        res.Drops,
		AvgSlowdown:  res.Overall.AvgSlowdown,
		P99Slowdown:  res.Overall.P99Slowdown,
		MiceAvg:      res.MiceBkt.AvgSlowdown,
		ElephantAvg:  res.Elephant.AvgSlowdown,
		IncastAvg:    res.Incast.AvgSlowdown,
		LatencyAvgUs: res.LatencyAvgUs,
		LatencyP99Us: res.LatencyP99Us,
		QueueAvgKB:   res.QueueAvgKB,
	}
}

// runName labels a scenario "scheme/workload" for log lines, naming the
// defaults bench fills in for empty fields.
func runName(s bench.Scenario) string {
	wl := "WebSearch"
	if s.Workload != nil {
		wl = s.Workload.Name()
	}
	return fmt.Sprintf("%s/%s", cmp.Or(s.Scheme, bench.SchemeSECN1), wl)
}

// PretrainSummary is the result view of a completed pre-training job.
type PretrainSummary struct {
	Rounds         int     `json:"rounds"`
	ResumedFrom    int     `json:"resumed_from,omitempty"`
	CumReward      float64 `json:"cum_reward"`
	Retries        int     `json:"retries,omitempty"`
	DegradedRounds []int   `json:"degraded_rounds,omitempty"`
	ModelBytes     int     `json:"model_bytes"`
	ModelSHA256    string  `json:"model_sha256"`
	Out            string  `json:"out,omitempty"`           // bundle path when Spec.Out was set
	StoreVersion   int     `json:"store_version,omitempty"` // model-store version when Spec.Publish was set
}

// JobStatus is the JSON view of one job, returned by the lifecycle API and
// pushed on the SSE stream.
type JobStatus struct {
	ID         string           `json:"id"`
	Kind       string           `json:"kind"`
	State      JobState         `json:"state"`
	Error      string           `json:"error,omitempty"`
	Spec       ExperimentSpec   `json:"spec"`
	CreatedAt  time.Time        `json:"created_at"`
	StartedAt  *time.Time       `json:"started_at,omitempty"`
	FinishedAt *time.Time       `json:"finished_at,omitempty"`
	Rounds     int              `json:"rounds,omitempty"`  // pretrain progress, live
	Resumed    bool             `json:"resumed,omitempty"` // relaunched from the journal after a daemon death
	Stalled    bool             `json:"stalled,omitempty"` // watchdog flagged: no progress within the deadline
	Result     *RunSummary      `json:"result,omitempty"`
	Pretrain   *PretrainSummary `json:"pretrain,omitempty"`
}

// job is the manager's internal record; mu guards every mutable field
// except beat, which episode callbacks touch from fleet workers.
type job struct {
	mu     sync.Mutex
	status JobStatus
	cancel context.CancelCauseFunc
	models []byte // trained bundle of a done pretrain job

	// beat is the last progress heartbeat (UnixNano); nonzero only for jobs
	// that emit heartbeats (pretrain), which the watchdog watches.
	beat atomic.Int64
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// errShuttingDown rejects launches once Shutdown has begun.
var errShuttingDown = errors.New("serve: manager shutting down")

// Manager owns the experiment jobs: it launches each one in a managed
// goroutine under a cancellable context, bounds how many simulate at once,
// and drains them all on shutdown. Pre-training jobs run on the fleet, so
// cancellation inherits its drain-and-checkpoint machinery: a cancelled
// pretrain job writes a final checkpoint for its last completed round
// before the job goroutine exits.
type Manager struct {
	tele *telemetry.Registry
	logf func(format string, a ...any)

	// store (nil ok) receives finished pretrain bundles when their spec
	// asks to publish; set by serve.New before any launch.
	store *modelstore.Store

	// journal (nil ok) durably records every accept and transition; set by
	// serve.New before any launch.
	journal *Journal

	// faults (nil ok) threads chaos-test fault injection into pretrain jobs.
	faults *FaultPlan

	slots chan struct{} // concurrency semaphore

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	closed bool

	wg sync.WaitGroup

	started, finished, failed, cancelled *telemetry.Counter
	resumed                              *telemetry.Counter
	running                              *telemetry.Gauge
}

// NewManager returns a manager running at most maxConcurrent simulations
// at once (0 = 1); tele (nil ok) is threaded into every job's scenario and
// receives the manager's own petd_jobs_* series; logf (nil = silent)
// receives one line per job state change.
func NewManager(maxConcurrent int, tele *telemetry.Registry, logf func(string, ...any)) *Manager {
	if maxConcurrent <= 0 {
		maxConcurrent = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Manager{
		tele:      tele,
		logf:      logf,
		slots:     make(chan struct{}, maxConcurrent),
		jobs:      map[string]*job{},
		started:   tele.Counter("petd_jobs_started_total"),
		finished:  tele.Counter("petd_jobs_done_total"),
		failed:    tele.Counter("petd_jobs_failed_total"),
		cancelled: tele.Counter("petd_jobs_cancelled_total"),
		resumed:   tele.Counter("jobs_resumed_total"),
		running:   tele.Gauge("petd_jobs_running"),
	}
}

// Launch validates a spec, registers the job and starts its goroutine.
func (m *Manager) Launch(spec ExperimentSpec) (JobStatus, error) {
	spec, s, err := spec.normalized()
	if err != nil {
		return JobStatus{}, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, errShuttingDown
	}
	m.nextID++
	id := fmt.Sprintf("exp-%06d", m.nextID)
	// Journal the accept before the job exists in memory: a crash right here
	// replays as an interrupted job, never a job that silently vanished. A
	// journal that cannot take the entry fails the launch — durability is
	// the contract, not best-effort.
	if m.journal != nil {
		if err := m.journal.Record(id, StatePending, &spec, ""); err != nil {
			m.nextID--
			m.mu.Unlock()
			return JobStatus{}, fmt.Errorf("serve: journaling job: %w", err)
		}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &job{
		status: JobStatus{
			ID:        id,
			Kind:      spec.Kind,
			State:     StatePending,
			Spec:      spec,
			CreatedAt: time.Now().UTC(),
		},
		cancel: cancel,
	}
	m.jobs[id] = j
	m.wg.Add(1)
	m.mu.Unlock()

	m.started.Inc()
	m.logf("job %s: accepted (%s %s)", id, spec.Kind, runName(s))
	go m.execute(ctx, j)
	return j.snapshot(), nil
}

// journalRecord appends a transition, logging (not failing the job) when the
// journal cannot take it — the job already ran; losing its transition is a
// durability gap worth a line, not a spurious failure.
func (m *Manager) journalRecord(id string, state JobState, errMsg string) {
	if m.journal == nil {
		return
	}
	if err := m.journal.Record(id, state, nil, errMsg); err != nil {
		m.logf("job %s: journal append failed: %v", id, err)
	}
}

// adoptReplayed reconstructs journal-replayed jobs at boot: terminal jobs
// come back as inert records, jobs the dead daemon left mid-flight are
// journaled interrupted, and interrupted pretrain jobs with a checkpoint
// directory are resumed under their original ID.
func (m *Manager) adoptReplayed(replayed []ReplayedJob) {
	for _, rj := range replayed {
		var n int
		if _, err := fmt.Sscanf(rj.ID, "exp-%d", &n); err == nil && n > m.nextID {
			m.nextID = n
		}
		if rj.State.Terminal() {
			m.adoptRecord(rj, rj.State, rj.Error)
			continue
		}
		// The previous process died while this job was pending or running.
		m.journalRecord(rj.ID, StateInterrupted, "daemon restarted mid-job")
		if rj.Spec.Kind == KindPretrain && rj.Spec.Checkpoint != "" {
			m.journalRecord(rj.ID, StateResumed, "")
			m.relaunch(rj)
			continue
		}
		m.adoptRecord(rj, StateInterrupted, "daemon restarted mid-job")
	}
}

// adoptRecord registers a replayed job as an inert record: visible through
// the lifecycle API, cancellable as a no-op, never executed.
func (m *Manager) adoptRecord(rj ReplayedJob, state JobState, errMsg string) {
	j := &job{
		status: JobStatus{
			ID:         rj.ID,
			Kind:       rj.Spec.Kind,
			State:      state,
			Error:      errMsg,
			Spec:       rj.Spec,
			CreatedAt:  rj.CreatedAt,
			StartedAt:  rj.StartedAt,
			FinishedAt: rj.FinishedAt,
			Resumed:    rj.Resumed,
		},
		cancel: func(error) {},
	}
	m.mu.Lock()
	m.jobs[rj.ID] = j
	m.mu.Unlock()
}

// relaunch restarts an interrupted pretrain job under its original ID, with
// Resume set so the fleet picks up from the newest round its checkpoint
// store can verify: at most one round of work is lost to the death.
func (m *Manager) relaunch(rj ReplayedJob) {
	spec := rj.Spec
	spec.Resume = true
	if _, err := spec.scenario(); err != nil {
		// The spec no longer assembles (e.g. a scheme this build dropped);
		// surface that as a failure rather than refusing to boot.
		m.logf("job %s: resume failed: %v", rj.ID, err)
		m.journalRecord(rj.ID, StateFailed, err.Error())
		m.adoptRecord(rj, StateFailed, err.Error())
		return
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &job{
		status: JobStatus{
			ID:        rj.ID,
			Kind:      spec.Kind,
			State:     StatePending,
			Spec:      spec,
			CreatedAt: rj.CreatedAt,
			Resumed:   true,
		},
		cancel: cancel,
	}
	m.mu.Lock()
	m.jobs[rj.ID] = j
	m.wg.Add(1)
	m.mu.Unlock()
	m.resumed.Inc()
	m.started.Inc()
	m.logf("job %s: resuming interrupted pretrain from checkpoint %s", rj.ID, spec.Checkpoint)
	go m.execute(ctx, j)
}

// execute is one job goroutine: wait for a slot, run, record the outcome.
func (m *Manager) execute(ctx context.Context, j *job) {
	defer m.wg.Done()
	defer j.cancel(nil) // release the context's resources on every path

	select {
	case m.slots <- struct{}{}:
		defer func() { <-m.slots }()
	case <-ctx.Done():
		m.finish(j, StateCancelled, context.Cause(ctx))
		return
	}
	if ctx.Err() != nil { // cancelled while acquiring the last slot
		m.finish(j, StateCancelled, context.Cause(ctx))
		return
	}

	now := time.Now().UTC()
	j.mu.Lock()
	j.status.State = StateRunning
	j.status.StartedAt = &now
	spec := j.status.Spec
	id := j.status.ID
	j.mu.Unlock()
	if spec.Kind == KindPretrain {
		// Pretrain progress heartbeats start now; run jobs have no episode
		// counter, so the watchdog leaves them alone (beat stays zero).
		j.beat.Store(now.UnixNano())
	}
	m.journalRecord(id, StateRunning, "")
	m.running.Add(1)
	defer m.running.Add(-1)

	var err error
	if spec.Kind == KindPretrain {
		err = m.runPretrain(ctx, j, spec)
	} else {
		err = m.runScenario(ctx, j, spec)
	}
	switch {
	case err == nil:
		m.finish(j, StateDone, nil)
	case ctx.Err() != nil:
		// Prefer the cancellation cause (e.g. the watchdog's verdict) over
		// the run's own wrapped context error.
		if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			err = cause
		}
		m.finish(j, StateCancelled, err)
	default:
		m.finish(j, StateFailed, err)
	}
}

// runScenario executes one measurement run.
func (m *Manager) runScenario(ctx context.Context, j *job, spec ExperimentSpec) error {
	s, err := spec.scenario()
	if err != nil {
		return err
	}
	s.Telemetry = m.tele
	env, err := bench.NewEnv(s)
	if err != nil {
		return err
	}
	res, err := env.RunContext(ctx)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.status.Result = summarize(res)
	j.mu.Unlock()
	return nil
}

// runPretrain executes one fleet pre-training job. Cancellation drains
// in-flight episodes and checkpoints the last completed round (the fleet's
// SIGINT machinery, driven here by the job context instead of a signal).
func (m *Manager) runPretrain(ctx context.Context, j *job, spec ExperimentSpec) error {
	s, err := spec.scenario()
	if err != nil {
		return err
	}
	s.Telemetry = m.tele
	cfg := fleet.Config{
		Workers:    spec.Workers,
		Rounds:     spec.Rounds,
		Episode:    cmp.Or(s.Duration, fleet.DefaultEpisode),
		Checkpoint: spec.Checkpoint,
		Resume:     spec.Resume,
		Faults:     m.faults.fleetFaults(),
		Telemetry:  m.tele,
		Logf:       func(format string, a ...any) { m.logf("job %s: "+format, append([]any{j.status.ID}, a...)...) },
		OnRound: func(r fleet.RoundStats) {
			j.mu.Lock()
			j.status.Rounds = r.Round + 1
			j.mu.Unlock()
			j.beat.Store(time.Now().UnixNano())
		},
		OnEpisode: func(round, worker int) {
			// Liveness, not progress: every drained episode — even a failed
			// one — proves the fleet is still moving, so the watchdog only
			// fires on true silence.
			j.beat.Store(time.Now().UnixNano())
		},
	}
	res, err := fleet.PretrainContext(ctx, s, cfg)
	if res.Rounds > 0 || len(res.Models) > 0 {
		sum := sha256.Sum256(res.Models)
		ps := &PretrainSummary{
			Rounds:         res.Rounds,
			ResumedFrom:    res.ResumedFrom,
			CumReward:      res.CumReward,
			Retries:        res.Retries,
			DegradedRounds: res.DegradedRounds,
			ModelBytes:     len(res.Models),
			ModelSHA256:    hex.EncodeToString(sum[:]),
		}
		if err == nil && spec.Out != "" {
			if werr := os.WriteFile(spec.Out, res.Models, 0o644); werr != nil {
				return fmt.Errorf("serve: writing bundle: %w", werr)
			}
			ps.Out = spec.Out
		}
		if err == nil && spec.Publish {
			if m.store == nil {
				return errNoStore
			}
			vi, perr := m.store.Put(res.Models, "job "+j.status.ID, fmt.Sprintf("pretrain %d rounds", res.Rounds))
			if perr != nil {
				return fmt.Errorf("serve: publishing bundle: %w", perr)
			}
			if perr := m.store.SetChannel(modelstore.ChannelCandidate, vi.Version); perr != nil {
				return fmt.Errorf("serve: publishing bundle: %w", perr)
			}
			ps.StoreVersion = vi.Version
			m.logf("job %s: published bundle as store version %d (candidate)", j.status.ID, vi.Version)
		}
		j.mu.Lock()
		j.status.Rounds = res.Rounds
		j.status.Pretrain = ps
		j.models = res.Models
		j.mu.Unlock()
	}
	return err
}

// finish records a job's terminal state.
func (m *Manager) finish(j *job, state JobState, err error) {
	now := time.Now().UTC()
	j.mu.Lock()
	j.status.State = state
	j.status.FinishedAt = &now
	if err != nil {
		j.status.Error = err.Error()
	}
	id := j.status.ID
	errMsg := j.status.Error
	j.mu.Unlock()
	m.journalRecord(id, state, errMsg)
	switch state {
	case StateDone:
		m.finished.Inc()
	case StateFailed:
		m.failed.Inc()
	case StateCancelled:
		m.cancelled.Inc()
	}
	if err != nil {
		m.logf("job %s: %s: %v", id, state, err)
	} else {
		m.logf("job %s: %s", id, state)
	}
}

// Get returns one job's status.
func (m *Manager) Get(id string) (JobStatus, bool) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// Models returns a done pretrain job's trained bundle.
func (m *Manager) Models(id string) ([]byte, bool) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.models, len(j.models) > 0
}

// List returns every job's status, oldest first.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Cancel requests cancellation of a pending or running job. Cancelling a
// job already in a terminal state is a stable no-op: the terminal status
// comes back with alreadyTerminal set, so the API layer can answer 409 with
// the same body every time. ok reports whether the job exists.
func (m *Manager) Cancel(id string) (st JobStatus, alreadyTerminal, ok bool) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return JobStatus{}, false, false
	}
	j.mu.Lock()
	terminal := j.status.State.Terminal()
	j.mu.Unlock()
	if terminal {
		return j.snapshot(), true, true
	}
	j.cancel(nil)
	return j.snapshot(), false, true
}

// Shutdown cancels every live job and waits for all job goroutines to
// drain, bounded by ctx. Pre-training jobs write their final checkpoint
// during the drain. New launches are rejected from the first moment.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	for _, j := range m.jobs {
		j.cancel(nil)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: job drain incomplete: %w", ctx.Err())
	}
}
