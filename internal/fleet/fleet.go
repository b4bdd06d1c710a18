// Package fleet parallelizes PET's offline pre-training phase (Sec. 4.4.1)
// across a pool of rollout workers — the synchronous parameter-server loop
// RL-for-networking systems use to make policy training tractable.
//
// Architecture:
//
//   - Each worker owns its own simulation end to end (sim.Engine, network,
//     transport, workload generator, PET controller), so the determinism of
//     one episode depends only on its (scenario, seed) pair, never on
//     goroutine scheduling.
//   - Training proceeds in synchronized rounds. Every round the coordinator
//     broadcasts the current global model bundle, each worker runs one
//     independently-seeded training episode from that base, and the
//     resulting per-worker bundles are folded back together by element-wise
//     weight averaging (core.MergeModelBundles). Averaging the workers'
//     weights equals averaging their deltas around the shared base, so the
//     merge is a plain mean with no delta bookkeeping.
//   - Episode seeds derive from the scenario seed via splittable streams;
//     episode (round 0, worker 0) reuses the scenario seed itself, so a
//     one-worker, one-round fleet reproduces the sequential PretrainPET
//     byte for byte. Retried attempts derive a fresh seed from (round,
//     worker, attempt), so runs stay reproducible under failures.
//
// Fault tolerance: the coordinator is built to degrade instead of die. A
// panicking episode is recovered into an error; failed attempts (errors,
// panics, blown deadlines) retry up to MaxRetries times with bounded
// exponential backoff; a round may merge with K-of-N successful bundles
// (MinQuorum) and is then flagged degraded; run-level context cancellation
// (e.g. SIGINT) drains in-flight episodes and writes a final checkpoint for
// the last completed round before returning. Every failure path is
// deterministically exercisable through Config.Faults (see FaultPlan).
//
// Long runs survive interruption through checkpoints: Config.Checkpoint is a
// model store (internal/modelstore), and after a merge the bundle is Put as
// its next version with the run manifest — round number, seeds, cumulative
// reward — in the same version-log line. Resume walks that log newest-first
// and takes the first round whose bytes still match their sha256, so a
// single corrupted file never bricks a run; the same directory is what
// `petd -store` promotes and serves from.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pet/internal/bench"
	"pet/internal/core"
	_ "pet/internal/dcqcn" // register the default transport episodes assemble with
	"pet/internal/modelstore"
	"pet/internal/rng"
	"pet/internal/sim"
	"pet/internal/telemetry"
	"pet/internal/trace"
)

const (
	// DefaultEpisode is the episode length a caller uses when its scenario
	// sets no duration (pettrain's -duration default, petd's pretrain jobs).
	// Config.Episode itself has no default: zero is rejected.
	DefaultEpisode = 100 * sim.Millisecond

	// defaultRetryBackoff is the base delay before the first retry when
	// Config.RetryBackoff is zero; it doubles per attempt.
	defaultRetryBackoff = 50 * time.Millisecond
	// maxRetryBackoff caps the exponential backoff between attempts.
	maxRetryBackoff = 5 * time.Second
)

// Config parameterizes a pre-training fleet.
type Config struct {
	Workers int      // parallel rollout workers (0 = runtime.NumCPU())
	Rounds  int      // synchronized merge rounds (0 = 1)
	Episode sim.Time // simulated training time per episode (required)

	Checkpoint      string // checkpoint directory, a model store; "" disables checkpointing
	CheckpointEvery int    // write a checkpoint every k rounds (0 = 1)
	Resume          bool   // continue from Checkpoint's newest verifiable round when present

	// AllowWorkerChange permits resuming a checkpoint written with a
	// different Workers count. Episode seeds derive from (round, worker),
	// so changing the worker count changes the training trajectory from
	// the resume point on; without this override, a mismatch fails loudly
	// rather than silently forking the run.
	AllowWorkerChange bool

	// MaxRetries is how many times one episode slot retries after a
	// failed attempt (error, panic, or blown deadline) before the round
	// gives up on it (0 = no retries). Attempt k derives its own seed
	// from (round, worker, k), so retried runs remain reproducible.
	MaxRetries int

	// RetryBackoff is the base wall-clock delay before the first retry;
	// it doubles per subsequent attempt, capped at 5s (0 = 50ms).
	// Backoff consumes wall time only and never perturbs simulated time.
	RetryBackoff time.Duration

	// EpisodeTimeout bounds one episode attempt in wall-clock time
	// (0 = unbounded). An attempt past the deadline is a straggler: it
	// is cancelled, counted, logged, and retried like any other failure.
	EpisodeTimeout time.Duration

	// MinQuorum is the minimum number of successful episodes a round
	// needs to merge (0 = Workers, i.e. the strict all-or-nothing
	// behavior). A round merging fewer than Workers bundles is flagged
	// degraded in RoundStats, the manifest, and telemetry.
	MinQuorum int

	// Faults, when non-nil, injects deterministic failures for chaos
	// testing: episode fail/panic/hang at exact (round, worker, attempt)
	// coordinates.
	Faults *FaultPlan

	// Logf, when non-nil, receives human-readable warnings: retries,
	// stragglers, degraded rounds, checkpoint fallbacks (nil = silent).
	Logf func(format string, a ...any)

	// Telemetry, when non-nil, instruments the run end to end: the
	// coordinator publishes round/merge/checkpoint metrics here, and the
	// registry is threaded into every worker episode's scenario so netsim,
	// DCQCN and PPO publish too. Observation-only: the resulting model
	// bundle is byte-identical with or without it.
	Telemetry *telemetry.Registry

	// Trace, when non-nil, receives one "telemetry" event per completed
	// round (timestamped with cumulative simulated training time) for CSV
	// export — the live-run flight recorder.
	Trace *trace.Recorder

	// OnRound, when non-nil, observes each completed merge round from the
	// coordinator goroutine.
	OnRound func(RoundStats)

	// OnEpisode, when non-nil, observes every drained episode result —
	// successes and failures alike — from the coordinator goroutine. It is
	// a liveness signal, not a progress report: the serve layer's hung-job
	// watchdog heartbeats on it, so it must fire even for episodes that
	// failed, or a fleet grinding through retries would look hung.
	OnEpisode func(round, worker int)
}

func (c Config) withDefaults() (Config, error) {
	if c.Workers < 0 {
		return c, fmt.Errorf("fleet: negative worker count %d", c.Workers)
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Rounds < 0 {
		return c, fmt.Errorf("fleet: negative round count %d", c.Rounds)
	}
	if c.Rounds == 0 {
		c.Rounds = 1
	}
	if c.Episode <= 0 {
		return c, fmt.Errorf("fleet: episode duration %v must be positive", c.Episode)
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.Resume && c.Checkpoint == "" {
		return c, fmt.Errorf("fleet: Resume requires a Checkpoint directory")
	}
	if c.MaxRetries < 0 {
		return c, fmt.Errorf("fleet: negative retry count %d", c.MaxRetries)
	}
	if c.RetryBackoff < 0 {
		return c, fmt.Errorf("fleet: negative retry backoff %v", c.RetryBackoff)
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = defaultRetryBackoff
	}
	if c.EpisodeTimeout < 0 {
		return c, fmt.Errorf("fleet: negative episode timeout %v", c.EpisodeTimeout)
	}
	if c.MinQuorum < 0 || c.MinQuorum > c.Workers {
		return c, fmt.Errorf("fleet: quorum %d out of range [0, %d workers]", c.MinQuorum, c.Workers)
	}
	if c.MinQuorum == 0 {
		c.MinQuorum = c.Workers
	}
	return c, nil
}

// RoundStats summarizes one completed merge round.
type RoundStats struct {
	Round      int     // 0-based round index
	Episodes   int     // successful episodes folded into this round's merge
	Failed     int     // worker slots that exhausted their retries this round
	Retries    int     // retry attempts consumed this round
	Stragglers int     // attempts cancelled by the episode deadline this round
	Degraded   bool    // merged below full strength (Episodes < Workers)
	MeanReward float64 // mean per-slot reward across the round's successful episodes
	Updates    int     // IPPO updates completed across the round's successful episodes
}

// Result summarizes a completed pre-training run.
type Result struct {
	Models      []byte  // final merged model bundle
	Rounds      int     // total completed rounds, including restored ones
	ResumedFrom int     // rounds restored from checkpoint (0 = fresh start)
	CumReward   float64 // sum of per-round mean rewards over all rounds

	Retries            int   // retry attempts consumed, including restored rounds
	Stragglers         int   // attempts past the episode deadline, including restored rounds
	DegradedRounds     []int // 0-based indices of rounds merged below full strength
	CheckpointFellBack bool  // resume skipped corrupt checkpoints for an older bundle
}

// job is one episode assignment broadcast to a worker. seeds holds the
// deterministic per-attempt seed schedule (seeds[0] is the first try).
type job struct {
	round, worker int
	seeds         []int64
	models        []byte
}

// episodeOut is one worker's final result for a round, after retries.
type episodeOut struct {
	worker     int
	stats      bench.EpisodeStats
	err        error
	retries    int
	stragglers int
}

// episodeSeed derives the deterministic seed for (round, worker). The very
// first episode reuses the scenario seed so Workers=1, Rounds=1 reproduces
// the sequential pre-training exactly.
func episodeSeed(root *rng.Stream, scenarioSeed int64, round, worker int) int64 {
	if round == 0 && worker == 0 {
		return scenarioSeed
	}
	return root.SplitN("fleet-round", round).SplitN("worker", worker).Seed()
}

// attemptSeeds builds the per-attempt seed schedule for one episode slot:
// attempt 0 uses the historical (round, worker) seed, attempt k > 0 splits
// a fresh "retry" stream, so a retried episode explores new randomness yet
// two runs of the same FaultPlan remain byte-identical.
func attemptSeeds(root *rng.Stream, scenarioSeed int64, round, worker, retries int) []int64 {
	seeds := make([]int64, retries+1)
	seeds[0] = episodeSeed(root, scenarioSeed, round, worker)
	if retries > 0 {
		slot := root.SplitN("fleet-round", round).SplitN("worker", worker)
		for a := 1; a <= retries; a++ {
			seeds[a] = slot.SplitN("retry", a).Seed()
		}
	}
	return seeds
}

// retryBackoff returns the bounded exponential delay before retry attempt
// (attempt >= 1): base doubling per attempt, capped at maxRetryBackoff.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d <= 0 || d > maxRetryBackoff {
		return maxRetryBackoff
	}
	return d
}

// sleepContext sleeps for d or until ctx is cancelled, reporting whether
// the full sleep elapsed.
func sleepContext(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// runAttempt executes one episode attempt under the per-attempt deadline,
// converting panics into errors so the worker pool always survives. The
// straggler flag reports an attempt cancelled by its own deadline (not by
// run-level cancellation).
func runAttempt(ctx context.Context, s bench.Scenario, cfg Config, tm fleetMetrics, j job, attempt int) (st bench.EpisodeStats, straggler bool, err error) {
	fault := cfg.Faults.episodeFault(j.round, j.worker, attempt)
	actx := ctx
	cancel := func() {}
	switch {
	case fault == FaultStraggle:
		actx, cancel = context.WithDeadline(ctx, time.Time{}) // already past
	case cfg.EpisodeTimeout > 0:
		actx, cancel = context.WithTimeout(ctx, cfg.EpisodeTimeout)
	}
	defer cancel()
	start := time.Now()
	defer func() {
		elapsed := time.Since(start).Seconds()
		tm.episodeSec.Observe(elapsed)
		tm.episodes.Inc()
		if r := recover(); r != nil {
			err = fmt.Errorf("fleet: episode panicked: %v", r)
		}
		if errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			straggler = true
			tm.stragglers.Inc()
			tm.stragglerSec.Observe(elapsed)
		}
	}()
	switch fault {
	case FaultFail:
		return st, false, errors.New("fleet: injected episode failure")
	case FaultPanic:
		panic("fleet: injected episode panic")
	case FaultHang, FaultStraggle:
		<-actx.Done()
		return st, false, fmt.Errorf("fleet: injected hang: %w", actx.Err())
	}
	st, err = bench.PretrainEpisode(actx, s, cfg.Episode, j.seeds[attempt], j.models)
	return st, false, err
}

// runEpisodeJob drives one episode slot to success or retry exhaustion.
func runEpisodeJob(ctx context.Context, s bench.Scenario, cfg Config, tm fleetMetrics, logf func(string, ...any), j job) episodeOut {
	out := episodeOut{worker: j.worker}
	for attempt := 0; attempt < len(j.seeds); attempt++ {
		if attempt > 0 {
			out.retries++
			tm.retries.Inc()
			logf("fleet: round %d worker %d retrying (attempt %d/%d) after: %v",
				j.round, j.worker, attempt+1, len(j.seeds), out.err)
			if !sleepContext(ctx, retryBackoff(cfg.RetryBackoff, attempt)) {
				out.err = fmt.Errorf("fleet: retry abandoned: %w", ctx.Err())
				return out
			}
		}
		st, straggler, err := runAttempt(ctx, s, cfg, tm, j, attempt)
		if straggler {
			out.stragglers++
			logf("fleet: round %d worker %d attempt %d exceeded the %v episode deadline",
				j.round, j.worker, attempt+1, cfg.EpisodeTimeout)
		}
		if err == nil {
			out.stats, out.err = st, nil
			return out
		}
		out.err = err
		if ctx.Err() != nil {
			return out // run cancelled: don't burn the remaining attempts
		}
	}
	return out
}

// Pretrain runs the fleet: Rounds synchronized rounds of Workers parallel
// episodes each, returning the final merged model bundle (loadable via
// Scenario.Models). The scenario is normalized exactly as PretrainPET
// normalizes it; Workers=1, Rounds=1 with no faults is bit-identical to
// PretrainPET.
func Pretrain(s bench.Scenario, cfg Config) (Result, error) {
	return PretrainContext(context.Background(), s, cfg)
}

// PretrainContext is Pretrain with run-level cancellation: when ctx is
// cancelled mid-run (e.g. by SIGINT), the coordinator drains in-flight
// episodes, writes a final checkpoint for the last completed round, and
// returns the partial Result alongside an error wrapping ctx.Err().
func PretrainContext(ctx context.Context, s bench.Scenario, cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	tm := newFleetMetrics(cfg.Telemetry)
	if cfg.Telemetry != nil {
		// Thread the registry into every worker episode so all four layers
		// (netsim, dcqcn, ppo, fleet) publish into one place.
		s.Telemetry = cfg.Telemetry
	}

	var res Result
	var rewards []float64 // per-round mean rewards, for the manifest

	var store *modelstore.Store
	if cfg.Checkpoint != "" {
		if store, err = openCheckpoint(cfg.Checkpoint); err != nil {
			return Result{}, err
		}
	}

	// Resume, or initialize the global model as the common broadcast base.
	var global []byte
	if cfg.Resume {
		m, models, fellBack, err := loadCheckpoint(store, logf)
		switch {
		case err != nil:
			return Result{}, err
		case models == nil:
			// Nothing to resume; fall through to a fresh start.
		default:
			if m.Seed != s.Seed {
				return Result{}, fmt.Errorf("fleet: checkpoint seed %d does not match scenario seed %d", m.Seed, s.Seed)
			}
			if m.EpisodePs != int64(cfg.Episode) {
				return Result{}, fmt.Errorf("fleet: checkpoint episode %v does not match configured %v",
					sim.Time(m.EpisodePs), cfg.Episode)
			}
			if m.Workers != cfg.Workers && !cfg.AllowWorkerChange {
				return Result{}, fmt.Errorf("fleet: checkpoint written with %d workers, resuming with %d"+
					" would change episode seeding and the training trajectory;"+
					" rerun with Workers=%d or set AllowWorkerChange",
					m.Workers, cfg.Workers, m.Workers)
			}
			global = models
			rewards = append(rewards, m.Rewards...)
			res.ResumedFrom = m.Round
			res.CumReward = m.CumReward
			res.Rounds = m.Round
			res.Retries = m.Retries
			res.Stragglers = m.Stragglers
			res.DegradedRounds = append(res.DegradedRounds, m.DegradedRounds...)
			if fellBack {
				res.CheckpointFellBack = true
				tm.ckptFallbacks.Inc()
			}
			if m.Round >= cfg.Rounds {
				res.Models = models
				return res, nil // requested rounds already completed
			}
		}
	}
	if global == nil {
		if global, err = bench.PretrainInit(s); err != nil {
			return Result{}, fmt.Errorf("fleet: building initial models: %w", err)
		}
	}

	// Long-lived worker pool: each goroutine runs episodes it receives over
	// the jobs channel, fully owning its environment for the duration of
	// each episode, and reports bundles back over the results channel.
	// Panics inside an episode are recovered in runAttempt, so one bad
	// episode never takes the pool down.
	jobs := make(chan job)
	results := make(chan episodeOut, cfg.Workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- runEpisodeJob(ctx, s, cfg, tm, logf, j)
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	// lastCkpt tracks the newest round persisted to disk, so error paths
	// can checkpoint the last completed round exactly once on the way out.
	lastCkpt := res.ResumedFrom
	saveRound := func(round int) error {
		m := Manifest{
			Round:          round,
			Workers:        cfg.Workers,
			Seed:           s.Seed,
			EpisodePs:      int64(cfg.Episode),
			CumReward:      res.CumReward,
			Rewards:        rewards,
			Retries:        res.Retries,
			Stragglers:     res.Stragglers,
			DegradedRounds: res.DegradedRounds,
		}
		start := time.Now()
		if err := saveCheckpoint(store, m, global, logf); err != nil {
			return err
		}
		tm.ckptSec.Observe(time.Since(start).Seconds())
		tm.ckptBytes.Set(float64(len(global)))
		lastCkpt = round
		return nil
	}
	// finalize persists the last completed round on abnormal exits
	// (cancellation, quorum failure, merge error) so no finished work is
	// lost; best-effort by design — the run is already returning an error.
	finalize := func() {
		if store == nil || res.Rounds <= lastCkpt {
			return
		}
		if err := saveRound(res.Rounds); err != nil {
			logf("fleet: final checkpoint failed: %v", err)
		}
	}

	root := rng.New(s.Seed)
	for r := res.ResumedFrom; r < cfg.Rounds; r++ {
		for w := 0; w < cfg.Workers; w++ {
			jobs <- job{round: r, worker: w, seeds: attemptSeeds(root, s.Seed, r, w, cfg.MaxRetries), models: global}
		}
		bundles := make([][]byte, cfg.Workers)
		st := RoundStats{Round: r}
		roundReward := 0.0
		var firstErr error
		// Always drain all Workers results — even after a failure — so the
		// pool and results channel stay consistent for the next round or a
		// clean shutdown.
		for i := 0; i < cfg.Workers; i++ {
			out := <-results
			if cfg.OnEpisode != nil {
				cfg.OnEpisode(r, out.worker)
			}
			st.Retries += out.retries
			st.Stragglers += out.stragglers
			if out.err != nil {
				st.Failed++
				tm.failures.Inc()
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: round %d worker %d: %w", r, out.worker, out.err)
				}
				logf("fleet: round %d worker %d gave up after %d attempt(s): %v",
					r, out.worker, out.retries+1, out.err)
				continue
			}
			// Index by worker, not arrival order, so the merge is
			// deterministic under any goroutine scheduling.
			bundles[out.worker] = out.stats.Models
			st.Episodes++
			roundReward += out.stats.MeanReward
			st.Updates += out.stats.Updates
		}
		res.Retries += st.Retries
		res.Stragglers += st.Stragglers

		if err := ctx.Err(); err != nil {
			finalize()
			return res, fmt.Errorf("fleet: run cancelled during round %d: %w", r, err)
		}
		if st.Episodes < cfg.MinQuorum {
			finalize()
			return res, fmt.Errorf("fleet: round %d: %d of %d episodes succeeded, below quorum %d: %w",
				r, st.Episodes, cfg.Workers, cfg.MinQuorum, firstErr)
		}

		// Merge the successful bundles in worker order (quorum merge).
		ok := make([][]byte, 0, st.Episodes)
		for _, b := range bundles {
			if b != nil {
				ok = append(ok, b)
			}
		}
		mergeStart := time.Now()
		merged, err := core.MergeModelBundles(ok)
		if err != nil {
			finalize()
			return res, fmt.Errorf("fleet: round %d merge: %w", r, err)
		}
		tm.mergeSec.Observe(time.Since(mergeStart).Seconds())
		global = merged
		st.Degraded = st.Episodes < cfg.Workers
		if st.Degraded {
			res.DegradedRounds = append(res.DegradedRounds, r)
			tm.degradedRounds.Inc()
			logf("fleet: round %d degraded: merged %d of %d bundles", r, st.Episodes, cfg.Workers)
		}
		mean := roundReward / float64(st.Episodes)
		st.MeanReward = mean
		rewards = append(rewards, mean)
		res.CumReward += mean
		res.Rounds = r + 1

		tm.rounds.Inc()
		tm.round.Set(float64(r + 1))
		tm.meanReward.Set(mean)
		tm.cumReward.Set(res.CumReward)
		tm.roundReward.Observe(mean)

		if store != nil && ((r+1)%cfg.CheckpointEvery == 0 || r == cfg.Rounds-1) {
			if err := saveRound(r + 1); err != nil {
				return res, fmt.Errorf("fleet: round %d checkpoint: %w", r, err)
			}
		}
		flushToTrace(cfg.Trace, cfg.Telemetry, r, cfg.Episode, st)
		if cfg.OnRound != nil {
			cfg.OnRound(st)
		}
	}
	res.Models = global
	return res, nil
}
