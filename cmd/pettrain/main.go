// Command pettrain runs PET's offline pre-training phase (Sec. 4.4.1) on a
// parallel rollout fleet and writes the resulting per-switch model bundle
// for later deployment.
//
// Usage:
//
//	pettrain -workload websearch -duration 200ms -out pet.model
//	pettrain -scenario scenarios/onoff-bursty.json -out pet.model
//	pettrain -workers 8 -rounds 20 -checkpoint ckpt/ -out pet.model
//	pettrain -workers 8 -rounds 40 -checkpoint ckpt/ -resume -out pet.model
//	pettrain -workers 4 -rounds 50 -telemetry :8080 -out pet.model
//	pettrain -workers 8 -retries 3 -episode-timeout 2m -quorum 6 -out pet.model
//	petsim -scheme PET -models pet.model
//	petd -store ckpt/                      # promote and serve the checkpointed rounds
//
// -duration is the simulated training time of one episode; every round each
// worker runs one episode and the learned weights are merged, so total
// simulated training is duration × workers × rounds. With -workers=1
// -rounds=1 (the default) the bundle is bit-identical to the historical
// sequential pre-training. -checkpoint names a model store directory: each
// round's merged bundle lands there as a new version on the "candidate"
// channel (the last three rounds keep their bytes), so -resume continues an
// interrupted run from it — falling back to an older round when the newest
// bundle is corrupt — and `petd -store` on the same directory promotes and
// serves what was trained. A resumed run must keep the checkpoint's -workers
// count (episode seeds derive from it); pass -allow-worker-change to
// override knowingly.
//
// -scenario loads a versioned scenario document (the same JSON petsim and
// petd accept) as the training environment: topology, workload, load,
// reward betas, perturbation events. Flags the user explicitly sets still
// override the document's fields, and the document's duration becomes the
// per-episode training time unless -duration is given.
//
// The trainer degrades instead of dying: a failed, panicking, or stuck
// episode retries up to -retries times (each attempt on a fresh
// deterministic seed), -episode-timeout bounds one attempt in wall-clock
// time, and -quorum lets a round merge with that many successful episodes
// instead of all of them (such rounds are flagged degraded). SIGINT/SIGTERM
// cancels the run gracefully: in-flight episodes drain, a final checkpoint
// covers the last completed round, and pettrain exits 130 with a -resume
// hint.
//
// -telemetry addr serves live metrics over HTTP while training: /metrics
// (Prometheus text format), /snapshot (JSON) and /debug/pprof (CPU/heap
// profiling). Telemetry is observation-only — the trained bundle is
// byte-identical with or without it. -tracecsv additionally writes one CSV
// row of metrics per completed round.
//
// Per-round progress and human-readable summaries go to stderr; stdout
// carries exactly one machine-parsable result line of key=value pairs,
// so scripts can pipe it without scraping progress text.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"pet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pettrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "pet.model", "output model bundle path")
		workers   = fs.Int("workers", 1, "parallel rollout workers (0 = all cores)")
		rounds    = fs.Int("rounds", 1, "synchronized merge rounds")
		ckpt      = fs.String("checkpoint", "", "checkpoint directory: a model store taking each round as a version (petd -store reads it)")
		resume    = fs.Bool("resume", false, "resume from the last checkpoint in -checkpoint")
		allowWC   = fs.Bool("allow-worker-change", false, "permit resuming with a different worker count (changes the training trajectory)")
		retries   = fs.Int("retries", 2, "per-episode retries after a failure, panic or blown deadline (fresh seed per attempt)")
		epTimeout = fs.Duration("episode-timeout", 0, "wall-clock deadline per episode attempt (0 = unbounded)")
		quorum    = fs.Int("quorum", 0, "minimum successful episodes to merge a round (0 = all workers; less marks the round degraded)")
		traceCSV  = fs.String("tracecsv", "", "write per-round telemetry as CSV to this file")
		quiet     = fs.Bool("q", false, "suppress per-round progress on stderr")
	)
	var sf pet.ScenarioFlags
	sf.Register(fs, "scenario", "topo", "workload", "load", "duration", "seed")
	// Here -duration is one training episode, pet.DefaultEpisode unless set.
	episodeF := fs.Lookup("duration")
	episodeF.Usage, episodeF.DefValue = "simulated training time per episode", pet.DefaultEpisode.String()
	_ = episodeF.Value.Set(episodeF.DefValue) // a valid duration literal
	var tf pet.TelemetryFlag
	tf.Register(fs)
	var info pet.InfoFlags
	info.Register(fs, "list-schemes", "list-transports", "list-workloads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if info.Handle(stdout) {
		return 0
	}

	fatalf := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "pettrain: "+format+"\n", args...)
		return code
	}

	spec, err := sf.Spec()
	if err != nil {
		return fatalf(2, "%v", err)
	}
	s, err := spec.ToScenario()
	if err != nil {
		return fatalf(2, "%v", err)
	}
	// The measurement window is the per-episode training time; a document
	// without one trains for pet.DefaultEpisode.
	episode := cmp.Or(s.Duration, pet.DefaultEpisode)

	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	cfg := pet.FleetConfig{
		Workers:           *workers,
		Rounds:            *rounds,
		Checkpoint:        *ckpt,
		Resume:            *resume,
		AllowWorkerChange: *allowWC,
		MaxRetries:        *retries,
		EpisodeTimeout:    *epTimeout,
		MinQuorum:         *quorum,
		// Retries, stragglers, degraded rounds and checkpoint fallbacks
		// are exceptional; surface them even under -q.
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "pettrain: "+format+"\n", a...)
		},
	}
	if *traceCSV != "" {
		// The CSV flush needs a registry even when nothing is served.
		tf.Registry = pet.NewTelemetry()
	}
	if err := tf.Start(func(format string, a ...any) {
		fmt.Fprintf(stderr, format+"\n", a...)
	}); err != nil {
		return fatalf(1, "telemetry: %v", err)
	}
	defer tf.Stop() // drain in-flight scrapes instead of snapping them
	cfg.Telemetry = tf.Registry
	var rec *pet.TraceRecorder
	if *traceCSV != "" {
		rec = pet.NewTraceRecorder(0)
		cfg.Trace = rec
	}
	if !*quiet {
		cfg.OnRound = func(r pet.FleetRound) {
			note := ""
			if r.Degraded {
				note = fmt.Sprintf(" [degraded: %d of %d slots failed]", r.Failed, *workers)
			}
			fmt.Fprintf(stderr, "round %d/%d: %d episodes, mean reward %.4f, %d PPO updates%s\n",
				r.Round+1, *rounds, r.Episodes, r.MeanReward, r.Updates, note)
		}
	}

	// SIGINT/SIGTERM cancels the run context: the fleet drains in-flight
	// episodes and writes a final checkpoint for the last completed round
	// instead of losing it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := pet.PretrainFleetContext(ctx, s, episode, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(stderr, "pettrain: interrupted: %v\n", err)
			if *ckpt != "" && res.Rounds > 0 {
				fmt.Fprintf(stderr, "pettrain: checkpoint covers %d completed round(s); rerun with -resume to continue\n", res.Rounds)
			}
			return 130
		}
		return fatalf(1, "%v", err)
	}
	stop() // training finished; restore default signal disposition
	if res.ResumedFrom > 0 {
		fmt.Fprintf(stderr, "resumed from checkpoint at round %d\n", res.ResumedFrom)
	}
	if err := os.WriteFile(*out, res.Models, 0o644); err != nil {
		return fatalf(1, "%v", err)
	}
	if rec != nil {
		f, err := os.Create(*traceCSV)
		if err == nil {
			err = rec.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fatalf(1, "tracecsv: %v", err)
		}
	}
	envLabel := "scenario " + sf.File
	if sf.File == "" {
		envLabel = spec.Topo.Preset + "/" + spec.Workload.Name
	}
	episodes := (res.Rounds - res.ResumedFrom) * cfg.Workers
	fmt.Fprintf(stderr, "trained %s: %d rounds (%d episodes of %v simulated time) in %v wall clock\n",
		envLabel, res.Rounds, episodes, time.Duration(episode/pet.Nanosecond)*time.Nanosecond, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stderr, "wrote %d bytes to %s\n", len(res.Models), *out)
	// The single machine-parsable result line.
	fmt.Fprintf(stdout, "rounds=%d episodes=%d resumed_from=%d cum_reward=%.6f retries=%d stragglers=%d degraded_rounds=%d model_bytes=%d out=%s\n",
		res.Rounds, episodes, res.ResumedFrom, res.CumReward, res.Retries, res.Stragglers, len(res.DegradedRounds), len(res.Models), *out)
	return 0
}
