// Command petd is the resident control-plane daemon: it keeps the
// simulator, the training fleet, a trained policy and a versioned model
// store resident behind one HTTP listener, so experiments launch with a
// POST and new policies roll out with a promote instead of a restart.
//
// Usage:
//
//	petd                                      # lifecycle API + telemetry only
//	petd -addr :9090 -max-jobs 2              # two experiments simulate at once
//	petd -models pet.model -topo tiny         # also serve POST /infer
//	petd -store models/                       # versioned store: /models API, boot from "serving"
//	petd -store ckpt/                         # a pettrain -checkpoint directory is a store
//	petd -list-schemes                        # registered scheme names
//
// Endpoints:
//
//	POST   /experiments        launch a run or pretrain job (JSON ExperimentSpec)
//	GET    /experiments        list every job
//	GET    /experiments/{id}   inspect one job
//	GET    /experiments/{id}/models   download a finished pretrain bundle
//	DELETE /experiments/{id}   cancel (pretrain jobs checkpoint on the way out)
//	GET    /events             server-sent events: telemetry + job snapshots
//	POST   /infer              batched observations -> (Kmin, Kmax, Pmax) actions
//	POST   /models             ingest a candidate bundle (raw bytes or ?from=jobID)
//	GET    /models             versions, channels, live serving identity
//	GET    /models/{ref}       one version or channel (?download=1 for the bytes)
//	POST   /models/{ref}/promote   shadow-eval gate, then atomic hot-swap
//	GET    /healthz            liveness: daemon, model and store status
//	GET    /readyz             readiness: 503 + reason while degraded or saturated
//	GET    /version            build identity of the running daemon
//	GET    /metrics, /snapshot, /debug/pprof/...   the telemetry endpoints
//
// Watch a run live with `curl -N http://host:port/events`. SIGINT/SIGTERM
// shuts down gracefully: SSE streams get a shutdown event, running jobs are
// cancelled (pretrain jobs write a final checkpoint), and the listener
// drains within -drain.
//
// Stdout carries exactly one machine-parsable `addr=` line once the
// listener is bound (so scripts using -addr :0 can discover the port);
// progress and logs go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("petd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":9090", "listen address (\":0\" binds an ephemeral port, reported on stdout)")
		models   = fs.String("models", "", "serve POST /infer from this model bundle file (a pettrain -checkpoint directory goes to -store)")
		storeDir = fs.String("store", "", "versioned model store directory: enables the /models API and, without -models, boots /infer from the store's \"serving\" channel")
		keep     = fs.Int("keep-versions", 0, "store GC retention after each promotion (0 = 5; channel-pinned versions always survive)")
		topoF    = fs.String("topo", "tiny", "fabric the bundle was trained on: "+strings.Join(pet.TopoPresets(), "|"))
		schemeF  = fs.String("scheme", "PET", "scheme the promotion gate replays candidate and serving bundles under (see -list-schemes)")
		replicas = fs.Int("replicas", 0, "inference replica pool size = max concurrent /infer requests (0 = one per core)")
		maxJobs  = fs.Int("max-jobs", 1, "experiments simulating concurrently (excess queue as pending)")
		journalF = fs.String("journal", "", "durable job journal file: jobs survive a daemon death, interrupted pretrain jobs resume from their checkpoint")
		maxInfl  = fs.Int("max-inflight", 0, "admitted /infer requests in flight before shedding 429s (0 = 4096)")
		inferDl  = fs.Duration("infer-deadline", 0, "default server-side /infer budget when the client sends no ?deadline= (0 = 10s)")
		jobDl    = fs.Duration("job-deadline", 0, "hung-job watchdog: flag a pretrain job silent this long, cancel at twice it (0 = off)")
		sse      = fs.Duration("sse", time.Second, "default /events push interval (per-client ?interval= overrides)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful shutdown budget for jobs and connections")
		quiet    = fs.Bool("q", false, "suppress job progress on stderr")
	)
	var info pet.InfoFlags
	info.Register(fs, "list-schemes", "list-transports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if info.Handle(stdout) {
		return 0
	}

	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "petd: "+format+"\n", args...)
		return 1
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, "petd: "+format+"\n", args...)
		}
	}

	if st, err := os.Stat(*models); err == nil && st.IsDir() {
		return fatalf("-models takes a bundle file; %s is a directory — a pettrain -checkpoint directory is a model store, pass it to -store", *models)
	}

	reg := pet.NewTelemetry()
	inferOpts := pet.InferOptions{
		Topo:      *topoF,
		Replicas:  *replicas,
		Telemetry: reg,
	}

	// Boot is crash-only and degradation-tolerant: a store or bundle that
	// cannot load keeps the daemon up and NOT-ready (with the reason on
	// /readyz) instead of exiting — the /models ingest and promote path is
	// exactly how an operator repairs a daemon in that state.
	var pending string
	notReady := func(format string, args ...any) {
		pending = fmt.Sprintf(format, args...)
		logf("boot degraded: %s (daemon up, /readyz not ready)", pending)
	}

	var store *pet.ModelStore
	var err error
	if *storeDir != "" {
		if store, err = pet.OpenModelStore(*storeDir); err != nil {
			notReady("model store %s unusable: %v", *storeDir, err)
		} else {
			logf("model store %s (%d versions)", *storeDir, len(store.Versions()))
		}
	}

	// The boot bundle: the -models file, else the store's serving channel,
	// so a restarted daemon resumes serving the last promoted policy.
	var boot []byte
	bootName := *models
	if *models != "" {
		if boot, err = os.ReadFile(*models); err != nil {
			notReady("model bundle %s unusable: %v", *models, err)
		}
	} else if store != nil {
		if vi, bundle, err := store.Resolve(pet.ModelChannelServing); err == nil {
			boot, inferOpts.Version = bundle, vi.Version
			bootName = fmt.Sprintf("store version %d", vi.Version)
		} else {
			notReady("store %s has no serving version yet; ingest and promote a model", *storeDir)
		}
	}
	var infer *pet.InferService
	if boot != nil {
		if infer, err = pet.NewInferService(boot, inferOpts); err != nil {
			notReady("%s rejected: %v", bootName, err)
		} else {
			served := infer.Info()
			logf("serving %s (sha256 %.12s…, %d switches, %d replicas)",
				bootName, served.ModelSHA256, len(served.Switches), served.Replicas)
		}
	}

	// The journal is the one boot input that must be intact: it is the
	// durability contract, and mid-history corruption means operator action,
	// not a silent shrug. (A torn final line — the crash case — recovers.)
	var journal *pet.JobJournal
	if *journalF != "" {
		if journal, err = pet.OpenJobJournal(*journalF, logf); err != nil {
			return fatalf("job journal: %v", err)
		}
		if n := len(journal.Replayed()); n > 0 {
			logf("job journal %s: replayed %d job(s)", *journalF, n)
		}
	}

	cfg := pet.DaemonConfig{
		Telemetry:     reg,
		Infer:         infer,
		Store:         store,
		InferOpts:     inferOpts,
		KeepVersions:  *keep,
		SSEInterval:   *sse,
		MaxJobs:       *maxJobs,
		Journal:       journal,
		Admission:     pet.AdmissionConfig{MaxInFlight: *maxInfl, Deadline: *inferDl},
		Watchdog:      pet.WatchdogConfig{Deadline: *jobDl},
		PendingReason: pending,
		Logf:          logf,
	}
	cfg.Gate.Scheme = *schemeF
	daemon := pet.NewDaemon(cfg)
	srv, err := daemon.Start(*addr)
	if err != nil {
		return fatalf("listen: %v", err)
	}
	// The single machine-parsable line: the bound address.
	fmt.Fprintf(stdout, "addr=%s\n", srv.Addr)
	logf("listening on http://%s (/experiments, /events, /infer, /models, /healthz, /metrics)", srv.Addr)

	<-ctx.Done()
	logf("shutting down (budget %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := daemon.Shutdown(dctx, srv); err != nil {
		return fatalf("shutdown: %v", err)
	}
	logf("bye")
	return 0
}
