package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"pet/internal/buildinfo"
	"pet/internal/modelstore"
	"pet/internal/telemetry"
)

// Config parameterizes a Server.
type Config struct {
	// Telemetry is the registry every job instruments and the SSE stream
	// snapshots (nil = a fresh private registry).
	Telemetry *telemetry.Registry
	// Infer (nil ok) serves POST /infer from boot. Without it the server
	// builds a service with no model from InferOpts, and the endpoint
	// answers 503 until a model is promoted through the store, so pollers
	// can distinguish "no model loaded" from "bad daemon".
	Infer *InferService
	// Store (nil ok) is the versioned model store behind the /models API:
	// ingest, channels, shadow-eval gating and promotion. Without it the
	// /models endpoints answer 503.
	Store *modelstore.Store
	// InferOpts parameterizes the service the server builds itself when
	// Infer is nil; its Telemetry and Faults are the server's.
	InferOpts InferOptions
	// Gate is the default shadow-eval config for promotions; a promotion
	// request may override it per call, and an override that names no
	// scheme replays this one.
	Gate GateConfig
	// KeepVersions is the store GC retention applied after each promotion
	// (0 = the store default of 5). Channel-pinned versions — serving,
	// previous, candidate — always survive.
	KeepVersions int
	// SSEInterval is the default /events push period (0 = 1s).
	SSEInterval time.Duration
	// MaxJobs bounds concurrently simulating experiments (0 = 1).
	MaxJobs int
	// Logf (nil = silent) receives one line per job state change.
	Logf func(format string, a ...any)
	// Journal (nil ok) is the durable job journal, pre-opened with
	// OpenJournal so replay errors surface before the server exists. New
	// adopts every replayed job: terminal jobs reappear as records, jobs
	// the previous process left mid-flight are journaled interrupted, and
	// interrupted pretrain jobs with a checkpoint directory resume under
	// their original IDs.
	Journal *Journal
	// Admission bounds the /infer admission queue, its deadlines, shed
	// policy and circuit breaker (zero value = defaults; see
	// AdmissionConfig).
	Admission AdmissionConfig
	// Watchdog enables the hung-job watchdog (zero value = disabled).
	Watchdog WatchdogConfig
	// PendingReason, when nonempty, boots the daemon not-ready: /readyz
	// answers 503 with this reason until a model is loaded or promoted.
	// It is how a failed boot-time bundle load degrades gracefully instead
	// of exiting.
	PendingReason string
	// Faults (nil ok) injects deterministic serve-layer faults for chaos
	// tests; threaded into pretrain jobs, store reads and — for the
	// inference service the server builds itself — inference batches.
	Faults *FaultPlan
}

// Server is the resident control plane: experiment lifecycle, SSE telemetry,
// batched inference and the versioned model store behind one http.Handler.
type Server struct {
	cfg   Config
	reg   *telemetry.Registry
	mgr   *Manager
	store *modelstore.Store
	logf  func(format string, a ...any)

	// infer is the inference service, with or without a model; every
	// promotion installs through its Swap.
	infer *InferService

	// promoteMu serializes promotions end to end (gate → swap → channel
	// moves → GC); /infer traffic never takes it.
	promoteMu sync.Mutex

	// admit and brk guard POST /infer: bounded admission with watermark
	// hysteresis, and a circuit breaker fed by replica failures.
	admit *admission
	brk   *breaker

	done      chan struct{} // closed by Shutdown before the HTTP drain
	closeOnce sync.Once

	sseClients                          *telemetry.Gauge
	ingests, promotions, promoteRejects *telemetry.Counter
}

// New assembles a server from its config.
func New(cfg Config) *Server {
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	if cfg.SSEInterval <= 0 {
		cfg.SSEInterval = time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Infer == nil {
		cfg.InferOpts.Telemetry, cfg.InferOpts.Faults = cfg.Telemetry, cfg.Faults
		cfg.Infer = newInferService(cfg.InferOpts)
	}
	s := &Server{
		cfg:            cfg,
		reg:            cfg.Telemetry,
		mgr:            NewManager(cfg.MaxJobs, cfg.Telemetry, cfg.Logf),
		store:          cfg.Store,
		logf:           logf,
		infer:          cfg.Infer,
		admit:          newAdmission(cfg.Admission, cfg.Telemetry),
		brk:            newBreaker(cfg.Admission, cfg.Telemetry, nil),
		done:           make(chan struct{}),
		sseClients:     cfg.Telemetry.Gauge("petd_sse_clients"),
		ingests:        cfg.Telemetry.Counter("petd_models_ingested_total"),
		promotions:     cfg.Telemetry.Counter("petd_models_promoted_total"),
		promoteRejects: cfg.Telemetry.Counter("petd_models_promote_rejected_total"),
	}
	// Register the robustness series up front so they are present (zero) in
	// /metrics even before anything trips them.
	cfg.Telemetry.Counter("serve_replica_panics_total")
	cfg.Telemetry.Counter("job_watchdog_trips_total")
	// Finished pretrain jobs publish into the same store (spec.publish).
	s.mgr.store = cfg.Store
	s.mgr.faults = cfg.Faults
	if cfg.Journal != nil {
		s.mgr.journal = cfg.Journal
		s.mgr.adoptReplayed(cfg.Journal.Replayed())
	}
	if cfg.Watchdog.Deadline > 0 {
		startWatchdog(cfg.Watchdog, s.mgr, cfg.Telemetry, logf, s.done)
	}
	return s
}

// Jobs exposes the job manager (tests and embedders).
func (s *Server) Jobs() *Manager { return s.mgr }

// Infer exposes the inference service; its Model is zero until a model is
// loaded or promoted.
func (s *Server) Infer() *InferService { return s.infer }

// Handler routes the control-plane API. Anything outside the API namespace
// falls through to the telemetry handler, so one listener serves
// /experiments, /events, /infer and /models alongside /metrics, /snapshot
// and /debug/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /experiments", s.handleLaunch)
	mux.HandleFunc("GET /experiments", s.handleList)
	mux.HandleFunc("GET /experiments/{id}", s.handleGet)
	mux.HandleFunc("GET /experiments/{id}/models", s.handleModels)
	mux.HandleFunc("DELETE /experiments/{id}", s.handleCancel)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("POST /infer", s.handleInfer)
	mux.HandleFunc("POST /models", s.handleModelIngest)
	mux.HandleFunc("GET /models", s.handleModelList)
	mux.HandleFunc("GET /models/{ref}", s.handleModelGet)
	mux.HandleFunc("POST /models/{ref}/promote", s.handleModelPromote)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.Handle("/", telemetry.Handler(s.reg))
	return mux
}

// Start binds addr (e.g. ":8080" or ":0") and serves Handler in a
// background goroutine with the repo's hardened listener settings. Stop the
// returned server through Server.Shutdown, not http.Server.Shutdown, so SSE
// streams say goodbye instead of pinning the drain.
func (s *Server) Start(addr string) (*http.Server, error) {
	return telemetry.ServeHandler(addr, s.Handler())
}

// Shutdown drains the control plane: it releases SSE streams (they hold
// connections open indefinitely and would otherwise pin http.Server.Shutdown
// until its deadline), cancels every live job and waits for the drain —
// pre-training jobs write their final checkpoint on the way out — then
// gracefully stops the HTTP server (nil ok) within what remains of ctx.
func (s *Server) Shutdown(ctx context.Context, srv *http.Server) error {
	s.closeOnce.Do(func() { close(s.done) })
	err := s.mgr.Shutdown(ctx)
	if srv != nil {
		if herr := srv.Shutdown(ctx); herr != nil {
			_ = srv.Close()
			if err == nil {
				err = herr
			}
		}
	}
	return err
}

// writeJSON answers one API request.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// maxBodyBytes bounds API request bodies; specs and observation batches for
// the paper fabric fit comfortably under it.
const maxBodyBytes = 8 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %v", err)
	}
	return nil
}

// decodeJSONStrict decodes an already-read body with the same strictness as
// decodeBody.
func decodeJSONStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %v", err)
	}
	return nil
}

func sortStrings(s []string) { sort.Strings(s) }

func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	var spec ExperimentSpec
	if err := decodeBody(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.mgr.Launch(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errShuttingDown) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleModels downloads a finished pretrain job's trained bundle, ready to
// feed back into petd -models or petsim -models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	models, ok := s.mgr.Models(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no trained bundle for job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(models)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, alreadyTerminal, ok := s.mgr.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return
	}
	if alreadyTerminal {
		// Idempotent and stable: re-cancelling a finished job is a conflict
		// carrying the terminal status, identical on every retry.
		writeJSON(w, http.StatusConflict, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	svc := s.infer
	if !svc.loaded() {
		writeError(w, http.StatusServiceUnavailable, errNoModel)
		return
	}
	if !s.brk.allow() {
		s.admit.shed.Inc()
		s.admit.retryAfterHeader(w.Header())
		writeError(w, http.StatusServiceUnavailable, errBreakerOpen)
		return
	}
	if !s.admit.enter() {
		s.brk.release()
		s.admit.retryAfterHeader(w.Header())
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("serve: admission queue full (%d in flight)", s.admit.cfg.MaxInFlight))
		return
	}
	defer s.admit.leave()
	var req InferRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.brk.release()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The server-side budget: the client's ?deadline= clamped to the
	// configured maximum, or the default. It bounds the replica lease, so a
	// saturated pool sheds instead of queuing forever.
	ctx, cancel := context.WithTimeout(r.Context(), s.admit.budget(r.URL.Query().Get("deadline")))
	defer cancel()
	resp := InferResponse{Actions: make([]ECNAction, len(req.Requests))}
	ref, err := svc.InferContext(ctx, req.Requests, resp.Actions)
	resp.ModelVersion, resp.ModelSHA256 = ref.Version, ref.SHA256
	if err != nil {
		var rp *ReplicaPanicError
		switch {
		case errors.As(err, &rp):
			// A server-side replica failure: feeds the breaker.
			s.brk.failure()
			writeError(w, http.StatusInternalServerError, err)
		case errors.Is(err, ErrOverloaded):
			s.brk.release()
			s.admit.shed.Inc()
			s.admit.retryAfterHeader(w.Header())
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			// Client errors never move the breaker.
			s.brk.release()
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	s.brk.success()
	writeJSON(w, http.StatusOK, resp)
}

// StoreInfo summarizes the model store for GET /healthz.
type StoreInfo struct {
	Dir      string         `json:"dir"`
	Versions int            `json:"versions"`
	Channels map[string]int `json:"channels,omitempty"`
}

// healthzResponse is the GET /healthz document.
type healthzResponse struct {
	Status string     `json:"status"`
	Jobs   int        `json:"jobs"`
	Infer  *InferInfo `json:"infer,omitempty"`
	Store  *StoreInfo `json:"store,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := healthzResponse{Status: "ok", Jobs: len(s.mgr.List())}
	if s.infer.loaded() {
		info := s.infer.Info()
		resp.Infer = &info
	}
	if s.store != nil {
		resp.Store = &StoreInfo{
			Dir:      s.store.Dir(),
			Versions: len(s.store.Versions()),
			Channels: s.store.Channels(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// readyzResponse is the GET /readyz document. Liveness and readiness are
// deliberately split: /healthz says "the process is up", /readyz says "send
// me traffic" — a booting, degraded or saturated daemon is alive but not
// ready, and a load balancer must be able to tell the difference.
type readyzResponse struct {
	Ready      bool     `json:"ready"`
	Reasons    []string `json:"reasons,omitempty"`
	QueueDepth int      `json:"queue_depth"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := readyzResponse{QueueDepth: s.admit.queueDepth()}
	select {
	case <-s.done:
		resp.Reasons = append(resp.Reasons, "shutting down")
	default:
	}
	// A daemon that booted degraded (failed bundle load, empty serving
	// channel, unreachable store) carries its reason until a model lands.
	if s.cfg.PendingReason != "" && !s.infer.loaded() {
		resp.Reasons = append(resp.Reasons, s.cfg.PendingReason)
	}
	if s.admit.overWatermark() {
		resp.Reasons = append(resp.Reasons,
			fmt.Sprintf("infer queue above high watermark (%d in flight)", resp.QueueDepth))
	}
	resp.Ready = len(resp.Reasons) == 0
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// handleVersion is GET /version: the build identity of the running daemon.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, buildinfo.Read())
}
