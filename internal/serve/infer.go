package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pet/internal/core"
	"pet/internal/telemetry"
	"pet/internal/topo"
)

// The batched inference service: observations in, RED parameters out. This
// is the paper's deployment loop inverted into a server — instead of agents
// living on switches, thousands of switches poll the daemon every Δt with
// their latest NCM observation and install the (Kmin, Kmax, Pmax) they get
// back.
//
// Concurrency model: ppo agents share per-agent scratch and are not
// goroutine-safe, so the service decodes Replicas identical copies of the
// bundle's per-switch policies (core.NewInferenceAgents: the deployed
// actors alone, no simulated network behind them) and leases them through
// a buffered channel. One request leases one replica for its whole batch; leases
// bound concurrency naturally (a saturated pool queues requests instead of
// corrupting scratch). The per-batch hot path — lease, validate, forward
// passes, action translation — allocates nothing; JSON encode/decode at
// the HTTP boundary is the only steady-state allocator.
//
// Hot swap: the whole replica pool hangs off one atomic pointer. Swap
// builds and validates a complete replacement pool from the new bundle
// (validate-all-then-commit: a corrupt bundle fails construction and the
// serving pool is untouched), then publishes it with a single atomic
// store. A batch leases from whichever pool it loaded — an in-flight batch
// finishes on the old version, the next lease sees the new one, and every
// response reports the exact (version, sha256) that computed it, so a
// reply can never mix weights from two versions. Old pools drain
// naturally: leased replicas return to their own pool's channel, which is
// garbage-collected once the last lease lets go.

// ObsRequest is one switch's observation: the flattened HistoryK-slot
// feature vector its NCM maintains (ObsDim values).
type ObsRequest struct {
	Switch int       `json:"switch"`
	Obs    []float64 `json:"obs"`
}

// ECNAction is one switch's answer: the RED/ECN marking configuration the
// policy selects for that observation.
type ECNAction struct {
	Switch    int     `json:"switch"`
	KminBytes int     `json:"kmin_bytes"`
	KmaxBytes int     `json:"kmax_bytes"`
	Pmax      float64 `json:"pmax"`
}

// InferRequest is the wire format of POST /infer.
type InferRequest struct {
	Requests []ObsRequest `json:"requests"`
}

// InferResponse is the answer: Actions[i] corresponds to Requests[i], all
// computed by the single model identified by (ModelVersion, ModelSHA256).
type InferResponse struct {
	ModelVersion int         `json:"model_version"`
	ModelSHA256  string      `json:"model_sha256"`
	Actions      []ECNAction `json:"actions"`
}

// ModelRef identifies the exact model that answered a batch: the store
// version number (0 = an unversioned boot bundle) and the bundle digest.
type ModelRef struct {
	Version int    `json:"version"`
	SHA256  string `json:"sha256"`
}

// InferInfo describes a loaded inference service (GET /healthz).
type InferInfo struct {
	ModelVersion int    `json:"model_version"`
	ModelSHA256  string `json:"model_sha256"`
	Switches     []int  `json:"switches"`
	ObsDim       int    `json:"obs_dim"`
	Replicas     int    `json:"replicas"`
	MaxBatch     int    `json:"max_batch"`
	Swaps        uint64 `json:"swaps"`
}

// InferOptions parameterizes NewInferService.
type InferOptions struct {
	// Topo names the fabric the service serves (a topo preset name, default
	// tiny). It alone fixes the serving contract — the switch set and the
	// observation width — so every bundle installed must have been trained
	// on it.
	Topo string
	// Replicas is the replica pool size, the service's maximum request
	// concurrency (0 = one per core, minimum 2).
	Replicas int
	// MaxBatch bounds observations per request (0 = 4096).
	MaxBatch int
	// Version is the model-store version of the boot bundle, surfaced in
	// every response (0 = unversioned, e.g. a raw -models file).
	Version int
	// Telemetry (nil ok) receives the petd_infer_* series.
	Telemetry *telemetry.Registry
	// Faults (nil ok) injects deterministic replica panics for chaos tests.
	Faults *FaultPlan
}

// replica is one single-threaded inference lane: the bundle's per-switch
// policies, decoded on their own.
type replica struct {
	agents map[topo.NodeID]*core.SwitchAgent
	acts   []int // action-head scratch, reused across the batch
}

// modelPool is one model version's complete serving state: immutable after
// construction, published wholesale through InferService.cur. The bundle is
// retained so a replica poisoned by a panic can be rebuilt in place. Every
// pool of one service has the same switch set and observation width: both
// follow from the service's fabric.
type modelPool struct {
	version   int
	sha       string
	bundle    []byte
	replicas  chan *replica
	obsDim    int
	switches  []int
	switchSet map[int]bool // membership view of switches, for pre-lease validation
}

// ErrOverloaded reports a request that could not lease a replica within its
// deadline: the pool is saturated (or hung) and the request was shed rather
// than queued indefinitely. The API layer maps it to 503 + Retry-After.
var ErrOverloaded = errors.New("serve: inference pool overloaded")

// ReplicaPanicError reports a batch whose compute panicked. The panic was
// recovered, the poisoned replica discarded and a fresh one rebuilt from the
// serving bundle, so the pool stays whole; only this batch is lost. The API
// layer maps it to 500 and feeds the circuit breaker.
type ReplicaPanicError struct {
	Version int    // model version that was computing
	Panic   string // the recovered panic value
}

func (e *ReplicaPanicError) Error() string {
	return fmt.Sprintf("serve: inference replica panicked (model version %d, replica recycled): %s", e.Version, e.Panic)
}

// SwapError reports a rejected hot swap: the candidate bundle failed to
// load for the service's fabric, and the serving pool was left untouched.
// Matchable with errors.As; Unwrap exposes the cause.
type SwapError struct {
	Version int   // store version of the rejected candidate (0 = unversioned)
	Cause   error // why construction or validation failed
}

func (e *SwapError) Error() string {
	return fmt.Sprintf("serve: hot swap to model version %d rejected (serving pool unchanged): %v", e.Version, e.Cause)
}

func (e *SwapError) Unwrap() error { return e.Cause }

// InferService answers observation batches from a pool of replicas decoded
// from one model bundle, hot-swappable to a new bundle without dropping a
// request. A service with no model yet answers every batch with errNoModel.
type InferService struct {
	opts InferOptions // normalized; reused by Swap

	cur       atomic.Pointer[modelPool] // nil until the first model lands
	swapMu    sync.Mutex                // serializes Swap; Infer never takes it
	swapCount atomic.Uint64

	requests, observations, errors *telemetry.Counter
	swaps, swapFailures            *telemetry.Counter
	replicaPanics                  *telemetry.Counter
	servingVersion                 *telemetry.Gauge
	batchObs                       *telemetry.Histogram
}

// NewInferService builds a service for opts.Topo and installs bundle (as
// written by pettrain or held in the model store) through Swap: every
// replica decodes the bundle's per-switch policies, so a corrupt bundle, or
// one trained on another fabric, fails construction, never a request. The
// error is the rejected install's cause.
func NewInferService(bundle []byte, opts InferOptions) (*InferService, error) {
	s := newInferService(opts)
	if err := s.Swap(bundle, opts.Version); err != nil {
		return nil, errors.Unwrap(err)
	}
	return s, nil
}

// newInferService returns a service with no model: /infer answers
// errNoModel until Swap installs the first bundle.
func newInferService(opts InferOptions) *InferService {
	if opts.Topo == "" {
		opts.Topo = "tiny"
	}
	if opts.Replicas <= 0 {
		opts.Replicas = runtime.NumCPU()
		if opts.Replicas < 2 {
			opts.Replicas = 2
		}
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 4096
	}
	return &InferService{
		opts:           opts,
		requests:       opts.Telemetry.Counter("petd_infer_requests_total"),
		observations:   opts.Telemetry.Counter("petd_infer_observations_total"),
		errors:         opts.Telemetry.Counter("petd_infer_errors_total"),
		swaps:          opts.Telemetry.Counter("petd_infer_swaps_total"),
		swapFailures:   opts.Telemetry.Counter("petd_infer_swap_failures_total"),
		replicaPanics:  opts.Telemetry.Counter("serve_replica_panics_total"),
		servingVersion: opts.Telemetry.Gauge("petd_infer_serving_version"),
		batchObs:       opts.Telemetry.Histogram("petd_infer_batch_obs", telemetry.ExpBuckets(1, 2, 13)),
	}
}

// newReplica decodes one inference lane from a bundle.
func (s *InferService) newReplica(bundle []byte) (*replica, error) {
	fabric, err := topo.Preset(s.opts.Topo)
	if err != nil {
		return nil, err
	}
	agents, err := core.NewInferenceAgents(fabric, bundle)
	if err != nil {
		return nil, fmt.Errorf("serve: assembling inference replica: %w", err)
	}
	r := &replica{
		agents: make(map[topo.NodeID]*core.SwitchAgent, len(agents)),
		acts:   make([]int, len(agents[0].Policy().Config().Heads)),
	}
	for _, a := range agents {
		r.agents[a.Switch] = a
	}
	return r, nil
}

// buildPool assembles a complete replica pool for one bundle.
func (s *InferService) buildPool(bundle []byte, version int) (*modelPool, error) {
	if len(bundle) == 0 {
		return nil, fmt.Errorf("serve: empty model bundle")
	}
	sum := sha256.Sum256(bundle)
	pool := &modelPool{
		version:   version,
		sha:       hex.EncodeToString(sum[:]),
		bundle:    bundle,
		replicas:  make(chan *replica, s.opts.Replicas),
		switchSet: map[int]bool{},
	}
	for i := 0; i < s.opts.Replicas; i++ {
		r, err := s.newReplica(bundle)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			for sw, a := range r.agents {
				pool.switches = append(pool.switches, int(sw))
				pool.switchSet[int(sw)] = true
				pool.obsDim = a.Policy().Config().ObsDim
			}
			sort.Ints(pool.switches)
		}
		pool.replicas <- r
	}
	return pool, nil
}

// Swap installs bundle (store version number `version`) as the serving
// model: the one way any model reaches the service, the first included. It
// builds and validates a complete replica pool, then publishes it in one
// atomic store; in-flight batches finish on the old pool and the next lease
// sees the new one. Only replacing a serving pool counts as a swap. On any
// failure — empty or corrupt bundle, or one trained on another fabric — the
// serving pool is untouched and the returned error is a *SwapError wrapping
// the cause. Safe to call concurrently with Infer; concurrent Swaps
// serialize.
func (s *InferService) Swap(bundle []byte, version int) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	pool, err := s.buildPool(bundle, version)
	if err != nil {
		s.swapFailures.Inc()
		return &SwapError{Version: version, Cause: err}
	}
	if s.cur.Swap(pool) != nil {
		s.swapCount.Add(1)
		s.swaps.Inc()
	}
	s.servingVersion.Set(float64(version))
	return nil
}

// loaded reports whether a model is serving.
func (s *InferService) loaded() bool { return s.cur.Load() != nil }

// Model returns the identity of the currently serving model (zero before
// the first model lands).
func (s *InferService) Model() ModelRef {
	p := s.cur.Load()
	if p == nil {
		return ModelRef{}
	}
	return ModelRef{Version: p.version, SHA256: p.sha}
}

// ModelSHA256 returns the hex digest of the currently serving bundle.
func (s *InferService) ModelSHA256() string { return s.Model().SHA256 }

// Info describes the service.
func (s *InferService) Info() InferInfo {
	info := InferInfo{Replicas: s.opts.Replicas, MaxBatch: s.opts.MaxBatch, Swaps: s.swapCount.Load()}
	if p := s.cur.Load(); p != nil {
		info.ModelVersion, info.ModelSHA256 = p.version, p.sha
		info.Switches, info.ObsDim = p.switches, p.obsDim
	}
	return info
}

// Infer answers one batch with no deadline; see InferContext.
func (s *InferService) Infer(reqs []ObsRequest, out []ECNAction) (ModelRef, error) {
	return s.InferContext(context.Background(), reqs, out)
}

// InferContext answers one batch: out[i] receives the action for reqs[i],
// and out must be at least len(reqs) long. The returned ModelRef identifies
// the single model version that computed every action in the batch — a swap
// landing mid-batch takes effect at the next lease, never inside one. The
// batch is validated before a replica is leased, so an invalid request
// never consumes pool capacity; the computation itself allocates nothing.
//
// ctx bounds the replica lease: a pool still saturated at the deadline
// sheds the request with an error wrapping ErrOverloaded instead of queuing
// it indefinitely. A panic inside the compute is recovered and reported as
// a *ReplicaPanicError; the poisoned replica is discarded and a fresh one
// rebuilt from the serving bundle before the call returns, so one bad batch
// never shrinks the pool. Safe for concurrent use — each call leases one
// replica for its duration.
func (s *InferService) InferContext(ctx context.Context, reqs []ObsRequest, out []ECNAction) (ModelRef, error) {
	s.requests.Inc()
	// One atomic load pins the batch to one model version: lease, compute
	// and report all against the same pool.
	p := s.cur.Load()
	if p == nil {
		s.errors.Inc()
		return ModelRef{}, errNoModel
	}
	ref := ModelRef{Version: p.version, SHA256: p.sha}
	if len(reqs) == 0 {
		s.errors.Inc()
		return ref, fmt.Errorf("serve: empty inference batch")
	}
	if len(reqs) > s.opts.MaxBatch {
		s.errors.Inc()
		return ref, fmt.Errorf("serve: batch of %d observations exceeds the %d maximum", len(reqs), s.opts.MaxBatch)
	}
	if len(out) < len(reqs) {
		s.errors.Inc()
		return ref, fmt.Errorf("serve: output scratch holds %d actions, batch has %d", len(out), len(reqs))
	}
	for i := range reqs {
		req := &reqs[i]
		if !p.switchSet[req.Switch] {
			s.errors.Inc()
			return ref, fmt.Errorf("serve: request %d: no agent for switch %d (serving switches %v)",
				i, req.Switch, p.switches)
		}
		if len(req.Obs) != p.obsDim {
			s.errors.Inc()
			return ref, fmt.Errorf("serve: request %d: switch %d observation has %d values, want %d",
				i, req.Switch, len(req.Obs), p.obsDim)
		}
	}

	var r *replica
	select {
	case r = <-p.replicas:
	case <-ctx.Done():
		s.errors.Inc()
		return ref, fmt.Errorf("%w: no replica free within the request deadline", ErrOverloaded)
	}
	err := s.computeBatch(r, reqs, out)
	if err != nil {
		s.errors.Inc()
		var rp *ReplicaPanicError
		if errors.As(err, &rp) {
			rp.Version = p.version
			s.recycle(p) // the poisoned replica is dropped; restore capacity
			return ref, err
		}
		p.replicas <- r
		return ref, err
	}
	p.replicas <- r
	s.observations.Add(uint64(len(reqs)))
	s.batchObs.Observe(float64(len(reqs)))
	return ref, nil
}

// computeBatch runs the forward passes on one leased replica, converting a
// panic — a bug or an injected fault — into a *ReplicaPanicError instead of
// taking the daemon down.
func (s *InferService) computeBatch(r *replica, reqs []ObsRequest, out []ECNAction) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &ReplicaPanicError{Panic: fmt.Sprint(p)}
		}
	}()
	if s.opts.Faults.panicsBatch() {
		panic("injected replica fault")
	}
	for i := range reqs {
		req := &reqs[i]
		cfg, ierr := r.agents[topo.NodeID(req.Switch)].InferECN(req.Obs, r.acts)
		if ierr != nil { // unreachable post-validation; belt and braces
			return ierr
		}
		out[i] = ECNAction{
			Switch:    req.Switch,
			KminBytes: cfg.KminBytes,
			KmaxBytes: cfg.KmaxBytes,
			Pmax:      cfg.Pmax,
		}
	}
	return nil
}

// recycle rebuilds one replica from the pool's own bundle after a panic
// poisoned a lane. The bundle already validated at pool construction, so a
// rebuild failure here is a programming error worth surfacing as a counter,
// not a reason to block; the pool then runs one lane short.
func (s *InferService) recycle(p *modelPool) {
	s.replicaPanics.Inc()
	r, err := s.newReplica(p.bundle)
	if err != nil {
		return
	}
	p.replicas <- r
}
