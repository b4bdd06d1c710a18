package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"pet/internal/modelstore"
)

// The /models API: the daemon face of the versioned model store, closing
// the paper's train → eval → promote → serve loop. POST /models ingests a
// candidate bundle (raw bytes, or adopted from a finished pretrain job);
// POST /models/{ref}/promote runs the shadow-eval gate against the serving
// policy and, on a pass, hot-swaps the /infer replica pool and rolls the
// serving/previous channels forward. Every rejection path — unknown
// version, gate regression, corrupt or incompatible bundle — leaves the
// serving channel and pool untouched and answers with a typed error.

// errNoStore answers the model API when petd runs without -store.
var errNoStore = errors.New("serve: no model store configured (start petd with -store)")

// errNoModel answers /infer before any bundle is loaded or promoted.
var errNoModel = errors.New("serve: no model loaded (start petd with -models, or promote one via POST /models)")

// errAlreadyServing rejects promoting the version that is already serving.
var errAlreadyServing = errors.New("serve: version is already serving")

// maxBundleBytes bounds POST /models bodies. Paper-fabric bundles are a few
// MB; this leaves an order of magnitude of headroom.
const maxBundleBytes = 64 << 20

// ModelView is the JSON view of one stored version, with any channels
// currently naming it.
type ModelView struct {
	modelstore.VersionInfo
	Channels []string `json:"channels,omitempty"`
}

// modelListResponse is the GET /models document.
type modelListResponse struct {
	Serving  *ModelRef      `json:"serving,omitempty"` // what /infer answers with right now
	Channels map[string]int `json:"channels,omitempty"`
	Versions []ModelView    `json:"versions"`
}

// PromotionResult is the POST /models/{ref}/promote success document.
type PromotionResult struct {
	Promoted modelstore.VersionInfo `json:"promoted"`
	Previous int                    `json:"previous,omitempty"` // displaced serving version
	Report   GateReport             `json:"gate"`
	Removed  []int                  `json:"gc_removed,omitempty"` // versions collected after the rollover
}

// gateRejectResponse is the 409 body: the error line plus the full scored
// report, so a rejected candidate is debuggable from the API alone.
type gateRejectResponse struct {
	Error  string     `json:"error"`
	Report GateReport `json:"gate"`
}

// storeError maps a model-API error to its HTTP status: 404 for unknown
// versions/channels/jobs, 409 for gate rejections, 422 for bundles that
// exist but cannot serve (corrupt, gone, incompatible), 503 for a daemon
// without a store.
func storeStatus(err error) int {
	var gerr *GateError
	var serr *SwapError
	switch {
	case errors.Is(err, errNoStore), errors.Is(err, errNoModel):
		return http.StatusServiceUnavailable
	case errors.Is(err, modelstore.ErrVersionNotFound), errors.Is(err, modelstore.ErrChannelNotFound):
		return http.StatusNotFound
	case errors.As(err, &gerr), errors.Is(err, errAlreadyServing):
		return http.StatusConflict
	case errors.As(err, &serr),
		errors.Is(err, modelstore.ErrBundleCorrupt),
		errors.Is(err, modelstore.ErrBundleGone),
		errors.Is(err, modelstore.ErrEmptyBundle),
		errors.Is(err, modelstore.ErrBadChannel):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeModelError(w http.ResponseWriter, err error) {
	var gerr *GateError
	if errors.As(err, &gerr) {
		writeJSON(w, http.StatusConflict, gateRejectResponse{Error: err.Error(), Report: gerr.Report})
		return
	}
	writeError(w, storeStatus(err), err)
}

// resolveRef looks up a version by number ("3") or channel name
// ("serving"), returning its metadata and sha-verified bytes. The checksum
// is verified end to end — after the read lands in this process, not just
// inside the store — so a bundle corrupted anywhere between disk and the
// promote path is rejected before it can reach a replica pool. The chaos
// fault plan injects its store-read faults (delay, corruption) here.
func (s *Server) resolveRef(ref string) (modelstore.VersionInfo, []byte, error) {
	var vi modelstore.VersionInfo
	var bundle []byte
	var err error
	if v, aerr := strconv.Atoi(ref); aerr == nil {
		vi, bundle, err = s.store.Get(v)
	} else {
		vi, bundle, err = s.store.Resolve(ref)
	}
	if err != nil {
		return vi, nil, err
	}
	bundle = s.cfg.Faults.corruptBundle(bundle)
	if sum := sha256.Sum256(bundle); hex.EncodeToString(sum[:]) != vi.SHA256 {
		return vi, nil, fmt.Errorf("serve: version %d read back with the wrong checksum: %w",
			vi.Version, modelstore.ErrBundleCorrupt)
	}
	return vi, bundle, nil
}

// handleModelIngest is POST /models: store a candidate bundle. The body is
// the raw bundle bytes, or empty with ?from=<jobID> to adopt a finished
// pretrain job's output. ?channel names the version (default "candidate",
// "none" skips), ?note attaches a free-form annotation.
func (s *Server) handleModelIngest(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, errNoStore)
		return
	}
	q := r.URL.Query()
	var bundle []byte
	var source string
	if from := q.Get("from"); from != "" {
		models, ok := s.mgr.Models(from)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: no trained bundle for job %q", from))
			return
		}
		bundle, source = models, "job "+from
	} else {
		var err error
		bundle, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBundleBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading bundle body: %v", err))
			return
		}
		source = "api"
	}
	if len(bundle) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: empty bundle (POST raw bundle bytes, or ?from=<jobID>)"))
		return
	}
	vi, err := s.store.Put(bundle, source, q.Get("note"))
	if err != nil {
		s.writeModelError(w, err)
		return
	}
	channel := q.Get("channel")
	if channel == "" {
		channel = modelstore.ChannelCandidate
	}
	if channel != "none" {
		if err := s.store.SetChannel(channel, vi.Version); err != nil {
			s.writeModelError(w, fmt.Errorf("serve: stored as version %d but channel rejected: %w", vi.Version, err))
			return
		}
	}
	s.ingests.Inc()
	writeJSON(w, http.StatusCreated, s.modelView(vi))
}

// modelView decorates a version with the channels naming it.
func (s *Server) modelView(vi modelstore.VersionInfo) ModelView {
	mv := ModelView{VersionInfo: vi}
	for name, v := range s.store.Channels() {
		if v == vi.Version {
			mv.Channels = append(mv.Channels, name)
		}
	}
	sortStrings(mv.Channels)
	return mv
}

// handleModelList is GET /models: every version, channel map and the live
// serving identity.
func (s *Server) handleModelList(w http.ResponseWriter, _ *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, errNoStore)
		return
	}
	resp := modelListResponse{Channels: s.store.Channels(), Versions: []ModelView{}}
	for _, vi := range s.store.Versions() {
		resp.Versions = append(resp.Versions, s.modelView(vi))
	}
	if s.infer.loaded() {
		ref := s.infer.Model()
		resp.Serving = &ref
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleModelGet is GET /models/{ref}: metadata for a version number or
// channel name; ?download=1 streams the sha-verified bundle bytes instead.
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, errNoStore)
		return
	}
	ref := r.PathValue("ref")
	if r.URL.Query().Get("download") == "" {
		var vi modelstore.VersionInfo
		var err error
		if v, aerr := strconv.Atoi(ref); aerr == nil {
			vi, err = s.store.Info(v)
		} else {
			vi, err = s.store.Channel(ref)
		}
		if err != nil {
			s.writeModelError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.modelView(vi))
		return
	}
	vi, bundle, err := s.resolveRef(ref)
	if err != nil {
		s.writeModelError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Model-Version", strconv.Itoa(vi.Version))
	w.Header().Set("X-Model-Sha256", vi.SHA256)
	_, _ = w.Write(bundle)
}

// handleModelPromote is POST /models/{ref}/promote. An optional JSON body
// overrides the daemon's gate config (scheme, thresholds) for this one
// promotion; an empty body uses the default.
func (s *Server) handleModelPromote(w http.ResponseWriter, r *http.Request) {
	var gate *GateConfig
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading gate override: %v", err))
		return
	}
	if len(body) > 0 {
		gate = new(GateConfig)
		if err := decodeJSONStrict(body, gate); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	res, err := s.Promote(r.Context(), r.PathValue("ref"), gate)
	if err != nil {
		s.writeModelError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// Promote runs the full promotion pipeline for the version named by ref (a
// number or channel name): shadow-eval gate against the current serving
// bundle, atomic replica-pool rollover in the infer service, then the
// serving/previous channel moves and a store GC. gate (nil = the server
// default) overrides the gate config.
//
// Failure semantics: every error before the swap commits — unknown ref,
// corrupt bundle, gate regression (*GateError), incompatible pool
// (*SwapError) — leaves the serving channel, the infer pool and the store
// exactly as they were. Channel moves and GC run only after the new pool
// is live; an I/O error there is reported but cannot un-serve the model.
func (s *Server) Promote(ctx context.Context, ref string, gate *GateConfig) (PromotionResult, error) {
	if s.store == nil {
		return PromotionResult{}, errNoStore
	}
	// One promotion at a time: the gate's serving snapshot must still be
	// the serving model when the swap lands.
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()

	vi, bundle, err := s.resolveRef(ref)
	if err != nil {
		s.promoteRejects.Inc()
		return PromotionResult{}, err
	}

	var servingBundle []byte
	var previous int
	if svi, sb, serr := s.store.Resolve(modelstore.ChannelServing); serr == nil {
		servingBundle, previous = sb, svi.Version
		if previous == vi.Version {
			return PromotionResult{}, fmt.Errorf("%w (version %d)", errAlreadyServing, vi.Version)
		}
	} else if !errors.Is(serr, modelstore.ErrChannelNotFound) {
		// The serving channel exists but its bundle is unreadable; refuse to
		// gate against a phantom incumbent.
		s.promoteRejects.Inc()
		return PromotionResult{}, fmt.Errorf("serve: resolving serving incumbent: %w", serr)
	}

	gcfg := s.cfg.Gate
	if gate != nil {
		gcfg = *gate
	}
	if gcfg.Scheme == "" {
		gcfg.Scheme = s.cfg.Gate.Scheme
	}
	// The gate replays on the serving fabric.
	report, err := RunGate(ctx, gcfg, s.infer.opts.Topo, servingBundle, bundle)
	if err != nil {
		// A candidate that cannot even replay the shadow scenario (corrupt
		// or incompatible bundle) is the same rejection class as a failed
		// swap: typed, serving untouched.
		s.promoteRejects.Inc()
		return PromotionResult{Report: report}, &SwapError{Version: vi.Version, Cause: err}
	}
	if !report.Pass {
		s.promoteRejects.Inc()
		s.logf("promote: version %d rejected by gate: %v", vi.Version, report.Reasons)
		return PromotionResult{Report: report}, &GateError{Report: report}
	}

	// Commit point: roll the replica pool. In-flight batches finish on the
	// old version; the next lease sees the new one.
	if err := s.infer.Swap(bundle, vi.Version); err != nil {
		s.promoteRejects.Inc()
		return PromotionResult{Report: report}, err
	}

	res := PromotionResult{Promoted: vi, Previous: previous, Report: report}
	if previous != 0 {
		if err := s.store.SetChannel(modelstore.ChannelPrevious, previous); err != nil {
			return res, fmt.Errorf("serve: version %d is serving but channel move failed: %w", vi.Version, err)
		}
	}
	if err := s.store.SetChannel(modelstore.ChannelServing, vi.Version); err != nil {
		return res, fmt.Errorf("serve: version %d is serving but channel move failed: %w", vi.Version, err)
	}
	// A promoted candidate is a candidate no longer.
	if cv, err := s.store.Channel(modelstore.ChannelCandidate); err == nil && cv.Version == vi.Version {
		_ = s.store.DeleteChannel(modelstore.ChannelCandidate)
	}
	removed, err := s.store.GC(s.cfg.KeepVersions)
	if err != nil {
		return res, fmt.Errorf("serve: version %d is serving but GC failed: %w", vi.Version, err)
	}
	res.Removed = removed
	s.promotions.Inc()
	s.logf("promote: version %d serving (sha %.12s, previous %d, gc removed %v)", vi.Version, vi.SHA256, previous, removed)
	return res, nil
}
