package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pet/internal/bench"
	"pet/internal/modelstore"
	"pet/internal/sim"
	"pet/internal/topo"
)

// testBundle2 is a second, distinct trained bundle (different seed and
// horizon), shared across the swap and promotion tests.
var testBundle2 = sync.OnceValues(func() ([]byte, error) {
	t, err := topo.Preset("tiny")
	if err != nil {
		return nil, err
	}
	return bench.PretrainPET(bench.Scenario{Topo: t, Load: 0.5, Seed: 7}, 8*sim.Millisecond)
})

func mustBundle2(tb testing.TB) []byte {
	tb.Helper()
	bundle, err := testBundle2()
	if err != nil {
		tb.Fatalf("pre-training second test bundle: %v", err)
	}
	return bundle
}

// expectedActions computes the in-process reference answer for one bundle.
func expectedActions(tb testing.TB, bundle []byte, reqs []ObsRequest) []ECNAction {
	tb.Helper()
	ctl := directController(tb, bundle)
	acts := make([]int, len(ctl.Config().Heads()))
	out := make([]ECNAction, len(reqs))
	for i, r := range reqs {
		cfg, err := ctl.AgentBySwitch(topo.NodeID(r.Switch)).InferECN(r.Obs, acts)
		if err != nil {
			tb.Fatalf("reference InferECN: %v", err)
		}
		out[i] = ECNAction{Switch: r.Switch, KminBytes: cfg.KminBytes, KmaxBytes: cfg.KmaxBytes, Pmax: cfg.Pmax}
	}
	return out
}

// lenientGate passes any loadable candidate; forceFailGate demands
// impossible improvement, so it deterministically rejects any candidate
// when an incumbent exists.
var (
	lenientGate   = GateConfig{MaxSlowdownRegress: 1000, MaxMarkRegress: 1000, MaxRewardDrop: 1000}
	forceFailGate = GateConfig{MaxSlowdownRegress: -0.999, MaxMarkRegress: -0.999, MaxRewardDrop: -0.999}
)

// TestSwapParityConcurrent is the hot-swap acceptance check: ≥100
// concurrent HTTP pollers hammer /infer while the service swaps between
// two model versions, and every single response must be byte-identical to
// in-process inference with exactly one of the two versions — the reported
// (version, sha) always matching the actions, never a torn mix.
func TestSwapParityConcurrent(t *testing.T) {
	bundleA, bundleB := mustBundle(t), mustBundle2(t)
	svc, err := NewInferService(bundleA, InferOptions{Replicas: 4, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Infer: svc})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	info := svc.Info()
	rng := rand.New(rand.NewSource(11))
	reqs := make([]ObsRequest, len(info.Switches))
	for i, sw := range info.Switches {
		reqs[i] = ObsRequest{Switch: sw, Obs: randObs(rng, info.ObsDim)}
	}
	wantA := expectedActions(t, bundleA, reqs)
	wantB := expectedActions(t, bundleB, reqs)
	if slices.Equal(wantA, wantB) {
		t.Log("warning: both bundles answer identically on this probe; torn-mix check loses power")
	}
	// The swap schedule below alternates A and B: odd versions serve A.
	want := map[int][]ECNAction{}
	const lastVersion = 6
	for v := 1; v <= lastVersion; v++ {
		if v%2 == 1 {
			want[v] = wantA
		} else {
			want[v] = wantB
		}
	}

	payload, err := json.Marshal(InferRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 128,
	}}

	const pollers = 100
	stop := make(chan struct{})
	errc := make(chan error, pollers)
	var seen sync.Map // version → struct{}
	var wg sync.WaitGroup
	for g := 0; g < pollers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(ts.URL+"/infer", "application/json", bytes.NewReader(payload))
				if err != nil {
					errc <- err
					return
				}
				var got InferResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				expect, ok := want[got.ModelVersion]
				if !ok {
					errc <- fmt.Errorf("response reports unknown model version %d", got.ModelVersion)
					return
				}
				if sha := shaFor(got.ModelVersion, bundleA, bundleB); got.ModelSHA256 != sha {
					errc <- fmt.Errorf("version %d reported sha %.12s, want %.12s", got.ModelVersion, got.ModelSHA256, sha)
					return
				}
				if !slices.Equal(got.Actions, expect) {
					errc <- fmt.Errorf("torn response: version %d actions %v, want %v", got.ModelVersion, got.Actions, expect)
					return
				}
				seen.Store(got.ModelVersion, struct{}{})
			}
		}()
	}

	// Swap under load: five rollovers, alternating bundles.
	for v := 2; v <= lastVersion; v++ {
		time.Sleep(15 * time.Millisecond)
		bundle := bundleA
		if v%2 == 0 {
			bundle = bundleB
		}
		if err := svc.Swap(bundle, v); err != nil {
			t.Fatalf("swap to version %d: %v", v, err)
		}
	}
	time.Sleep(15 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// After the dust settles the service must serve exactly the last version.
	if ref := svc.Model(); ref.Version != lastVersion {
		t.Fatalf("final version %d, want %d", ref.Version, lastVersion)
	}
	out := make([]ECNAction, len(reqs))
	ref, err := svc.Infer(reqs, out)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Version != lastVersion || !slices.Equal(out, want[lastVersion]) {
		t.Fatalf("post-swap inference served version %d", ref.Version)
	}
	versions := 0
	seen.Range(func(any, any) bool { versions++; return true })
	if versions < 2 {
		t.Errorf("pollers observed %d version(s); expected the swap to be visible under load", versions)
	}
	if got := svc.Info().Swaps; got != lastVersion-1 {
		t.Errorf("swap counter = %d, want %d", got, lastVersion-1)
	}
}

// shaFor maps a swap-schedule version to its bundle digest.
func shaFor(version int, bundleA, bundleB []byte) string {
	b := bundleA
	if version%2 == 0 {
		b = bundleB
	}
	return bundleSHA(b)
}

func bundleSHA(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSwapRejectedLeavesServing: a corrupt or incompatible candidate must
// fail Swap with a *SwapError and leave the serving pool answering exactly
// as before.
func TestSwapRejectedLeavesServing(t *testing.T) {
	bundle := mustBundle(t)
	svc, err := NewInferService(bundle, InferOptions{Replicas: 2, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	info := svc.Info()
	rng := rand.New(rand.NewSource(3))
	reqs := []ObsRequest{{Switch: info.Switches[0], Obs: randObs(rng, info.ObsDim)}}
	before := make([]ECNAction, 1)
	if _, err := svc.Infer(reqs, before); err != nil {
		t.Fatal(err)
	}

	var serr *SwapError
	if err := svc.Swap([]byte("garbage"), 2); err == nil {
		t.Fatal("corrupt bundle swapped in")
	} else if !errors.As(err, &serr) || serr.Version != 2 {
		t.Fatalf("swap error = %v (%T), want *SwapError for version 2", err, err)
	}
	if err := svc.Swap(nil, 3); err == nil {
		t.Fatal("empty bundle swapped in")
	}

	if ref := svc.Model(); ref.Version != 1 {
		t.Fatalf("serving version %d after rejected swaps, want 1", ref.Version)
	}
	after := make([]ECNAction, 1)
	ref, err := svc.Infer(reqs, after)
	if err != nil || ref.Version != 1 || after[0] != before[0] {
		t.Fatalf("serving perturbed by rejected swap: ref %+v err %v", ref, err)
	}
	if f := svc.Info(); f.Swaps != 0 {
		t.Fatalf("swap counter %d after rejections, want 0", f.Swaps)
	}
}

// TestSwapRejectsForeignFabric: a hot swap to a bundle trained on another
// fabric fails with a *SwapError, and the serving model keeps answering.
func TestSwapRejectsForeignFabric(t *testing.T) {
	svc, err := NewInferService(mustBundle(t), InferOptions{Replicas: 1, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	info := svc.Info()
	reqs := []ObsRequest{{Switch: info.Switches[0], Obs: randObs(rand.New(rand.NewSource(4)), info.ObsDim)}}
	before := make([]ECNAction, 1)
	if _, err := svc.Infer(reqs, before); err != nil {
		t.Fatal(err)
	}
	var serr *SwapError
	if err := svc.Swap(mustPresetBundle(t, "small"), 2); !errors.As(err, &serr) || serr.Version != 2 {
		t.Fatalf("swap to a small-fabric bundle = %v (%T), want *SwapError for version 2", err, err)
	}
	after := make([]ECNAction, 1)
	if ref, err := svc.Infer(reqs, after); err != nil || ref.Version != 1 || after[0] != before[0] {
		t.Fatalf("serving perturbed by rejected swap: ref %+v err %v", ref, err)
	}
}

// TestFirstInstallUnderLoad: pollers on a server with no model see 503
// until the first Swap lands and that model after it, never anything else;
// installing the first model counts as no swap.
func TestFirstInstallUnderLoad(t *testing.T) {
	bundle := mustBundle(t)
	ctl := directController(t, bundle)
	reqs := []ObsRequest{{Switch: int(ctl.Agents()[0].Switch), Obs: randObs(rand.New(rand.NewSource(8)), ctl.Config().ObsDim())}}
	want := expectedActions(t, bundle, reqs)
	payload, err := json.Marshal(InferRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	h := srv.Handler()

	var once503, once200 sync.Once
	got503, got200 := make(chan struct{}), make(chan struct{})
	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < cap(errc); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(payload)))
				var got InferResponse
				switch {
				case rec.Code == http.StatusServiceUnavailable:
					once503.Do(func() { close(got503) })
				case rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &got) == nil &&
					got.ModelVersion == 1 && slices.Equal(got.Actions, want):
					once200.Do(func() { close(got200) })
				default:
					errc <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
					return
				}
			}
		}()
	}
	var stopOnce sync.Once
	halt := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	wait := func(ch chan struct{}) {
		select {
		case <-ch:
		case err := <-errc:
			t.Fatal(err)
		}
	}
	wait(got503)
	if err := srv.Infer().Swap(bundle, 1); err != nil {
		t.Fatal(err)
	}
	wait(got200)
	halt()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if info := srv.Infer().Info(); info.ModelVersion != 1 || info.Swaps != 0 {
		t.Fatalf("after the first install: version %d, %d swaps; want version 1, 0 swaps", info.ModelVersion, info.Swaps)
	}
}

// newStoreServer assembles a store-backed, model-less server on a temp dir.
func newStoreServer(t *testing.T, cfg Config) (*Server, *modelstore.Store, *httptest.Server) {
	t.Helper()
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, store, ts
}

// postBundle ingests a bundle over HTTP and returns its stored view.
func postBundle(t *testing.T, ts *httptest.Server, bundle []byte, query string) ModelView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/models"+query, "application/octet-stream", bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	var mv ModelView
	decodeTestJSON(t, resp, http.StatusCreated, &mv)
	return mv
}

// promote hits POST /models/{ref}/promote with a gate override.
func promote(t *testing.T, ts *httptest.Server, ref string, gate GateConfig, wantCode int) (PromotionResult, apiError) {
	t.Helper()
	body, err := json.Marshal(gate)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/models/"+ref+"/promote", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if wantCode == http.StatusOK {
		var res PromotionResult
		decodeTestJSON(t, resp, wantCode, &res)
		return res, apiError{}
	}
	var apiErr apiError
	decodeTestJSON(t, resp, wantCode, &apiErr)
	return PromotionResult{}, apiErr
}

// TestPromoteLifecycle drives the full train→promote→serve loop over HTTP:
// ingest, first promotion onto a model-less daemon, second promotion with
// an incumbent, channel rollover, download, and /infer serving the
// promoted version.
func TestPromoteLifecycle(t *testing.T) {
	bundleA, bundleB := mustBundle(t), mustBundle2(t)
	srv, store, ts := newStoreServer(t, Config{})

	// Before any model: /infer 503, /models empty.
	resp, err := http.Post(ts.URL+"/infer", "application/json", strings.NewReader(`{"requests":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	decodeTestJSON(t, resp, http.StatusServiceUnavailable, &apiErr)

	// Ingest A → version 1, candidate channel by default.
	mv := postBundle(t, ts, bundleA, "?note=first")
	if mv.Version != 1 || mv.Note != "first" || !slices.Contains(mv.Channels, modelstore.ChannelCandidate) {
		t.Fatalf("ingested view %+v", mv)
	}

	// Promote: no incumbent, so even the default gate passes, and the
	// model-less daemon gains an infer service.
	res, _ := promote(t, ts, "candidate", lenientGate, http.StatusOK)
	if res.Promoted.Version != 1 || !res.Report.Pass || res.Report.Incumbent {
		t.Fatalf("first promotion %+v", res)
	}
	if svc := srv.Infer(); svc == nil || svc.Model().Version != 1 {
		t.Fatal("promotion did not install an infer service")
	}
	if vi, err := store.Channel(modelstore.ChannelServing); err != nil || vi.Version != 1 {
		t.Fatalf("serving channel = %+v, %v", vi, err)
	}
	if _, err := store.Channel(modelstore.ChannelCandidate); err == nil {
		t.Fatal("candidate channel survived its own promotion")
	}

	// /infer now answers with version 1.
	info := srv.Infer().Info()
	rng := rand.New(rand.NewSource(21))
	reqs := []ObsRequest{{Switch: info.Switches[0], Obs: randObs(rng, info.ObsDim)}}
	payload, _ := json.Marshal(InferRequest{Requests: reqs})
	resp, err = http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var inferResp InferResponse
	decodeTestJSON(t, resp, http.StatusOK, &inferResp)
	if inferResp.ModelVersion != 1 {
		t.Fatalf("infer answered version %d, want 1", inferResp.ModelVersion)
	}

	// Ingest and promote B with an incumbent: channels roll forward.
	mv = postBundle(t, ts, bundleB, "")
	if mv.Version != 2 {
		t.Fatalf("second ingest version %d", mv.Version)
	}
	res, _ = promote(t, ts, "2", lenientGate, http.StatusOK)
	if res.Promoted.Version != 2 || res.Previous != 1 || !res.Report.Incumbent || !res.Report.Pass {
		t.Fatalf("second promotion %+v", res)
	}
	if vi, _ := store.Channel(modelstore.ChannelServing); vi.Version != 2 {
		t.Fatalf("serving channel %d, want 2", vi.Version)
	}
	if vi, err := store.Channel(modelstore.ChannelPrevious); err != nil || vi.Version != 1 {
		t.Fatalf("previous channel %+v, %v", vi, err)
	}
	if ref := srv.Infer().Model(); ref.Version != 2 {
		t.Fatalf("infer serving version %d, want 2", ref.Version)
	}

	// GET /models reflects all of it.
	resp, err = http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list modelListResponse
	decodeTestJSON(t, resp, http.StatusOK, &list)
	if len(list.Versions) != 2 || list.Serving == nil || list.Serving.Version != 2 {
		t.Fatalf("model list %+v", list)
	}
	if list.Channels[modelstore.ChannelServing] != 2 || list.Channels[modelstore.ChannelPrevious] != 1 {
		t.Fatalf("channels %+v", list.Channels)
	}

	// Download round-trips the exact bytes.
	resp, err = http.Get(ts.URL + "/models/serving?download=1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, bundleB) {
		t.Fatalf("downloaded %d bytes (err %v), want the promoted bundle (%d)", len(got), err, len(bundleB))
	}
	if v := resp.Header.Get("X-Model-Version"); v != "2" {
		t.Fatalf("download version header %q", v)
	}

	// Re-promoting the serving version is a 409.
	if _, apiErr := promote(t, ts, "2", lenientGate, http.StatusConflict); apiErr.Error == "" {
		t.Fatal("already-serving promotion carried no error")
	}

	// Unknown refs are 404s.
	promote(t, ts, "99", lenientGate, http.StatusNotFound)
	promote(t, ts, "nope", lenientGate, http.StatusNotFound)
	resp, _ = http.Get(ts.URL + "/models/99")
	decodeTestJSON(t, resp, http.StatusNotFound, &apiErr)
}

// TestPromoteGateRejects: a candidate failing the shadow-eval gate is
// rejected 409 with the scored report, and neither the serving channel nor
// the live pool moves.
func TestPromoteGateRejects(t *testing.T) {
	bundleA, bundleB := mustBundle(t), mustBundle2(t)
	srv, store, ts := newStoreServer(t, Config{})
	postBundle(t, ts, bundleA, "")
	promote(t, ts, "1", lenientGate, http.StatusOK)

	postBundle(t, ts, bundleB, "")
	body, _ := json.Marshal(forceFailGate)
	resp, err := http.Post(ts.URL+"/models/2/promote", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reject gateRejectResponse
	decodeTestJSON(t, resp, http.StatusConflict, &reject)
	if reject.Error == "" || reject.Report.Pass || len(reject.Report.Reasons) == 0 {
		t.Fatalf("gate rejection body %+v", reject)
	}
	if !reject.Report.Incumbent {
		t.Fatal("gate scored no incumbent despite a serving model")
	}

	// Serving untouched, candidate channel still in place.
	if vi, _ := store.Channel(modelstore.ChannelServing); vi.Version != 1 {
		t.Fatalf("serving channel moved to %d on a failed gate", vi.Version)
	}
	if ref := srv.Infer().Model(); ref.Version != 1 {
		t.Fatalf("live pool moved to %d on a failed gate", ref.Version)
	}
	if vi, err := store.Channel(modelstore.ChannelCandidate); err != nil || vi.Version != 2 {
		t.Fatalf("candidate channel %+v, %v", vi, err)
	}

	// The typed error also surfaces through the Go API.
	var gerr *GateError
	if _, err := srv.Promote(context.Background(), "2", &forceFailGate); !errors.As(err, &gerr) {
		t.Fatalf("Promote returned %v (%T), want *GateError", err, err)
	}
}

// TestPromoteOverrideRejectsScenarioFields: the gate replays a fixed
// document; an override naming one of its fields is a 400 and promotes
// nothing.
func TestPromoteOverrideRejectsScenarioFields(t *testing.T) {
	srv, store, ts := newStoreServer(t, Config{})
	postBundle(t, ts, mustBundle(t), "")
	resp, err := http.Post(ts.URL+"/models/1/promote", "application/json", strings.NewReader(`{"load":0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	decodeTestJSON(t, resp, http.StatusBadRequest, &apiErr)
	if !strings.Contains(apiErr.Error, `"load"`) {
		t.Fatalf("400 body %q does not name the field", apiErr.Error)
	}
	if _, err := store.Channel(modelstore.ChannelServing); err == nil {
		t.Fatal("a rejected override promoted the candidate")
	}
	if ref := srv.Infer().Model(); ref.Version != 0 {
		t.Fatalf("live pool moved to %d on a rejected override", ref.Version)
	}
}

// TestPromoteCorruptRejects: a bundle that cannot load is rejected 422
// (typed *SwapError through the Go API) and serving stays put.
func TestPromoteCorruptRejects(t *testing.T) {
	bundleA := mustBundle(t)
	srv, store, ts := newStoreServer(t, Config{})
	postBundle(t, ts, bundleA, "")
	promote(t, ts, "1", lenientGate, http.StatusOK)

	junk := postBundle(t, ts, []byte("not a model bundle"), "")
	if _, apiErr := promote(t, ts, fmt.Sprint(junk.Version), lenientGate, http.StatusUnprocessableEntity); apiErr.Error == "" {
		t.Fatal("corrupt promotion carried no error")
	}
	if vi, _ := store.Channel(modelstore.ChannelServing); vi.Version != 1 {
		t.Fatalf("serving channel moved to %d on a corrupt candidate", vi.Version)
	}
	if ref := srv.Infer().Model(); ref.Version != 1 {
		t.Fatalf("live pool moved to %d on a corrupt candidate", ref.Version)
	}
	var serr *SwapError
	if _, err := srv.Promote(context.Background(), fmt.Sprint(junk.Version), &lenientGate); !errors.As(err, &serr) {
		t.Fatalf("Promote returned %v (%T), want *SwapError", err, err)
	}
}

// TestPromoteGCRetention: promotion-triggered GC honors the retention
// budget but never collects the serving or last-promoted (previous)
// version.
func TestPromoteGCRetention(t *testing.T) {
	bundleA, bundleB := mustBundle(t), mustBundle2(t)
	srv, store, ts := newStoreServer(t, Config{KeepVersions: 1})

	postBundle(t, ts, bundleA, "")                // v1
	junk := postBundle(t, ts, []byte("junk"), "") // v2: never promoted, GC fodder
	postBundle(t, ts, bundleB, "")                // v3

	// First promotion's GC already evicts the unpinned junk version: the
	// keep-1 budget retains newest (3, candidate-pinned) plus serving (1).
	res, _ := promote(t, ts, "1", lenientGate, http.StatusOK)
	if !slices.Contains(res.Removed, junk.Version) || len(res.Removed) != 1 {
		t.Fatalf("GC removed %v, want exactly [%d]", res.Removed, junk.Version)
	}
	if res, _ = promote(t, ts, "3", lenientGate, http.StatusOK); len(res.Removed) != 0 {
		t.Fatalf("second GC removed pinned versions %v", res.Removed)
	}
	// serving (3) and previous (1) both survive a keep-1 budget.
	for _, v := range []int{1, 3} {
		if _, err := store.Info(v); err != nil {
			t.Fatalf("GC collected pinned version %d: %v", v, err)
		}
		if _, _, err := store.Get(v); err != nil {
			t.Fatalf("pinned version %d unreadable: %v", v, err)
		}
	}
	// The collected version keeps its log entry (history is append-only)
	// but its bytes are gone.
	if _, _, err := store.Get(junk.Version); !errors.Is(err, modelstore.ErrBundleGone) {
		t.Fatalf("junk version's bytes survived GC: %v", err)
	}
	_ = srv
}

// TestModelIngestFromJob: POST /models?from=<job> adopts a finished
// pretrain job's bundle, and spec.publish does the same automatically.
func TestModelIngestFromJob(t *testing.T) {
	srv, store, ts := newStoreServer(t, Config{MaxJobs: 1})

	// publish: true lands the trained bundle in the store as "candidate".
	st, err := srv.Jobs().Launch(ExperimentSpec{
		Kind: KindPretrain, Scenario: pretrainDoc("5ms"), Workers: 1, Rounds: 1, Publish: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, srv.Jobs(), st.ID, 2*time.Minute)
	if done.State != StateDone {
		t.Fatalf("pretrain finished %s: %s", done.State, done.Error)
	}
	if done.Pretrain.StoreVersion != 1 {
		t.Fatalf("published store version %d, want 1", done.Pretrain.StoreVersion)
	}
	if vi, err := store.Channel(modelstore.ChannelCandidate); err != nil || vi.Version != 1 {
		t.Fatalf("candidate channel %+v, %v", vi, err)
	}
	models, _ := srv.Jobs().Models(st.ID)
	if _, stored, err := store.Get(1); err != nil || !bytes.Equal(stored, models) {
		t.Fatalf("stored bundle differs from the job's: %v", err)
	}

	// Explicit adoption of the same job: content-addressing dedups the
	// bytes into a second version sharing one object.
	resp, err := http.Post(ts.URL+"/models?from="+st.ID, "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	var mv ModelView
	decodeTestJSON(t, resp, http.StatusCreated, &mv)
	if mv.Version != 2 || mv.SHA256 != done.Pretrain.ModelSHA256 {
		t.Fatalf("adopted view %+v", mv)
	}

	// Unknown job → 404.
	resp, err = http.Post(ts.URL+"/models?from=exp-999999", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	decodeTestJSON(t, resp, http.StatusNotFound, &apiErr)

	// Empty direct upload → 400.
	resp, err = http.Post(ts.URL+"/models", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeTestJSON(t, resp, http.StatusBadRequest, &apiErr)
}

// TestModelAPINoStore: every /models endpoint answers 503 on a store-less
// daemon.
func TestModelAPINoStore(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var apiErr apiError
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/models"},
		{http.MethodGet, "/models"},
		{http.MethodGet, "/models/1"},
		{http.MethodPost, "/models/1/promote"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		decodeTestJSON(t, resp, http.StatusServiceUnavailable, &apiErr)
	}
}

// TestGateVerdicts pins the gate's decision logic without HTTP.
func TestGateVerdicts(t *testing.T) {
	bundleA := mustBundle(t)
	ctx := context.Background()

	// No incumbent: any loadable candidate passes.
	rep, err := RunGate(ctx, GateConfig{}, "tiny", nil, bundleA)
	if err != nil || !rep.Pass || rep.Incumbent {
		t.Fatalf("no-incumbent gate: %+v, %v", rep, err)
	}
	if rep.Candidate.FlowsDone == 0 {
		t.Fatal("shadow run completed no flows; the scenario is degenerate")
	}

	// Identical bundles under default thresholds: zero deltas pass.
	rep, err = RunGate(ctx, GateConfig{}, "tiny", bundleA, bundleA)
	if err != nil || !rep.Pass {
		t.Fatalf("self-comparison failed the gate: %+v, %v", rep, err)
	}
	if rep.SlowdownDelta != 0 || rep.RewardDelta != 0 {
		t.Fatalf("identical bundles scored different: %+v", rep)
	}

	// Impossible thresholds: deterministic rejection with reasons.
	rep, err = RunGate(ctx, forceFailGate, "tiny", bundleA, bundleA)
	if err != nil || rep.Pass || len(rep.Reasons) == 0 {
		t.Fatalf("force-fail gate passed: %+v, %v", rep, err)
	}

	// Unloadable candidate: an error, not a verdict.
	if _, err := RunGate(ctx, GateConfig{}, "tiny", bundleA, []byte("junk")); err == nil {
		t.Fatal("junk candidate produced a verdict")
	}
}
