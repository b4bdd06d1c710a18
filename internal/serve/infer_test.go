package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"pet/internal/bench"
	"pet/internal/core"
	"pet/internal/sim"
	"pet/internal/topo"
)

// testBundle pre-trains one tiny-fabric model bundle, shared (and trained
// exactly once) across every test and benchmark in the package.
var testBundle = sync.OnceValues(func() ([]byte, error) { return pretrainOn("tiny") })

// smallBundle is the same recipe on the small preset, for the tests that
// check serving beyond the tiny fabric.
var smallBundle = sync.OnceValues(func() ([]byte, error) { return pretrainOn("small") })

func pretrainOn(preset string) ([]byte, error) {
	t, err := topo.Preset(preset)
	if err != nil {
		return nil, err
	}
	return bench.PretrainPET(bench.Scenario{Topo: t, Load: 0.5, Seed: 1}, 5*sim.Millisecond)
}

func mustBundle(tb testing.TB) []byte {
	tb.Helper()
	bundle, err := testBundle()
	if err != nil {
		tb.Fatalf("pre-training test bundle: %v", err)
	}
	return bundle
}

// mustPresetBundle returns the shared test bundle trained on preset.
func mustPresetBundle(tb testing.TB, preset string) []byte {
	tb.Helper()
	if preset == "tiny" {
		return mustBundle(tb)
	}
	bundle, err := smallBundle()
	if err != nil {
		tb.Fatalf("pre-training %s test bundle: %v", preset, err)
	}
	return bundle
}

// directController assembles the in-process reference: the same bundle
// loaded into a plain controller, no serving layer.
func directController(tb testing.TB, bundle []byte) *core.Controller {
	tb.Helper()
	return directControllerOn(tb, "tiny", bundle)
}

// directControllerOn is directController on a named topology preset.
func directControllerOn(tb testing.TB, preset string, bundle []byte) *core.Controller {
	tb.Helper()
	tcfg, err := topo.Preset(preset)
	if err != nil {
		tb.Fatal(err)
	}
	env, err := bench.NewEnv(bench.Scenario{Topo: tcfg, Scheme: bench.SchemePET, Models: bundle})
	if err != nil {
		tb.Fatalf("assembling reference controller: %v", err)
	}
	ctl, ok := env.Control.(*core.Controller)
	if !ok {
		tb.Fatalf("PET assembled a %T", env.Control)
	}
	return ctl
}

// randObs yields one deterministic observation vector.
func randObs(rng *rand.Rand, dim int) []float64 {
	obs := make([]float64, dim)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	return obs
}

// TestInferParity: actions served from the replica pool must be identical
// to direct in-process controller inference, across batch sizes and on
// more than one fabric.
func TestInferParity(t *testing.T) {
	for _, preset := range []string{"tiny", "small"} {
		t.Run(preset, func(t *testing.T) {
			bundle := mustPresetBundle(t, preset)
			svc, err := NewInferService(bundle, InferOptions{Topo: preset, Replicas: 2})
			if err != nil {
				t.Fatalf("NewInferService: %v", err)
			}
			ctl := directControllerOn(t, preset, bundle)
			info := svc.Info()
			if len(info.Switches) != len(ctl.Agents()) || info.ObsDim == 0 {
				t.Fatalf("degenerate service info: %+v", info)
			}

			acts := make([]int, len(ctl.Config().Heads()))
			for _, batch := range []int{1, 7, 64} {
				rng := rand.New(rand.NewSource(42))
				reqs := make([]ObsRequest, batch)
				for i := range reqs {
					reqs[i] = ObsRequest{
						Switch: info.Switches[i%len(info.Switches)],
						Obs:    randObs(rng, info.ObsDim),
					}
				}
				out := make([]ECNAction, batch)
				if _, err := svc.Infer(reqs, out); err != nil {
					t.Fatalf("batch %d: Infer: %v", batch, err)
				}
				for i, req := range reqs {
					agent := ctl.AgentBySwitch(topo.NodeID(req.Switch))
					if agent == nil {
						t.Fatalf("no reference agent for switch %d", req.Switch)
					}
					cfg, err := agent.InferECN(req.Obs, acts)
					if err != nil {
						t.Fatalf("reference InferECN: %v", err)
					}
					want := ECNAction{Switch: req.Switch, KminBytes: cfg.KminBytes, KmaxBytes: cfg.KmaxBytes, Pmax: cfg.Pmax}
					if out[i] != want {
						t.Fatalf("batch %d request %d: served %+v, direct %+v", batch, i, out[i], want)
					}
				}
			}
		})
	}
}

// TestInferHTTPParity: the same check through the full HTTP layer — JSON
// round-trips must not perturb a single action.
func TestInferHTTPParity(t *testing.T) {
	bundle := mustBundle(t)
	svc, err := NewInferService(bundle, InferOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctl := directController(t, bundle)
	srv := New(Config{Infer: svc})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	info := svc.Info()
	rng := rand.New(rand.NewSource(7))
	var req InferRequest
	for i := 0; i < 3*len(info.Switches); i++ {
		req.Requests = append(req.Requests, ObsRequest{
			Switch: info.Switches[i%len(info.Switches)],
			Obs:    randObs(rng, info.ObsDim),
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /infer: %v", err)
	}
	var got InferResponse
	decodeTestJSON(t, resp, http.StatusOK, &got)
	if got.ModelSHA256 != svc.ModelSHA256() {
		t.Errorf("response sha %q, service sha %q", got.ModelSHA256, svc.ModelSHA256())
	}
	if len(got.Actions) != len(req.Requests) {
		t.Fatalf("%d actions for %d requests", len(got.Actions), len(req.Requests))
	}
	acts := make([]int, len(ctl.Config().Heads()))
	for i, r := range req.Requests {
		cfg, err := ctl.AgentBySwitch(topo.NodeID(r.Switch)).InferECN(r.Obs, acts)
		if err != nil {
			t.Fatal(err)
		}
		want := ECNAction{Switch: r.Switch, KminBytes: cfg.KminBytes, KmaxBytes: cfg.KmaxBytes, Pmax: cfg.Pmax}
		if got.Actions[i] != want {
			t.Fatalf("request %d: served %+v over HTTP, direct %+v", i, got.Actions[i], want)
		}
	}
}

// TestInferConcurrent hammers the pool from many goroutines (meaningful
// under -race: replicas must never share scratch).
func TestInferConcurrent(t *testing.T) {
	bundle := mustBundle(t)
	svc, err := NewInferService(bundle, InferOptions{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	info := svc.Info()
	rng := rand.New(rand.NewSource(99))
	reqs := make([]ObsRequest, len(info.Switches))
	for i, sw := range info.Switches {
		reqs[i] = ObsRequest{Switch: sw, Obs: randObs(rng, info.ObsDim)}
	}
	// The expected answer, computed once up front.
	want := make([]ECNAction, len(reqs))
	if _, err := svc.Infer(reqs, want); err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 8, 50
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]ECNAction, len(reqs))
			for i := 0; i < iters; i++ {
				if _, err := svc.Infer(reqs, out); err != nil {
					errc <- err
					return
				}
				for k := range out {
					if out[k] != want[k] {
						errc <- errInferMismatch
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent inference: %v", err)
	}
}

var errInferMismatch = io.ErrUnexpectedEOF // sentinel for the test above

func TestInferValidation(t *testing.T) {
	bundle := mustBundle(t)
	svc, err := NewInferService(bundle, InferOptions{Replicas: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	info := svc.Info()
	good := ObsRequest{Switch: info.Switches[0], Obs: make([]float64, info.ObsDim)}
	out := make([]ECNAction, 16)

	if _, err := svc.Infer(nil, out); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := svc.Infer(make([]ObsRequest, 9), out); err == nil {
		t.Error("oversize batch accepted")
	}
	if _, err := svc.Infer([]ObsRequest{good}, nil); err == nil {
		t.Error("nil output scratch accepted")
	}
	if _, err := svc.Infer([]ObsRequest{{Switch: -1, Obs: good.Obs}}, out); err == nil {
		t.Error("unknown switch accepted")
	}
	if _, err := svc.Infer([]ObsRequest{{Switch: good.Switch, Obs: make([]float64, 3)}}, out); err == nil {
		t.Error("short observation accepted")
	}
	// A bad bundle fails construction, not serving.
	if _, err := NewInferService([]byte("junk"), InferOptions{Replicas: 1}); err == nil {
		t.Error("corrupt bundle accepted")
	}
	if _, err := NewInferService(nil, InferOptions{}); err == nil {
		t.Error("empty bundle accepted")
	}
}

// TestInferRejectsForeignFabric: a bundle trained on another fabric covers
// a different switch set; serving it would leave switches on untrained
// weights, so construction fails in either direction.
func TestInferRejectsForeignFabric(t *testing.T) {
	for _, c := range []struct{ trained, serve string }{{"small", "tiny"}, {"tiny", "small"}} {
		bundle := mustPresetBundle(t, c.trained)
		if _, err := NewInferService(bundle, InferOptions{Topo: c.serve, Replicas: 1}); err == nil {
			t.Errorf("%s bundle accepted for the %s fabric", c.trained, c.serve)
		}
	}
}

// TestInferAllocFree pins the per-batch hot path at zero allocations:
// lease, validation, forward passes and action translation all run on
// pre-built scratch.
func TestInferAllocFree(t *testing.T) {
	bundle := mustBundle(t)
	svc, err := NewInferService(bundle, InferOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	info := svc.Info()
	rng := rand.New(rand.NewSource(5))
	reqs := make([]ObsRequest, 2*len(info.Switches))
	for i := range reqs {
		reqs[i] = ObsRequest{Switch: info.Switches[i%len(info.Switches)], Obs: randObs(rng, info.ObsDim)}
	}
	out := make([]ECNAction, len(reqs))
	if _, err := svc.Infer(reqs, out); err != nil { // warm up once
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := svc.Infer(reqs, out); err != nil {
			t.Error(err)
		}
	})
	if avg != 0 {
		t.Errorf("Infer allocates %.1f objects per batch, want 0", avg)
	}
}

// BenchmarkInferServe measures the daemon's serving SLO: ≥1000 concurrent
// pollers (each a simulated switch fetching its next ECN configuration over
// HTTP) against the full stack — JSON decode, replica lease, forward
// passes, JSON encode. Reports throughput and client-observed p99 latency
// alongside ns/op:
//
//	go test ./internal/serve/ -run='^$' -bench=InferServe -benchmem
func BenchmarkInferServe(b *testing.B) {
	bundle := mustBundle(b)
	svc, err := NewInferService(bundle, InferOptions{Replicas: 4})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{Infer: svc})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	info := svc.Info()
	rng := rand.New(rand.NewSource(1))
	var req InferRequest
	for _, sw := range info.Switches {
		req.Requests = append(req.Requests, ObsRequest{Switch: sw, Obs: randObs(rng, info.ObsDim)})
	}
	payload, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	// 1000 pollers share a bounded connection pool, as a fleet of switches
	// behind a load balancer would; excess pollers queue on the transport.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		MaxConnsPerHost:     256,
	}}

	var mu sync.Mutex
	latencies := make([]time.Duration, 0, 1<<16)
	// RunParallel spawns parallelism × GOMAXPROCS goroutines; round up to
	// at least 1000 pollers.
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((999 + procs) / procs)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			start := time.Now()
			resp, err := client.Post(ts.URL+"/infer", "application/json", bytes.NewReader(payload))
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			d := time.Since(start)
			mu.Lock()
			latencies = append(latencies, d)
			mu.Unlock()
		}
	})
	b.StopTimer()
	if len(latencies) == 0 {
		return
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds())/1e3, "p99_us")
	b.ReportMetric(float64(len(latencies))/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(len(req.Requests)), "obs/req")
}
