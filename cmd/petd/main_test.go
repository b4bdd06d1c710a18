package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pet"
)

// trainedBundle pre-trains one tiny bundle for every test in the package.
var trainedBundle = sync.OnceValues(func() ([]byte, error) {
	return pet.PretrainPET(pet.Scenario{Topo: pet.TinyScale(), Load: 0.5, Seed: 1}, 5*pet.Millisecond)
})

// startDaemon runs petd on an ephemeral port and returns its base URL plus
// a shutdown func returning the exit code.
func startDaemon(t *testing.T, extraArgs ...string) (string, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-q"}, extraArgs...)
	go func() {
		exit <- run(ctx, args, pw, &stderr)
		pw.Close()
	}()

	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		cancel()
		t.Fatalf("reading addr line: %v (stderr: %s)", err, stderr.String())
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "addr=")
	if !ok {
		cancel()
		t.Fatalf("first stdout line = %q, want addr=...", line)
	}
	stop := func() int {
		cancel()
		select {
		case code := <-exit:
			return code
		case <-time.After(2 * time.Minute):
			t.Fatalf("petd did not exit (stderr: %s)", stderr.String())
			return -1
		}
	}
	return "http://" + addr, stop
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// TestDaemonSmoke drives the daemon end to end over real HTTP: lifecycle,
// SSE, inference, graceful shutdown — the daemon's smoke test.
func TestDaemonSmoke(t *testing.T) {
	bundle, err := trainedBundle()
	if err != nil {
		t.Fatalf("pre-training bundle: %v", err)
	}
	modelPath := filepath.Join(t.TempDir(), "pet.model")
	if err := os.WriteFile(modelPath, bundle, 0o644); err != nil {
		t.Fatal(err)
	}

	base, stop := startDaemon(t, "-models", modelPath, "-replicas", "2", "-sse", "100ms")

	// Health: daemon up, bundle loaded.
	var hz struct {
		Status string `json:"status"`
		Infer  *struct {
			Switches []int `json:"switches"`
			ObsDim   int   `json:"obs_dim"`
		} `json:"infer"`
	}
	getJSON(t, base+"/healthz", &hz)
	if hz.Status != "ok" || hz.Infer == nil || len(hz.Infer.Switches) == 0 {
		t.Fatalf("healthz = %+v", hz)
	}

	// Readiness: a daemon that booted with a model flips ready immediately.
	var rz struct {
		Ready bool `json:"ready"`
	}
	getJSON(t, base+"/readyz", &rz)
	if !rz.Ready {
		t.Fatalf("readyz = %+v, want ready after boot", rz)
	}

	// Lifecycle: launch a short run and watch it to completion.
	resp, err := http.Post(base+"/experiments", "application/json",
		strings.NewReader(`{"scenario":{"load":0.5,"scheme":"SECN1","train":true,"warmup":"2ms","duration":"3ms"}}`))
	if err != nil {
		t.Fatalf("POST /experiments: %v", err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("launch: status %d, job %+v", resp.StatusCode, job)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		getJSON(t, base+"/experiments/"+job.ID, &job)
		if job.State == "done" {
			break
		}
		if job.State == "failed" || job.State == "cancelled" || time.Now().After(deadline) {
			t.Fatalf("job ended %+v", job)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// SSE: at least one snapshot event arrives promptly.
	sseCtx, sseCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer sseCancel()
	sseReq, _ := http.NewRequestWithContext(sseCtx, http.MethodGet, base+"/events?interval=50ms", nil)
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	sawSnapshot := false
	sc := bufio.NewScanner(sseResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: snapshot" {
			sawSnapshot = true
			break
		}
	}
	sseResp.Body.Close()
	if !sawSnapshot {
		t.Fatal("no snapshot event on /events")
	}

	// Inference: one observation per switch, answered with in-range RED
	// parameters and the bundle's digest.
	var infReq pet.InferRequest
	for _, sw := range hz.Infer.Switches {
		infReq.Requests = append(infReq.Requests, pet.ObsRequest{Switch: sw, Obs: make([]float64, hz.Infer.ObsDim)})
	}
	body, _ := json.Marshal(infReq)
	resp, err = http.Post(base+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /infer: %v", err)
	}
	var infResp pet.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&infResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /infer = %d", resp.StatusCode)
	}
	if len(infResp.Actions) != len(infReq.Requests) || infResp.ModelSHA256 == "" {
		t.Fatalf("infer response %+v", infResp)
	}
	for _, a := range infResp.Actions {
		if a.KminBytes <= 0 || a.KmaxBytes < a.KminBytes || a.Pmax <= 0 || a.Pmax > 1 {
			t.Fatalf("implausible action %+v", a)
		}
	}

	// Launch a long job, cancel it over HTTP, then shut the daemon down.
	resp, err = http.Post(base+"/experiments", "application/json",
		strings.NewReader(`{"scenario":{"load":0.5,"scheme":"SECN1","train":true,"duration":"2s"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	del, _ := http.NewRequest(http.MethodDelete, base+"/experiments/"+job.ID, nil)
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()

	if code := stop(); code != 0 {
		t.Fatalf("petd exited %d", code)
	}
}

// TestDaemonListFlags covers the registry listing exits.
func TestDaemonListFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-list-schemes"}, &out, &errb); code != 0 {
		t.Fatalf("-list-schemes exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "PET") || !strings.Contains(out.String(), "SECN1") {
		t.Fatalf("scheme list missing entries: %q", out.String())
	}
	out.Reset()
	if code := run(context.Background(), []string{"-list-transports"}, &out, &errb); code != 0 {
		t.Fatalf("-list-transports exit %d", code)
	}
	if !strings.Contains(out.String(), "dcqcn") {
		t.Fatalf("transport list missing dcqcn: %q", out.String())
	}
}

// TestDaemonBadFlags: argument errors exit non-zero without binding, and a
// journal with mid-history damage refuses the boot — that is data
// corruption for an operator to inspect, not something to shrug past.
func TestDaemonBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-bogus-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
	journal := filepath.Join(t.TempDir(), "jobs.journal")
	damaged := "{\"v\":1,\"id\":\"exp-000001\",\"state\":\"pending\"}\nnot json at all\n{\"v\":1,\"id\":\"exp-000001\",\"state\":\"running\"}\n"
	if err := os.WriteFile(journal, []byte(damaged), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(context.Background(), []string{"-journal", journal}, &out, &errb); code != 1 {
		t.Fatalf("corrupt journal exit %d, want 1 (stderr: %s)", code, errb.String())
	}
}

// TestDaemonDegradedBoot: a model bundle that fails to load keeps the
// daemon up and not-ready instead of exiting — /healthz stays the liveness
// "alive", /readyz carries the reason until a model lands.
func TestDaemonDegradedBoot(t *testing.T) {
	base, stop := startDaemon(t, "-models", filepath.Join(t.TempDir(), "nope.model"))
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&rz); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rz.Ready || len(rz.Reasons) == 0 {
		t.Fatalf("degraded readyz = %d %+v, want 503 with a reason", resp.StatusCode, rz)
	}
	var hz struct {
		Status string `json:"status"`
	}
	getJSON(t, base+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Fatalf("liveness = %+v, want ok while degraded", hz)
	}
	if code := stop(); code != 0 {
		t.Fatalf("petd exited %d", code)
	}
}

// TestDaemonStoreEmptyNotReady: -store with no serving version boots
// not-ready but fully functional — it accepts /models ingest and a
// promotion flips it ready. The regression this pins down: an empty
// serving channel must never error the boot.
func TestDaemonStoreEmptyNotReady(t *testing.T) {
	bundle, err := trainedBundle()
	if err != nil {
		t.Fatalf("pre-training bundle: %v", err)
	}
	base, stop := startDaemon(t, "-store", filepath.Join(t.TempDir(), "models"), "-replicas", "1")

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&rz); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rz.Ready || len(rz.Reasons) == 0 {
		t.Fatalf("empty-store readyz = %d %+v, want 503 with a reason", resp.StatusCode, rz)
	}

	// The not-ready daemon still takes ingest and promotion.
	resp, err = http.Post(base+"/models", "application/octet-stream", bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	var vi struct {
		Version int `json:"version"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&vi); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || vi.Version == 0 {
		t.Fatalf("ingest while not-ready: status %d, version %+v", resp.StatusCode, vi)
	}
	resp, err = http.Post(fmt.Sprintf("%s/models/%d/promote", base, vi.Version), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote while not-ready = %d: %s", resp.StatusCode, pbody)
	}

	// A model now serves: readiness flips.
	rz.Ready = false
	getJSON(t, base+"/readyz", &rz)
	if !rz.Ready {
		t.Fatalf("readyz after promotion = %+v, want ready", rz)
	}
	if code := stop(); code != 0 {
		t.Fatalf("petd exited %d", code)
	}
}

// TestDaemonCheckpointStore: a fleet checkpoint directory is a model store.
// -store on it lists the checkpointed rounds under /models with candidate on
// the newest, and promoting candidate serves exactly the trained bundle;
// -models on it is a usage error pointing at -store.
func TestDaemonCheckpointStore(t *testing.T) {
	dir := t.TempDir()
	res, err := pet.PretrainFleet(pet.Scenario{Topo: pet.TinyScale(), Load: 0.5, Seed: 1},
		8*pet.Millisecond, pet.FleetConfig{Workers: 1, Rounds: 2, Checkpoint: dir})
	if err != nil {
		t.Fatalf("fleet pretrain: %v", err)
	}

	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-models", dir}, &out, &errb); code == 0 || !strings.Contains(errb.String(), "-store") {
		t.Fatalf("-models <checkpoint dir>: exit %d, stderr %q; want an error naming -store", code, errb.String())
	}

	base, stop := startDaemon(t, "-store", dir, "-replicas", "1")
	var list struct {
		Channels map[string]int `json:"channels"`
		Versions []struct {
			Version int    `json:"version"`
			Source  string `json:"source"`
			Meta    struct {
				Round int `json:"round"`
			} `json:"meta"`
		} `json:"versions"`
	}
	getJSON(t, base+"/models", &list)
	if len(list.Versions) != 2 || list.Channels["candidate"] != 2 {
		t.Fatalf("/models on a checkpoint directory = %+v, want 2 rounds with candidate on the newest", list)
	}
	for i, v := range list.Versions {
		if v.Meta.Round != i+1 || !strings.Contains(v.Source, "fleet round") {
			t.Fatalf("version %d = %+v, want fleet round %d", v.Version, v, i+1)
		}
	}

	resp, err := http.Post(base+"/models/candidate/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote candidate = %d: %s", resp.StatusCode, pbody)
	}
	var hz struct {
		Infer *struct {
			ModelSHA256 string `json:"model_sha256"`
		} `json:"infer"`
	}
	getJSON(t, base+"/healthz", &hz)
	sum := sha256.Sum256(res.Models)
	if hz.Infer == nil || hz.Infer.ModelSHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("serving %+v, want the trained bundle %x", hz.Infer, sum)
	}
	if code := stop(); code != 0 {
		t.Fatalf("petd exited %d", code)
	}
}

// TestDaemonPretrainJob: the daemon trains, and the bundle it produces is
// downloadable and loadable.
func TestDaemonPretrainJob(t *testing.T) {
	base, stop := startDaemon(t)
	defer stop()

	resp, err := http.Post(base+"/experiments", "application/json",
		strings.NewReader(`{"kind":"pretrain","scenario":{"load":0.5,"scheme":"PET","train":true,"duration":"5ms"},"workers":1,"rounds":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		Error    string `json:"error"`
		Pretrain *struct {
			ModelBytes  int    `json:"model_bytes"`
			ModelSHA256 string `json:"model_sha256"`
		} `json:"pretrain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(2 * time.Minute)
	for job.State != "done" {
		if job.State == "failed" || job.State == "cancelled" || time.Now().After(deadline) {
			t.Fatalf("pretrain job ended %+v", job)
		}
		time.Sleep(20 * time.Millisecond)
		getJSON(t, base+"/experiments/"+job.ID, &job)
	}
	if job.Pretrain == nil || job.Pretrain.ModelBytes == 0 {
		t.Fatalf("no pretrain summary: %+v", job)
	}

	// Download the bundle and load it into a fresh inference service.
	resp, err = http.Get(fmt.Sprintf("%s/experiments/%s/models", base, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(bundle) != job.Pretrain.ModelBytes {
		t.Fatalf("downloaded %d bytes (err %v), summary says %d", len(bundle), err, job.Pretrain.ModelBytes)
	}
	if _, err := pet.NewInferService(bundle, pet.InferOptions{Replicas: 1}); err != nil {
		t.Fatalf("downloaded bundle rejected: %v", err)
	}
}

// TestDaemonVersionFlag: -version prints the build identity and exits 0.
func TestDaemonVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-version"}, &out, &errb); code != 0 {
		t.Fatalf("-version exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "pet") {
		t.Fatalf("-version output %q does not name the module", out.String())
	}
}

// TestDaemonStoreLifecycle: ingest -> promote -> infer over a daemon
// started with -store, then restart on the same directory and confirm the
// serving channel survives (the restarted daemon answers /infer without
// -models).
func TestDaemonStoreLifecycle(t *testing.T) {
	bundle, err := trainedBundle()
	if err != nil {
		t.Fatalf("pre-training bundle: %v", err)
	}
	storeDir := filepath.Join(t.TempDir(), "models")

	base, stop := startDaemon(t, "-store", storeDir, "-replicas", "1")

	// Fresh store, no serving channel: /infer is 503.
	resp, err := http.Post(base+"/infer", "application/json",
		strings.NewReader(`{"requests":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("model-less /infer = %d, want 503", resp.StatusCode)
	}

	// Ingest the bundle as a candidate.
	resp, err = http.Post(base+"/models", "application/octet-stream", bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	var vi struct {
		Version int `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || vi.Version == 0 {
		t.Fatalf("ingest: status %d, version %+v", resp.StatusCode, vi)
	}

	// Promote it. No incumbent, so the gate passes it alone.
	resp, err = http.Post(fmt.Sprintf("%s/models/%d/promote", base, vi.Version), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote = %d: %s", resp.StatusCode, pbody)
	}

	// The promoted model answers /infer, stamped with its store version.
	var hz struct {
		Infer *struct {
			Switches []int `json:"switches"`
			ObsDim   int   `json:"obs_dim"`
		} `json:"infer"`
	}
	getJSON(t, base+"/healthz", &hz)
	if hz.Infer == nil {
		t.Fatal("no infer service after promotion")
	}
	var infReq pet.InferRequest
	infReq.Requests = []pet.ObsRequest{{Switch: hz.Infer.Switches[0], Obs: make([]float64, hz.Infer.ObsDim)}}
	body, _ := json.Marshal(infReq)
	resp, err = http.Post(base+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var infResp pet.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&infResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || infResp.ModelVersion != vi.Version {
		t.Fatalf("post-promotion infer: status %d, model version %d (want %d)",
			resp.StatusCode, infResp.ModelVersion, vi.Version)
	}
	if code := stop(); code != 0 {
		t.Fatalf("petd exited %d", code)
	}

	// Restart on the same store: the daemon boots from the serving channel.
	base, stop = startDaemon(t, "-store", storeDir, "-replicas", "1")
	resp, err = http.Post(base+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	infResp = pet.InferResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&infResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || infResp.ModelVersion != vi.Version {
		t.Fatalf("restarted daemon infer: status %d, model version %d (want %d)",
			resp.StatusCode, infResp.ModelVersion, vi.Version)
	}
	if code := stop(); code != 0 {
		t.Fatalf("petd exited %d on restart", code)
	}
}
