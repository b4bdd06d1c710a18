package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	_ "pet/internal/staticecn" // register the SECN1/SECN2 baseline schemes
	"pet/internal/telemetry"
)

// decodeTestJSON asserts a response's status and decodes its body.
func decodeTestJSON(t *testing.T, resp *http.Response, wantCode int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// docSpec wraps a scenario document into a run job.
func docSpec(doc string) ExperimentSpec {
	return ExperimentSpec{Scenario: json.RawMessage(doc)}
}

// quickRunSpec is a seconds-fast measurement job.
func quickRunSpec() ExperimentSpec { return quickRunFor("3ms") }

// quickRunFor is quickRunSpec with a measurement window of duration.
func quickRunFor(duration string) ExperimentSpec {
	return docSpec(fmt.Sprintf(`{"seed":1,"load":0.5,"scheme":"SECN1","train":true,"warmup":"2ms","duration":%q}`, duration))
}

// pretrainDoc is the scenario of the quick pretrain jobs: PET training on
// the tiny fabric, episodes of duration.
func pretrainDoc(duration string) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"seed":1,"load":0.5,"scheme":"PET","train":true,"duration":%q}`, duration))
}

// waitTerminal polls a job to a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string, within time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobLifecycleRun(t *testing.T) {
	m := NewManager(1, telemetry.New(), t.Logf)
	defer m.Shutdown(context.Background())

	st, err := m.Launch(quickRunSpec())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if st.State != StatePending {
		t.Fatalf("fresh job state = %s, want %s", st.State, StatePending)
	}
	if st.Kind != KindRun {
		t.Fatalf("defaulted kind = %q, want %q", st.Kind, KindRun)
	}

	done := waitTerminal(t, m, st.ID, 2*time.Minute)
	if done.State != StateDone {
		t.Fatalf("job finished %s (error %q), want %s", done.State, done.Error, StateDone)
	}
	if done.Result == nil {
		t.Fatal("done run job has no result summary")
	}
	if done.Result.FlowsDone == 0 {
		t.Error("result reports zero completed flows")
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Error("terminal job missing timestamps")
	}
}

func TestJobLifecyclePretrain(t *testing.T) {
	m := NewManager(1, nil, t.Logf)
	defer m.Shutdown(context.Background())

	st, err := m.Launch(ExperimentSpec{
		Kind:     KindPretrain,
		Scenario: pretrainDoc("5ms"),
		Workers:  1,
		Rounds:   1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	done := waitTerminal(t, m, st.ID, 2*time.Minute)
	if done.State != StateDone {
		t.Fatalf("pretrain finished %s (error %q), want %s", done.State, done.Error, StateDone)
	}
	if done.Pretrain == nil || done.Pretrain.ModelBytes == 0 {
		t.Fatalf("pretrain summary missing or empty: %+v", done.Pretrain)
	}
	models, ok := m.Models(st.ID)
	if !ok || len(models) != done.Pretrain.ModelBytes {
		t.Fatalf("Models() = %d bytes, ok=%v; summary says %d", len(models), ok, done.Pretrain.ModelBytes)
	}
}

func TestJobCancellation(t *testing.T) {
	m := NewManager(1, nil, t.Logf)
	defer m.Shutdown(context.Background())

	st, err := m.Launch(quickRunFor("2s")) // long enough that cancellation lands mid-run
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if _, _, ok := m.Cancel(st.ID); !ok {
		t.Fatalf("Cancel(%s) reported missing job", st.ID)
	}
	done := waitTerminal(t, m, st.ID, 2*time.Minute)
	if done.State != StateCancelled {
		t.Fatalf("cancelled job finished %s, want %s", done.State, StateCancelled)
	}
	// Cancelling a terminal job is a harmless no-op, flagged as such.
	if again, alreadyTerminal, ok := m.Cancel(st.ID); !ok || !alreadyTerminal || again.State != StateCancelled {
		t.Fatalf("re-cancel = %s, alreadyTerminal=%v, ok=%v", again.State, alreadyTerminal, ok)
	}
}

func TestLaunchValidation(t *testing.T) {
	m := NewManager(1, nil, nil)
	defer m.Shutdown(context.Background())

	cases := []ExperimentSpec{
		{Kind: "restart"},                                                 // unknown kind
		docSpec(`{"scheme":"NOPE"}`),                                      // unregistered scheme
		docSpec(`{"topo":{"preset":"galactic"}}`),                         // unknown topo
		docSpec(`{"workload":{"name":"llm"}}`),                            // unknown workload
		docSpec(`{"load":1.5}`),                                           // out of range
		docSpec(`{"incast_fraction":2}`),                                  // out of range
		docSpec(`{"incast_fan_in":-1}`),                                   // negative fan-in
		docSpec(`{"duration":"banana"}`),                                  // unparseable duration
		{Workers: 4},                                                      // fleet knob on a run job
		{Kind: KindPretrain, Scenario: json.RawMessage(`{"load":-0.25}`)}, // bad load, pretrain kind
		{Kind: KindRun, Checkpoint: "dir"},                                // fleet knob on a run job
	}
	for _, spec := range cases {
		if _, err := m.Launch(spec); err == nil {
			t.Errorf("Launch(kind %q, scenario %s) accepted an invalid spec", spec.Kind, spec.Scenario)
		}
	}
	if n := len(m.List()); n != 0 {
		t.Fatalf("invalid launches left %d jobs behind", n)
	}
}

func TestManagerShutdownRejectsLaunches(t *testing.T) {
	m := NewManager(1, nil, nil)
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := m.Launch(quickRunSpec()); err != errShuttingDown {
		t.Fatalf("Launch after shutdown = %v, want %v", err, errShuttingDown)
	}
}

// TestServerEndpoints exercises the HTTP surface end to end: launch,
// list, get, SSE, healthz, cancel, shutdown.
func TestServerEndpoints(t *testing.T) {
	srv := New(Config{SSEInterval: 60 * time.Millisecond, MaxJobs: 1, Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Launch via POST.
	resp, err := http.Post(ts.URL+"/experiments", "application/json",
		strings.NewReader(`{"scenario":{"seed":1,"load":0.5,"scheme":"SECN1","train":true,"warmup":"2ms","duration":"3ms"}}`))
	if err != nil {
		t.Fatalf("POST /experiments: %v", err)
	}
	var st JobStatus
	decodeTestJSON(t, resp, http.StatusAccepted, &st)

	// Bad spec → 400 with a JSON error envelope.
	resp, err = http.Post(ts.URL+"/experiments", "application/json",
		strings.NewReader(`{"scenario":{"scheme":"NOPE"}}`))
	if err != nil {
		t.Fatalf("POST bad spec: %v", err)
	}
	var apiErr apiError
	decodeTestJSON(t, resp, http.StatusBadRequest, &apiErr)
	if apiErr.Error == "" {
		t.Error("400 response carries no error message")
	}

	// Unknown field → 400 (catches client typos like "durration").
	resp, err = http.Post(ts.URL+"/experiments", "application/json",
		strings.NewReader(`{"durration":"3ms"}`))
	if err != nil {
		t.Fatalf("POST unknown field: %v", err)
	}
	decodeTestJSON(t, resp, http.StatusBadRequest, &apiErr)

	// List and get.
	resp, err = http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatalf("GET /experiments: %v", err)
	}
	var list []JobStatus
	decodeTestJSON(t, resp, http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v, want the one launched job", list)
	}
	resp, err = http.Get(ts.URL + "/experiments/" + st.ID)
	if err != nil {
		t.Fatalf("GET /experiments/{id}: %v", err)
	}
	var got JobStatus
	decodeTestJSON(t, resp, http.StatusOK, &got)
	if got.ID != st.ID {
		t.Fatalf("got job %q, want %q", got.ID, st.ID)
	}
	resp, err = http.Get(ts.URL + "/experiments/exp-999999")
	if err != nil {
		t.Fatalf("GET missing job: %v", err)
	}
	decodeTestJSON(t, resp, http.StatusNotFound, &apiErr)

	// No bundle loaded → /infer answers 503.
	resp, err = http.Post(ts.URL+"/infer", "application/json", strings.NewReader(`{"requests":[]}`))
	if err != nil {
		t.Fatalf("POST /infer: %v", err)
	}
	decodeTestJSON(t, resp, http.StatusServiceUnavailable, &apiErr)

	// Healthz.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var hz map[string]any
	decodeTestJSON(t, resp, http.StatusOK, &hz)
	if hz["status"] != "ok" {
		t.Fatalf("healthz = %v", hz)
	}

	// The telemetry endpoints ride the same listener.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// SSE: read one snapshot and one jobs event, then shut down and expect
	// the goodbye event before EOF.
	sseResp, err := http.Get(ts.URL + "/events?interval=50ms")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	events := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(sseResp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				events <- name
			}
		}
		close(events)
	}()
	want := map[string]bool{"snapshot": false, "jobs": false}
	deadline := time.After(10 * time.Second)
	for !want["snapshot"] || !want["jobs"] {
		select {
		case name, ok := <-events:
			if !ok {
				t.Fatal("SSE stream closed before delivering snapshot+jobs")
			}
			if _, tracked := want[name]; tracked {
				want[name] = true
			}
		case <-deadline:
			t.Fatalf("no snapshot+jobs events within deadline: %v", want)
		}
	}

	// Cancel the job over HTTP, then shut the server down and make sure the
	// SSE client receives the explicit goodbye. The quick run may already
	// have finished, in which case DELETE answers 409 with the terminal
	// status instead of 200.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/experiments/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	if resp.StatusCode == http.StatusConflict {
		decodeTestJSON(t, resp, http.StatusConflict, &got)
	} else {
		decodeTestJSON(t, resp, http.StatusOK, &got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx, nil); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	sawShutdown := false
	for name := range events {
		if name == "shutdown" {
			sawShutdown = true
		}
	}
	if !sawShutdown {
		t.Error("SSE stream ended without the shutdown event")
	}
}
