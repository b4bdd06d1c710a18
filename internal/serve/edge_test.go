package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"pet/internal/telemetry"
)

// TestInferHTTPEdgeCases drives the /infer endpoint's request-validation
// paths over real HTTP: an empty batch and an oversized batch must both be
// rejected with 400 and a JSON error envelope, without disturbing the
// serving model.
func TestInferHTTPEdgeCases(t *testing.T) {
	bundle := mustBundle(t)
	svc, err := NewInferService(bundle, InferOptions{Replicas: 1, MaxBatch: 4})
	if err != nil {
		t.Fatalf("NewInferService: %v", err)
	}
	srv := New(Config{Infer: svc, Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	info := svc.Info()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /infer: %v", err)
		}
		return resp
	}

	// Empty batch: syntactically valid JSON, no observations.
	var apiErr apiError
	decodeTestJSON(t, post(`{"requests":[]}`), http.StatusBadRequest, &apiErr)
	if apiErr.Error == "" {
		t.Error("empty batch rejection carries no error message")
	}

	// Oversized batch: MaxBatch+1 well-formed observations.
	obs := make([]float64, info.ObsDim)
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < info.MaxBatch+1; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		b, _ := json.Marshal(ObsRequest{Switch: info.Switches[0], Obs: obs})
		sb.Write(b)
	}
	sb.WriteString(`]}`)
	decodeTestJSON(t, post(sb.String()), http.StatusBadRequest, &apiErr)
	if apiErr.Error == "" {
		t.Error("oversized batch rejection carries no error message")
	}

	// Malformed JSON body.
	decodeTestJSON(t, post(`{"requests":[`), http.StatusBadRequest, &apiErr)

	// The service still answers a good batch after all those rejections.
	good, _ := json.Marshal(InferRequest{Requests: []ObsRequest{{Switch: info.Switches[0], Obs: obs}}})
	resp := post(string(good))
	var ir InferResponse
	decodeTestJSON(t, resp, http.StatusOK, &ir)
	if len(ir.Actions) != 1 {
		t.Fatalf("good batch after rejections: %d actions, want 1", len(ir.Actions))
	}
}

// FuzzInferBody sends arbitrary bytes to POST /infer on a loaded service.
// The contract: a 200 with one action per observation, or a 4xx/5xx
// carrying the JSON error envelope — never a panic.
func FuzzInferBody(f *testing.F) {
	svc, err := NewInferService(mustBundle(f), InferOptions{Replicas: 1, MaxBatch: 64})
	if err != nil {
		f.Fatal(err)
	}
	h := New(Config{Infer: svc}).Handler()
	info := svc.Info()
	body := func(sw, width int) []byte {
		b, err := json.Marshal(InferRequest{Requests: []ObsRequest{{Switch: sw, Obs: make([]float64, width)}}})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := body(info.Switches[0], info.ObsDim)
	f.Add(valid)
	f.Add([]byte(`{"requests":[]}`))
	f.Add(body(info.Switches[0], info.ObsDim-1))
	f.Add(body(-1, info.ObsDim))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(raw)))
		if rec.Code == http.StatusOK {
			var req InferRequest
			var resp InferResponse
			_ = json.Unmarshal(raw, &req)
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Actions) != len(req.Requests) {
				t.Fatalf("200 with %d actions for %d observations (decode error %v): %s",
					len(resp.Actions), len(req.Requests), err, rec.Body.Bytes())
			}
			return
		}
		var apiErr apiError
		if rec.Code < 400 || json.Unmarshal(rec.Body.Bytes(), &apiErr) != nil || apiErr.Error == "" {
			t.Fatalf("status %d without the JSON error envelope: %q", rec.Code, rec.Body.Bytes())
		}
	})
}

// TestVersionEndpoint checks GET /version serves the build identity
// document with the always-present fields populated.
func TestVersionEndpoint(t *testing.T) {
	srv := New(Config{Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatalf("GET /version: %v", err)
	}
	var v struct {
		Module    string `json:"module"`
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
	}
	decodeTestJSON(t, resp, http.StatusOK, &v)
	if v.Module == "" || v.Version == "" {
		t.Fatalf("version document missing module/version: %+v", v)
	}
	if v.GoVersion == "" {
		t.Errorf("version document missing go_version: %+v", v)
	}
}

// TestEventsClientDisconnect opens a pack of SSE streams, kills them
// abruptly mid-stream, and asserts every handler goroutine notices and
// exits: the sse-clients gauge drains to zero and the process goroutine
// count returns to its baseline neighbourhood (no leaked handlers).
func TestEventsClientDisconnect(t *testing.T) {
	reg := telemetry.New()
	srv := New(Config{Telemetry: reg, SSEInterval: 50 * time.Millisecond, Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	const clients = 8
	bodies := make([]*http.Response, 0, clients)
	for i := 0; i < clients; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/events?interval=50ms", ts.URL))
		if err != nil {
			t.Fatalf("GET /events (client %d): %v", i, err)
		}
		// Read up to the first event so the handler is known to be inside
		// its push loop, not still in handshake.
		sc := bufio.NewScanner(resp.Body)
		found := false
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: ") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("client %d saw no event before stream end", i)
		}
		bodies = append(bodies, resp)
	}
	if got := int(srv.sseClients.Value()); got != clients {
		t.Fatalf("sse client gauge = %d with %d streams open", got, clients)
	}

	// Abrupt disconnect: close the bodies without reading to EOF. The
	// handlers must notice via request-context cancellation or write error.
	for _, resp := range bodies {
		resp.Body.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for int(srv.sseClients.Value()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sse client gauge stuck at %d after disconnects", int(srv.sseClients.Value()))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Goroutine drain: allow generous slack for the test server's own
	// keep-alive conns, but 8 leaked handlers would blow well past it.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+clients/2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+clients/2 {
		t.Fatalf("goroutines = %d, baseline %d: SSE handlers leaked", n, baseline)
	}
}
