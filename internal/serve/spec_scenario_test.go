package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pet/internal/bench"
	"pet/internal/sim"
	"pet/internal/telemetry"

	// The canned scenario library selects PET over dcqcn/dctcp; register
	// everything those documents can name.
	_ "pet/internal/core"
	_ "pet/internal/dcqcn"
	_ "pet/internal/dctcp"
)

// TestEmptySpecRunsPET: a job without a document runs defaultScenario, the
// learned controller with online training on.
func TestEmptySpecRunsPET(t *testing.T) {
	sp, s, err := ExperimentSpec{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindRun || s.Scheme != bench.SchemePET || !s.Train {
		t.Fatalf("ExperimentSpec{} = kind %q, scheme %q, train %v; want run, PET, true", sp.Kind, s.Scheme, s.Train)
	}
	// The accepted log line names the resolved run, defaults included.
	if got := runName(s); got != "PET/WebSearch" {
		t.Fatalf("runName(ExperimentSpec{}) = %q, want PET/WebSearch", got)
	}
	if _, s, _ = docSpec(`{"load":0.5}`).normalized(); runName(s) != "SECN1/WebSearch" {
		t.Fatalf("runName({load 0.5}) = %q, want SECN1/WebSearch", runName(s))
	}
}

func TestScenarioSpecJobRuns(t *testing.T) {
	m := NewManager(1, telemetry.New(), t.Logf)
	defer m.Shutdown(context.Background())

	st, err := m.Launch(docSpec(`{
		"seed": 3,
		"scheme": "SECN1",
		"load": 0.5,
		"warmup": "2ms",
		"duration": "3ms",
		"events": [{"at": "1500us", "kind": "load-change", "load": 0.9}]
	}`))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	done := waitTerminal(t, m, st.ID, 2*time.Minute)
	if done.State != StateDone {
		t.Fatalf("job finished %s (error %q), want %s", done.State, done.Error, StateDone)
	}
	if done.Result == nil || done.Result.FlowsDone == 0 {
		t.Fatalf("scenario job produced no flows: %+v", done.Result)
	}
}

func TestScenarioSpecJobValidation(t *testing.T) {
	m := NewManager(1, telemetry.New(), t.Logf)
	defer m.Shutdown(context.Background())

	cases := []struct {
		name string
		spec ExperimentSpec
		want string
	}{
		{
			"unknown field names path",
			docSpec(`{"topo": {"spine": 2}}`),
			"topo.spine: unknown field",
		},
		{
			"unknown scheme names path",
			docSpec(`{"scheme": "NOPE"}`),
			"scheme: bench: unknown scheme",
		},
		{
			"bad event names index",
			docSpec(`{"events": [{"at": "1ms", "kind": "quake"}]}`),
			"events[0].kind",
		},
		{
			"invalid json",
			docSpec(`{`),
			"invalid JSON",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := m.Launch(tc.spec)
			if err == nil {
				t.Fatal("Launch accepted a bad scenario spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestScenarioSpecHTTP400(t *testing.T) {
	srv := New(Config{MaxJobs: 1, Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/experiments", "application/json",
		strings.NewReader(`{"scenario": {"topo": {"spine": 2}, "duration": "2ms"}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var apiErr apiError
	decodeTestJSON(t, resp, http.StatusBadRequest, &apiErr)
	if !strings.Contains(apiErr.Error, "topo.spine") {
		t.Fatalf("400 body %q does not name the JSON path", apiErr.Error)
	}

	// A scenario field outside the document is an unknown field of the job.
	resp, err = http.Post(ts.URL+"/experiments", "application/json", strings.NewReader(`{"scheme":"SECN1"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	decodeTestJSON(t, resp, http.StatusBadRequest, &apiErr)
	if !strings.Contains(apiErr.Error, `"scheme"`) {
		t.Fatalf("400 body %q does not name the field", apiErr.Error)
	}

	// A good embedded document is accepted end to end.
	resp, err = http.Post(ts.URL+"/experiments", "application/json",
		strings.NewReader(`{"scenario": {"scheme": "SECN1", "load": 0.4, "warmup": "1ms", "duration": "2ms"}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var st JobStatus
	decodeTestJSON(t, resp, http.StatusAccepted, &st)
	if st.ID == "" {
		t.Fatal("accepted job has no ID")
	}
}

// Every canned library scenario is a valid petd job spec: it passes launch
// validation embedded as-is, and one runs end to end.
func TestCannedScenariosAsJobSpecs(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario library found: %v", err)
	}
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := docSpec(string(doc)).normalized(); err != nil {
			t.Errorf("%s rejected as a job spec: %v", filepath.Base(f), err)
		}
	}

	m := NewManager(1, telemetry.New(), t.Logf)
	defer m.Shutdown(context.Background())
	doc, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "failure-storm.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Shorten the canned windows so the test stays fast.
	sp, err := bench.DecodeScenarioSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	warmup, duration := bench.SimDuration(2*sim.Millisecond), bench.SimDuration(3*sim.Millisecond)
	sp.Warmup, sp.Duration = &warmup, &duration
	if doc, err = sp.Encode(); err != nil {
		t.Fatal(err)
	}
	st, err := m.Launch(docSpec(string(doc)))
	if err != nil {
		t.Fatalf("Launch failure-storm: %v", err)
	}
	done := waitTerminal(t, m, st.ID, 2*time.Minute)
	if done.State != StateDone {
		t.Fatalf("failure-storm finished %s (error %q)", done.State, done.Error)
	}
}

// FuzzExperimentSpec decodes arbitrary POST /experiments bodies as strictly
// as the handler does, then validates them: an error or a launchable spec,
// never a panic.
func FuzzExperimentSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no scenario library found: %v", err)
	}
	for _, file := range files {
		doc, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(`{"scenario":` + string(doc) + `}`))
		f.Add([]byte(`{"kind":"pretrain","scenario":` + string(doc) + `}`))
	}
	// The README's request bodies.
	f.Add([]byte(`{"scenario":{"scheme":"PET","load":0.6,"duration":"60ms"}}`))
	f.Add([]byte(`{"kind":"pretrain","scenario":{"duration":"8ms"},"workers":2,"rounds":3}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec ExperimentSpec
		if err := decodeJSONStrict(raw, &spec); err != nil {
			return
		}
		sp, _, err := spec.normalized()
		if err != nil {
			return
		}
		if (sp.Kind != KindRun && sp.Kind != KindPretrain) || len(sp.Scenario) == 0 {
			t.Fatalf("accepted spec has kind %q, scenario %q", sp.Kind, sp.Scenario)
		}
	})
}
