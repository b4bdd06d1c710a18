package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// declared checks one metric list of BENCHMARK.json against the harness's.
func declared(t *testing.T, what string, file []benchMetric, defs []metricDef) {
	t.Helper()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[string]string{}
	for _, d := range defs {
		want[d.name] = d.unit
	}
	if len(file) != len(defs) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", what, len(file), len(defs))
	}
	for _, m := range file {
		unit, ok := want[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: BENCHMARK.json declares %q, which the harness never emits", what, m.Name)
		case m.Unit == "" || m.Unit != unit:
			t.Errorf("%s: %q has unit %q in BENCHMARK.json and %q in the harness", what, m.Name, m.Unit, unit)
		case !nameRE.MatchString(m.Name):
			t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", what, m.Name)
		case m.Better != "lower" && m.Better != "higher":
			t.Errorf("%s: %q has direction %q", what, m.Name, m.Better)
		}
	}
}

func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	declared(t, "end_to_end", bf.EndToEnd, endToEnd)
	declared(t, "per_layer", bf.PerLayer, perLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames, ","); got != want {
		t.Errorf("workloads: BENCHMARK.json has %s, the harness %s", got, want)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at 1/20 scale — one
// of them with the traced pass, since only one CPU profile can be open — and
// checks the result line against the declared sets.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, name := range workloadNames {
		name, traced := name, name == "serve_batch"
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, spans, err := runWorkload(name, 7, 1, traced, out, root)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
			}
			var buf bytes.Buffer
			rep.print(&buf)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var result struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&result); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if result.Correct == nil || result.Attempted == nil || result.Failed == nil {
				t.Fatalf("result object lacks a key: %s", lines[len(lines)-1])
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if len(spans) == 0 {
					t.Error("traced pass recorded no span")
				}
				var share float64
				for _, l := range cpuLayers {
					share += result.Metrics[cpuShareName(l)].Value
				}
				if math.Abs(share-1) > 0.02 {
					t.Errorf("cpu shares sum to %v, want 1 ± 0.02", share)
				}
			}
			if len(result.Metrics) != len(defs) {
				t.Errorf("result has %d metrics, want %d", len(result.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := result.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s: got %+v (present %v), want a finite value in %s", d.name, m, ok, d.unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}
		})
	}
}

func TestLayerOfFunc(t *testing.T) {
	for name, want := range map[string]string{
		"pet/internal/sim.(*Engine).Step":          "sim",
		"pet/internal/rl/ppo.(*Agent).Act":         "ppo",
		"pet/internal/rl.GAEInto":                  "ppo",
		"pet/internal/rl/ddqn.(*Agent).Observe":    "other",
		"pet/internal/mat.(*Matrix).MulVec":        "nn",
		"pet/internal/dctcp.(*Transport).onAck":    "dcqcn",
		"pet/internal/jsonlog.Replay[...]":         "other",
		"pet/internal/serve.(*Server).handleInfer": "serve",
		"pet.NewRunner":                            "bench",
		"main.(*run).load.func1":                   "serve.client",
		"container/heap.Pop":                       "",
		"runtime.mallocgc":                         "",
		"net/http.(*conn).serve":                   "",
	} {
		if got := layerOfFunc(name); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to the values Python's
// statistics.quantiles(v, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 2, 8, 4, 6, 1, 9, 3, 7, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got, want := spread(v), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, v); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("BENCHMARK.json", map[string]any{
		"workloads": []map[string]string{{"name": "w"}},
		"end_to_end": []benchMetric{
			{Name: "lat", Unit: "us", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "noisy", Unit: "s", Better: "lower", Bound: 0.1},
		},
	})
	ledgerOf := func(lat, rate float64, noisy []float64) ledger {
		var l ledger
		for _, n := range noisy {
			l.Runs = append(l.Runs, report{Workload: "w", EndToEnd: metricSet{
				"lat": {lat, "us"}, "rate": {rate, "1/s"}, "noisy": {n, "s"}}})
		}
		l.summarise()
		return l
	}
	a := write("a.json", ledgerOf(100, 50, []float64{1, 1, 1, 1}))
	b := write("b.json", ledgerOf(105, 40, []float64{1, 2, 3, 4}))
	var buf bytes.Buffer
	worse, err := compareLedgers(&buf, bench, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 20% drop of a higher-is-better metric was not reported as worse")
	}
	for metric, verdict := range map[string]string{"lat": "ok", "rate": "worse", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, metric+" ") && strings.HasSuffix(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q row with verdict %q in:\n%s", metric, verdict, buf.String())
		}
	}
	data, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(data)), "\"claim\": null\n}") {
		t.Errorf("ledger does not end with a null claim: ...%s", data[len(data)-40:])
	}
}
