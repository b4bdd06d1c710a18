package bench_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pet/internal/bench"
	"pet/internal/sim"
	"pet/internal/topo"
	"pet/internal/trace"
	"pet/internal/workload"
)

// --- decode strictness: every bad document names its JSON path ---

func TestSpecDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		path string // wanted substring of the error
	}{
		{"invalid json", `{`, "invalid JSON"},
		{"unknown root field", `{"bogus": 1}`, "bogus: unknown field"},
		{"unknown topo field", `{"topo": {"spine": 2}}`, "topo.spine: unknown field"},
		{"unknown event field", `{"events": [{"at":"1ms","kind":"load-change","load":0.5},{"at":"2ms","kind":"link-down","frac":0.5}]}`, "events[1].frac: unknown field"},
		{"wrong type load", `{"load": "high"}`, "load: want a number"},
		{"wrong type seed", `{"seed": 1.5}`, "seed: want an integer"},
		{"wrong type topo", `{"topo": 3}`, "topo: want an object"},
		{"bad duration", `{"warmup": "fast"}`, `warmup: bad duration "fast"`},
		{"negative duration", `{"duration": "-1ms"}`, `duration: negative duration "-1ms"`},
		{"duration not string", `{"warmup": 20}`, "warmup: want a duration string"},
		{"negative picoseconds", `{"duration": "-7ps"}`, `duration: negative duration "-7ps"`},
		{"fractional picoseconds", `{"warmup": "1.5ps"}`, `warmup: bad duration "1.5ps"`},
		{"duration out of range", `{"duration": "3000h"}`, `duration: duration "3000h" out of range`},
		{"betas arity", `{"betas": [0.3]}`, "betas: want an array of 2 elements"},
		{"newer version", `{"version": 99}`, "version: document version 99 is newer"},
		{"root not object", `[1,2]`, "(document root): want an object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := bench.DecodeScenarioSpec([]byte(tc.doc))
			if err == nil {
				t.Fatalf("decode accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.path) {
				t.Fatalf("error %q does not name %q", err, tc.path)
			}
		})
	}
}

// A SimDuration keeps its Go spelling when it is a whole number of
// nanoseconds and is written as integer picoseconds otherwise; both decode
// back to the same time.
func TestSimDurationRoundTripsEveryPicosecond(t *testing.T) {
	for _, tc := range []struct {
		t    sim.Time
		want string
	}{
		{0, "0s"},
		{20 * sim.Millisecond, "20ms"},
		{1500 * sim.Millisecond, "1.5s"},
		{sim.Nanosecond, "1ns"},
		{7 * sim.Picosecond, "7ps"},
		{2 * sim.Millisecond / 6, "333333333ps"},
		{sim.Millisecond + sim.Picosecond, "1000000001ps"},
	} {
		d := bench.SimDuration(tc.t)
		data, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != `"`+tc.want+`"` {
			t.Fatalf("%d ps encodes as %s, want %q", int64(tc.t), data, tc.want)
		}
		var back bench.SimDuration
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if back != d {
			t.Fatalf("%s decodes to %d ps, want %d", data, int64(back), int64(tc.t))
		}
	}
	var d bench.SimDuration
	if err := d.Set("1000ps"); err != nil || d.Time() != sim.Nanosecond || d.String() != "1ns" {
		t.Fatalf(`Set("1000ps") = %d ps (%v), %v`, int64(d), d, err)
	}
}

func TestSpecToScenarioErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		path string
	}{
		{"unknown scheme", `{"scheme": "bogus"}`, "scheme: bench: unknown scheme"},
		{"unknown transport", `{"transport": "pigeon"}`, "transport: bench: unknown transport"},
		{"unknown workload", `{"workload": {"name": "bogus"}}`, "workload.name: workload: unknown workload"},
		{"empty workload", `{"workload": {}}`, "workload: need name or points"},
		{"bad inline cdf", `{"workload": {"points": [{"bytes":1,"frac":0}]}}`, "workload.points:"},
		{"unknown topo preset", `{"topo": {"preset": "galaxy"}}`, "topo.preset: topo: unknown preset"},
		{"invalid topo override", `{"topo": {"spines": -1}}`, "topo: topo: invalid spine count"},
		{"load range", `{"load": 1.5}`, "load: 1.5 out of range [0,1]"},
		{"incast range", `{"incast_fraction": -0.5}`, "incast_fraction: -0.5 out of range"},
		{"beta range", `{"betas": [0.3, 1.5]}`, "betas[1]: 1.5 out of range"},
		{"negative shards", `{"shards": -2}`, "shards: -2 is negative"},
		{"unknown event kind", `{"events": [{"at":"1ms","kind":"earthquake"}]}`, `events[0].kind: bench: unknown event kind "earthquake"`},
		{"event foreign field", `{"events": [{"at":"1ms","kind":"load-change","load":0.5,"fan_in":4}]}`, `events[0]: field "fan_in" does not apply to kind "load-change"`},
		{"link event needs target", `{"events": [{"at":"1ms","kind":"link-down"}]}`, "events[0]: need fraction or links"},
		{"link event both targets", `{"events": [{"at":"1ms","kind":"link-down","fraction":0.5,"links":2}]}`, "events[0]: fraction and links are mutually exclusive"},
		{"load-change needs load", `{"events": [{"at":"1ms","kind":"load-change"}]}`, "events[0]: need load"},
		{"workload-switch unknown", `{"events": [{"at":"1ms","kind":"workload-switch","workload":"bogus"}]}`, "events[0]: workload: unknown workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := bench.DecodeScenarioSpec([]byte(tc.doc))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			_, err = spec.ToScenario()
			if err == nil {
				t.Fatalf("ToScenario accepted %s", tc.doc)
			}
			var se *bench.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error %T is not a *SpecError", err)
			}
			if !strings.Contains(err.Error(), tc.path) {
				t.Fatalf("error %q does not name %q", err, tc.path)
			}
		})
	}
}

func TestSpecErrorUnwrapsTypedErrors(t *testing.T) {
	spec, err := bench.DecodeScenarioSpec([]byte(`{"workload": {"name": "bogus"}}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	_, err = spec.ToScenario()
	var uw *workload.UnknownWorkloadError
	if !errors.As(err, &uw) || uw.Name != "bogus" {
		t.Fatalf("error %v does not unwrap to *UnknownWorkloadError", err)
	}

	spec, err = bench.DecodeScenarioSpec([]byte(`{"events": [{"at":"1ms","kind":"quake"}]}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	_, err = spec.ToScenario()
	var ue *bench.UnknownEventKindError
	if !errors.As(err, &ue) || ue.Kind != "quake" {
		t.Fatalf("error %v does not unwrap to *UnknownEventKindError", err)
	}
}

// --- round-trip property: Decode(Encode(spec)) is the identity ---

func durPtr(d bench.SimDuration) *bench.SimDuration { return &d }
func f64Ptr(f float64) *float64                     { return &f }

// randomSpec builds a structurally valid spec from a deterministic stream.
func randomSpec(r *rand.Rand) *bench.ScenarioSpec {
	sp := &bench.ScenarioSpec{Version: r.Intn(2)}
	if r.Intn(2) == 0 {
		sp.Name = fmt.Sprintf("spec-%d", r.Intn(1000))
	}
	if r.Intn(3) == 0 {
		sp.Notes = "randomized round-trip probe"
	}
	if r.Intn(2) == 0 {
		presets := []string{"tiny", "small", "medium", "paper"}
		sp.Topo = &bench.TopoSpec{Preset: presets[r.Intn(len(presets))]}
		if r.Intn(2) == 0 {
			sp.Topo.HostsPerLeaf = 1 + r.Intn(8)
		}
		if r.Intn(3) == 0 {
			sp.Topo.UplinkGbps = float64(10 * (1 + r.Intn(10)))
		}
		if r.Intn(3) == 0 {
			sp.Topo.HostDelay = durPtr(bench.SimDuration(sim.Time(1+r.Intn(5)) * sim.Microsecond))
		}
	}
	sp.Seed = r.Int63n(1 << 30)
	switch r.Intn(3) {
	case 0:
		sp.Workload = &bench.WorkloadSpec{Name: []string{"websearch", "datamining"}[r.Intn(2)]}
	case 1:
		sp.Workload = &bench.WorkloadSpec{Points: []bench.CDFPoint{
			{Bytes: 1000, Frac: 0}, {Bytes: int64(2000 + r.Intn(10000)), Frac: 0.5}, {Bytes: 1 << 20, Frac: 1},
		}}
	}
	if r.Intn(2) == 0 {
		sp.Load = f64Ptr(float64(r.Intn(11)) / 10)
	}
	if r.Intn(2) == 0 {
		sp.IncastFraction = float64(r.Intn(10)) / 10
		sp.IncastFanIn = 1 + r.Intn(8)
	}
	if r.Intn(2) == 0 {
		names := bench.SchemeNames()
		sp.Scheme = string(names[r.Intn(len(names))])
	}
	if r.Intn(2) == 0 {
		sp.Transport = []string{"dcqcn", "dctcp"}[r.Intn(2)]
	}
	if r.Intn(3) == 0 {
		sp.Betas = &[2]float64{float64(r.Intn(11)) / 10, float64(r.Intn(11)) / 10}
	}
	sp.Train = r.Intn(2) == 0
	sp.TrainDuringMeasure = r.Intn(4) == 0
	if r.Intn(2) == 0 {
		sp.Warmup = durPtr(bench.SimDuration(sim.Time(r.Intn(20)) * sim.Millisecond))
	}
	if r.Intn(2) == 0 {
		sp.Duration = durPtr(bench.SimDuration(sim.Time(1+r.Intn(50)) * sim.Millisecond))
	}
	sp.HistoryK = r.Intn(4)
	if r.Intn(3) == 0 {
		sp.SeriesWindow = bench.SimDuration(sim.Time(1+r.Intn(10)) * sim.Millisecond)
	}
	sp.Shards = r.Intn(4)
	for i, n := 0, r.Intn(4); i < n; i++ {
		at := bench.SimDuration(sim.Time(1+r.Intn(40)) * sim.Millisecond)
		switch r.Intn(5) {
		case 0:
			sp.Events = append(sp.Events, bench.EventSpec{At: at, Kind: "link-down", Fraction: 0.25})
		case 1:
			sp.Events = append(sp.Events, bench.EventSpec{At: at, Kind: "link-up", Links: 1 + r.Intn(4)})
		case 2:
			sp.Events = append(sp.Events, bench.EventSpec{At: at, Kind: "load-change", Load: f64Ptr(float64(r.Intn(11)) / 10)})
		case 3:
			sp.Events = append(sp.Events, bench.EventSpec{At: at, Kind: "workload-switch", Workload: "datamining"})
		default:
			sp.Events = append(sp.Events, bench.EventSpec{At: at, Kind: "incast-burst", Groups: 1 + r.Intn(3), FanIn: r.Intn(8), ChunkBytes: 64 << 10})
		}
	}
	return sp
}

func TestSpecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		sp := randomSpec(r)
		data, err := sp.Encode()
		if err != nil {
			t.Fatalf("iter %d: Encode: %v", i, err)
		}
		back, err := bench.DecodeScenarioSpec(data)
		if err != nil {
			t.Fatalf("iter %d: Decode: %v\n%s", i, err, data)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Fatalf("iter %d: round trip drifted:\n was %+v\n got %+v\ndoc:\n%s", i, sp, back, data)
		}
		// A second encode of the decoded spec is byte-identical: the canonical
		// form is a fixed point.
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("iter %d: re-Encode: %v", i, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("iter %d: canonical form not a fixed point:\n%s\nvs\n%s", i, data, again)
		}
	}
}

// --- spec-built and hand-built scenarios run byte-identically ---

// runTraced executes a scenario with tracing on and returns the result plus
// the trace CSV bytes.
func runTraced(t *testing.T, s bench.Scenario) (bench.Result, string) {
	t.Helper()
	s.Trace = true
	env, err := bench.NewEnv(s)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	res := env.Run()
	var buf bytes.Buffer
	if err := env.Trace.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return res, buf.String()
}

func assertIdenticalRuns(t *testing.T, doc string, hand bench.Scenario) {
	t.Helper()
	spec, err := bench.DecodeScenarioSpec([]byte(doc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	fromSpec, err := spec.ToScenario()
	if err != nil {
		t.Fatalf("ToScenario: %v", err)
	}
	specRes, specTrace := runTraced(t, fromSpec)
	handRes, handTrace := runTraced(t, hand)
	if !reflect.DeepEqual(specRes, handRes) {
		t.Errorf("results diverge:\n spec %+v\n hand %+v", specRes, handRes)
	}
	if specTrace != handTrace {
		t.Errorf("trace CSVs diverge (%d vs %d bytes)", len(specTrace), len(handTrace))
	}
}

func TestSpecRunMatchesHandBuiltPlain(t *testing.T) {
	doc := `{
		"seed": 7,
		"workload": {"name": "websearch"},
		"load": 0.5,
		"scheme": "SECN1",
		"warmup": "200us",
		"duration": "800us"
	}`
	assertIdenticalRuns(t, doc, bench.Scenario{
		Seed:     7,
		Workload: workload.WebSearch(),
		Load:     0.5, ExplicitLoad: true,
		Scheme: bench.SchemeSECN1,
		Beta1:  0.3, Beta2: 0.7, ExplicitBetas: true,
		Warmup: 200 * sim.Microsecond, ExplicitWarmup: true,
		Duration: 800 * sim.Microsecond,
	})
}

func TestSpecRunMatchesHandBuiltWithEvents(t *testing.T) {
	doc := `{
		"seed": 11,
		"workload": {"name": "websearch"},
		"load": 0.5,
		"incast_fraction": 0.2,
		"incast_fan_in": 3,
		"scheme": "SECN1",
		"warmup": "200us",
		"duration": "800us",
		"events": [
			{"at": "300us", "kind": "link-down", "fraction": 0.5},
			{"at": "500us", "kind": "load-change", "load": 0.2},
			{"at": "700us", "kind": "incast-burst", "groups": 2, "fan_in": 3, "chunk_bytes": 32768}
		]
	}`
	assertIdenticalRuns(t, doc, bench.Scenario{
		Seed:     11,
		Workload: workload.WebSearch(),
		Load:     0.5, ExplicitLoad: true,
		IncastFraction: 0.2, IncastFanIn: 3,
		Scheme: bench.SchemeSECN1,
		Beta1:  0.3, Beta2: 0.7, ExplicitBetas: true,
		Warmup: 200 * sim.Microsecond, ExplicitWarmup: true,
		Duration: 800 * sim.Microsecond,
		Events: []bench.EventSpec{
			{At: bench.SimDuration(300 * sim.Microsecond), Kind: "link-down", Fraction: 0.5},
			{At: bench.SimDuration(500 * sim.Microsecond), Kind: "load-change", Load: f64Ptr(0.2)},
			{At: bench.SimDuration(700 * sim.Microsecond), Kind: "incast-burst", Groups: 2, FanIn: 3, ChunkBytes: 32768},
		},
	})
}

// shardedDoc is a document written when runs could be sharded; shards is
// spliced in after the duration.
const shardedDoc = `{
		"seed": 3,
		"workload": {"name": "datamining"},
		"load": 0.4,
		"scheme": "SECN2",
		"warmup": "200us",
		"duration": "800us"%s
	}`

// A document asking for more than one event loop is rejected at shards:
// every run uses one loop.
func TestSpecRejectsShardedDocument(t *testing.T) {
	spec, err := bench.DecodeScenarioSpec([]byte(fmt.Sprintf(shardedDoc, `, "shards": 2`)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	_, err = spec.ToScenario()
	var se *bench.SpecError
	if !errors.As(err, &se) || se.Path != "shards" {
		t.Fatalf("ToScenario of shards 2 = %v, want a *SpecError at shards", err)
	}
}

// "shards": 1 is accepted and changes nothing: it builds the same Scenario
// as the document without the key, and runs byte-identically to the
// hand-built one.
func TestSpecShardsOneRunsAsSingleLoop(t *testing.T) {
	toScenario := func(doc string) bench.Scenario {
		spec, err := bench.DecodeScenarioSpec([]byte(doc))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		s, err := spec.ToScenario()
		if err != nil {
			t.Fatalf("ToScenario: %v", err)
		}
		return s
	}
	one := fmt.Sprintf(shardedDoc, `, "shards": 1`)
	if a, b := toScenario(one), toScenario(fmt.Sprintf(shardedDoc, "")); !reflect.DeepEqual(a, b) {
		t.Fatalf("shards 1 builds a different Scenario:\n%+v\n%+v", a, b)
	}
	assertIdenticalRuns(t, one, bench.Scenario{
		Seed:     3,
		Workload: workload.DataMining(),
		Load:     0.4, ExplicitLoad: true,
		Scheme: bench.SchemeSECN2,
		Beta1:  0.7, Beta2: 0.3, ExplicitBetas: true,
		Warmup: 200 * sim.Microsecond, ExplicitWarmup: true,
		Duration: 800 * sim.Microsecond,
	})
}

// --- satellite: explicit zero values survive withDefaults ---

func TestWithDefaultsExplicitZeros(t *testing.T) {
	s := bench.Scenario{}.WithDefaults()
	if s.Load != 0.6 {
		t.Errorf("default load = %g, want 0.6", s.Load)
	}
	if s.Warmup != 20*sim.Millisecond {
		t.Errorf("default warmup = %v, want 20ms", s.Warmup)
	}
	if s.Beta1 != 0.3 || s.Beta2 != 0.7 {
		t.Errorf("default betas = (%g,%g), want (0.3,0.7)", s.Beta1, s.Beta2)
	}

	s = bench.Scenario{ExplicitLoad: true, ExplicitWarmup: true, ExplicitBetas: true}.WithDefaults()
	if s.Load != 0 {
		t.Errorf("explicit zero load overridden to %g", s.Load)
	}
	if s.Warmup != 0 {
		t.Errorf("explicit zero warmup overridden to %v", s.Warmup)
	}
	if s.Beta1 != 0 || s.Beta2 != 0 {
		t.Errorf("explicit zero betas overridden to (%g,%g)", s.Beta1, s.Beta2)
	}
}

func TestSpecExplicitZeroLoadSurvives(t *testing.T) {
	spec, err := bench.DecodeScenarioSpec([]byte(`{"load": 0, "warmup": "0s"}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	s, err := spec.ToScenario()
	if err != nil {
		t.Fatalf("ToScenario: %v", err)
	}
	if !s.ExplicitLoad || !s.ExplicitWarmup {
		t.Fatalf("explicit markers not set: load=%v warmup=%v", s.ExplicitLoad, s.ExplicitWarmup)
	}
	s = s.WithDefaults()
	if s.Load != 0 || s.Warmup != 0 {
		t.Fatalf("explicit zeros defaulted away: load=%g warmup=%v", s.Load, s.Warmup)
	}

	// An absent load still takes the 0.6 default.
	spec, err = bench.DecodeScenarioSpec([]byte(`{}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	s, err = spec.ToScenario()
	if err != nil {
		t.Fatalf("ToScenario: %v", err)
	}
	if s.ExplicitLoad {
		t.Fatal("absent load marked explicit")
	}
	if s = s.WithDefaults(); s.Load != 0.6 {
		t.Fatalf("absent load = %g after defaults, want 0.6", s.Load)
	}
}

// A zero-load scenario is expressible and runs: all traffic arrives through
// events (here a scheduled incast burst into silence).
func TestZeroLoadEventOnlyScenario(t *testing.T) {
	doc := `{
		"seed": 5,
		"load": 0,
		"scheme": "SECN1",
		"warmup": "0s",
		"duration": "1ms",
		"events": [
			{"at": "100us", "kind": "incast-burst", "groups": 1, "fan_in": 3, "chunk_bytes": 16384}
		]
	}`
	spec, err := bench.DecodeScenarioSpec([]byte(doc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	s, err := spec.ToScenario()
	if err != nil {
		t.Fatalf("ToScenario: %v", err)
	}
	env, err := bench.NewEnv(s)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	res := env.Run()
	if res.FlowsDone == 0 {
		t.Fatal("burst into idle fabric completed no flows")
	}
	if env.Gen.FlowsStarted != 3 {
		t.Fatalf("started %d flows, want exactly the 3 burst senders", env.Gen.FlowsStarted)
	}
}

// --- event registry surface ---

func TestEventKindNames(t *testing.T) {
	want := []string{"incast-burst", "link-down", "link-up", "load-change", "workload-switch"}
	if got := bench.EventKindNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("EventKindNames() = %v, want %v", got, want)
	}
}

func TestCompileEventsNamesIndex(t *testing.T) {
	_, err := bench.NewEnv(bench.Scenario{Events: []bench.EventSpec{
		{At: bench.SimDuration(sim.Millisecond), Kind: "load-change", Load: f64Ptr(0.5)},
		{At: bench.SimDuration(sim.Millisecond), Kind: "nope"},
	}})
	if err == nil || !strings.Contains(err.Error(), "events[1]") {
		t.Fatalf("error %v does not name events[1]", err)
	}
}

// Deterministic link selection: link-up restores exactly what link-down
// failed, so the trace shows one link set going down and the same set coming
// back up, and the fabric ends fully connected.
func TestLinkEventSelectionDeterministic(t *testing.T) {
	env, err := bench.NewEnv(bench.Scenario{
		Topo:     topo.SmallScale(),
		Warmup:   sim.Millisecond,
		Duration: sim.Millisecond,
		Trace:    true,
		Events: []bench.EventSpec{
			{At: bench.SimDuration(500 * sim.Microsecond), Kind: "link-down", Fraction: 0.5},
			{At: bench.SimDuration(1500 * sim.Microsecond), Kind: "link-up", Fraction: 0.5},
		},
	})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	env.Run()
	changed := map[string][]string{} // "up" value → links, in trace order
	for _, ev := range env.Trace.Filter(trace.LinkChange) {
		changed[ev.Fields[1].Value] = append(changed[ev.Fields[1].Value], ev.Fields[0].Value)
	}
	if down, up := changed["false"], changed["true"]; len(down) == 0 || !reflect.DeepEqual(down, up) {
		t.Fatalf("links down %v, back up %v", down, up)
	}
	for _, l := range env.Net.Graph().SwitchLinks() {
		if !env.Net.Graph().Link(l).Up {
			t.Fatalf("link %v down after link-up restored the failed set", l)
		}
	}
}

func TestComparedSchemes(t *testing.T) {
	want := []bench.Scheme{bench.SchemePET, bench.SchemeACC, bench.SchemeSECN1, bench.SchemeSECN2}
	if !reflect.DeepEqual(bench.ComparedSchemes(), want) {
		t.Fatalf("ComparedSchemes() = %v, want %v", bench.ComparedSchemes(), want)
	}
}
