package bench_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"reflect"
	"strconv"
	"strings"

	"pet/internal/stats"
	"testing"

	"pet/internal/bench"
	"pet/internal/sim"

	// Register every scheme and transport the harness tests exercise.
	_ "pet/internal/acc"
	_ "pet/internal/core"
	_ "pet/internal/dcqcn"
	_ "pet/internal/dctcp"
	_ "pet/internal/dynecn"
	_ "pet/internal/staticecn"
)

// quickRunner keeps harness tests fast: short windows, one load.
func quickRunner() *bench.Runner {
	r := bench.NewRunner()
	r.Loads = []float64{0.5}
	r.TrainTime = 5 * sim.Millisecond
	r.Warmup = 5 * sim.Millisecond
	r.Duration = 10 * sim.Millisecond
	return r
}

func TestTableRendering(t *testing.T) {
	tb := &bench.Table{Title: "T", Columns: []string{"a", "bbbb"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	tb.Note("note %d", 7)
	out := tb.String()
	for _, want := range []string{"== T ==", "a", "bbbb", "longer", "# note 7", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunStaticSchemeProducesStats(t *testing.T) {
	res, err := bench.Run(bench.Scenario{
		Scheme:   bench.SchemeSECN1,
		Load:     0.5,
		Warmup:   5 * sim.Millisecond,
		Duration: 15 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsDone == 0 {
		t.Fatal("no flows completed")
	}
	if res.Overall.AvgSlowdown < 1 {
		t.Fatalf("avg slowdown %v < 1 (faster than ideal?)", res.Overall.AvgSlowdown)
	}
	if res.LatencyAvgUs <= 0 || res.LatencyP99Us < res.LatencyAvgUs {
		t.Fatalf("latency stats avg=%v p99=%v", res.LatencyAvgUs, res.LatencyP99Us)
	}
	if res.QueueAvgKB < 0 {
		t.Fatalf("queue avg %v", res.QueueAvgKB)
	}
	if res.Overhead[bench.OverheadReplayBytes] != 0 {
		t.Fatal("static scheme reported replay exchange")
	}
}

func TestRunPETAndACCSchemes(t *testing.T) {
	for _, scheme := range []bench.Scheme{bench.SchemePET, bench.SchemePETAblated, bench.SchemeACC, bench.SchemeAMT, bench.SchemeQAECN} {
		res, err := bench.Run(bench.Scenario{
			Scheme:   scheme,
			Train:    true,
			Load:     0.5,
			Warmup:   5 * sim.Millisecond,
			Duration: 10 * sim.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.FlowsDone == 0 {
			t.Fatalf("%s: no flows completed", scheme)
		}
		if scheme == bench.SchemeACC && res.Overhead[bench.OverheadReplayBytes] == 0 {
			t.Fatal("ACC global replay idle")
		}
	}
}

func TestDCTCPTransportScenario(t *testing.T) {
	res, err := bench.Run(bench.Scenario{
		Scheme:    bench.SchemePET,
		Train:     true,
		Transport: bench.TransportDCTCP,
		Load:      0.5,
		Warmup:    5 * sim.Millisecond,
		Duration:  15 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsDone == 0 {
		t.Fatal("no flows completed over DCTCP")
	}
	if res.LatencyAvgUs <= 0 {
		t.Fatal("no latency samples over DCTCP")
	}
	if res.Overall.AvgSlowdown < 1 {
		t.Fatalf("slowdown %v < 1", res.Overall.AvgSlowdown)
	}
}

func TestRunCTDEScheme(t *testing.T) {
	res, err := bench.Run(bench.Scenario{
		Scheme:             bench.SchemePETCTDE,
		Train:              true,
		TrainDuringMeasure: true,
		Load:               0.5,
		Warmup:             5 * sim.Millisecond,
		Duration:           10 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsDone == 0 {
		t.Fatal("no flows under CTDE")
	}
	if res.Overhead[bench.OverheadCentralBytes] == 0 {
		t.Fatal("CTDE observation shipping not metered")
	}
}

func TestPretrainedModelsLoadable(t *testing.T) {
	models, err := bench.PretrainPET(bench.Scenario{Load: 0.5}, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("empty model bundle")
	}
	res, err := bench.Run(bench.Scenario{
		Scheme:   bench.SchemePET,
		Models:   models,
		Train:    true,
		Load:     0.5,
		Warmup:   2 * sim.Millisecond,
		Duration: 8 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsDone == 0 {
		t.Fatal("pretrained run produced no flows")
	}
}

func TestEventsFire(t *testing.T) {
	load := 0.3
	env, err := bench.NewEnv(bench.Scenario{
		Scheme:   bench.SchemeSECN1,
		Load:     load,
		Warmup:   2 * sim.Millisecond,
		Duration: 6 * sim.Millisecond,
		Events: []bench.EventSpec{{
			At:   bench.SimDuration(4 * sim.Millisecond),
			Kind: "workload-switch", Workload: "datamining", Load: &load,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	if got := env.Gen.Config().CDF.Name(); got != "DataMining" {
		t.Fatalf("workload after the run = %s, want DataMining: event did not fire", got)
	}
}

func TestLinkFailureEventDisruptsAndRecovers(t *testing.T) {
	res, err := bench.Run(bench.Scenario{
		Scheme:       bench.SchemeSECN1,
		Load:         0.4,
		Warmup:       2 * sim.Millisecond,
		Duration:     20 * sim.Millisecond,
		SeriesWindow: 2 * sim.Millisecond,
		Events: []bench.EventSpec{
			{At: bench.SimDuration(6 * sim.Millisecond), Kind: "link-down", Fraction: 0.3},
			{At: bench.SimDuration(12 * sim.Millisecond), Kind: "link-up", Fraction: 0.3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsDone == 0 {
		t.Fatal("no flows after failure/recovery")
	}
	if res.Series["all"] == nil {
		t.Fatal("series not collected")
	}
}

func TestRunnerCachesRuns(t *testing.T) {
	r := quickRunner()
	cell := r.SweepCell(bench.SchemeSECN1, "websearch", 0.5)
	if _, err := r.RunCell(cell); err != nil {
		t.Fatal(err)
	}
	n := r.CacheSize()
	if _, err := r.RunCell(cell); err != nil {
		t.Fatal(err)
	}
	if r.CacheSize() != n {
		t.Fatal("cache miss on repeat run")
	}
}

func TestFig3Table(t *testing.T) {
	tb := bench.NewRunner().Fig3()
	if len(tb.Rows) != 8 {
		t.Fatalf("Fig3 rows = %d", len(tb.Rows))
	}
	out := tb.String()
	if !strings.Contains(out, "WebSearch") || !strings.Contains(out, "DataMining") {
		t.Fatal("Fig3 missing workloads")
	}
}

// An ablation cell honours Runner.Seeds like a sweep cell: at Seeds 2 it is
// the merge of the two single-seed runs of the same variant.
func TestAblationCellAveragesSeeds(t *testing.T) {
	two := quickRunner()
	two.Seeds = 2
	if _, err := two.AblationRewardBeta(); err != nil {
		t.Fatal(err)
	}
	betaCell := func(r *bench.Runner) bench.Cell { return exhibit(t, "beta").Cells(r)[0] }
	got, ok := two.Cached(betaCell(two))
	if !ok {
		t.Fatal("no β 0.3/0.7 cell cached")
	}
	var singles []bench.Result
	for _, seed := range []int64{two.Seed, two.Seed + 7919} {
		one := quickRunner()
		one.Seed = seed
		if _, err := one.AblationRewardBeta(); err != nil {
			t.Fatal(err)
		}
		res, _ := one.Cached(betaCell(one))
		singles = append(singles, res)
	}
	if want := bench.MergeResults(singles); !reflect.DeepEqual(got, want) {
		t.Fatalf("Seeds 2 cell = %+v\nwant the merge of its seeds = %+v", got.Overall, want.Overall)
	}
}

func TestFig9AblationTable(t *testing.T) {
	r := quickRunner()
	tb, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("Fig9 rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != string(bench.SchemePET) || tb.Rows[1][0] != string(bench.SchemePETAblated) {
		t.Fatalf("Fig9 schemes = %v / %v", tb.Rows[0][0], tb.Rows[1][0])
	}
}

func TestTable1Shape(t *testing.T) {
	r := quickRunner()
	tb, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 || len(tb.Columns) != 5 {
		t.Fatalf("Table1 shape: %d rows × %d cols", len(tb.Rows), len(tb.Columns))
	}
	if tb.Rows[0][0] != "Average" || tb.Rows[1][0] != "Variance" {
		t.Fatal("Table1 row labels wrong")
	}
}

func TestAblationReplayOverheadTable(t *testing.T) {
	r := quickRunner()
	tb, err := r.AblationReplayOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][1] != "0" {
		t.Fatalf("PET exchange = %s, want 0", tb.Rows[0][1])
	}
	if tb.Rows[0][2] == "0" {
		t.Fatal("ACC exchange reported as 0")
	}
}

func TestTableCSV(t *testing.T) {
	tb := &bench.Table{Title: "T", Columns: []string{"a", "b"}}
	tb.AddRow("x", "1,5") // embedded comma must be quoted
	tb.Note("n")
	csv := tb.CSV()
	want := "# T\na,b\nx,\"1,5\"\n# n\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestIdealPathDelaySlowdownsAtLeastOne(t *testing.T) {
	// On an idle fabric every completed flow must have slowdown ≥ ~1
	// (small pacing slack allowed), for both intra- and cross-leaf pairs.
	env, err := bench.NewEnv(bench.Scenario{
		Scheme:   bench.SchemeSECN1,
		Load:     0.05, // nearly idle
		Warmup:   2 * sim.Millisecond,
		Duration: 30 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := env.Run()
	if res.FlowsDone == 0 {
		t.Fatal("no flows")
	}
	for _, rec := range env.Collector.Records() {
		if rec.Slowdown < 0.99 {
			t.Fatalf("slowdown %v < 1 for size %d", rec.Slowdown, rec.Size)
		}
	}
}

func TestTraceCollection(t *testing.T) {
	env, err := bench.NewEnv(bench.Scenario{
		Scheme:   bench.SchemePET,
		Train:    true,
		Load:     0.4,
		Warmup:   2 * sim.Millisecond,
		Duration: 6 * sim.Millisecond,
		Trace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	if env.Trace.Len() == 0 {
		t.Fatal("no trace events recorded")
	}
	kinds := map[string]bool{}
	for _, e := range env.Trace.Events() {
		kinds[string(e.Kind)] = true
	}
	for _, want := range []string{"flow_start", "flow_done", "ecn_change"} {
		if !kinds[want] {
			t.Fatalf("trace missing %q events (have %v)", want, kinds)
		}
	}
}

func TestPretrainEpisodeDeterministicAndChains(t *testing.T) {
	s := bench.Scenario{Load: 0.4}
	ctx := context.Background()
	a, err := bench.PretrainEpisode(ctx, s, 3*sim.Millisecond, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.PretrainEpisode(ctx, s, 3*sim.Millisecond, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Models, b.Models) {
		t.Fatal("same (scenario, seed) episode produced different bundles")
	}
	if a.MeanReward <= 0 {
		t.Fatalf("mean reward = %v", a.MeanReward)
	}
	// Episodes chain: a later episode starts from the earlier weights.
	if _, err := bench.PretrainEpisode(ctx, s, 3*sim.Millisecond, 8, a.Models); err != nil {
		t.Fatalf("chained episode: %v", err)
	}
	// A corrupt base bundle is an error, not a panic.
	if _, err := bench.PretrainEpisode(ctx, s, 3*sim.Millisecond, 8, []byte("junk")); err == nil {
		t.Fatal("junk base models accepted")
	}
}

func TestPretrainEpisodeCancellation(t *testing.T) {
	s := bench.Scenario{Load: 0.4}
	// A pre-cancelled context fails fast with a typed, matchable error.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := bench.PretrainEpisode(cancelled, s, 3*sim.Millisecond, 7, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled episode err = %v, want context.Canceled", err)
	}
	// A nil context behaves as Background and must match the explicit one
	// byte for byte — cancellation plumbing is observation-only.
	a, err := bench.PretrainEpisode(nil, s, 3*sim.Millisecond, 7, nil) //nolint:staticcheck // nil ctx is part of the contract
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.PretrainEpisode(context.Background(), s, 3*sim.Millisecond, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Models, b.Models) {
		t.Fatal("nil-context episode differs from Background-context episode")
	}
}

func TestEpisodeTraceCSVRoundTrip(t *testing.T) {
	// Export a real episode's trace and re-parse it: every recorded event
	// must come back, in insertion order with nondecreasing timestamps.
	env, err := bench.NewEnv(bench.Scenario{
		Scheme:   bench.SchemePET,
		Train:    true,
		Load:     0.4,
		Warmup:   2 * sim.Millisecond,
		Duration: 6 * sim.Millisecond,
		Trace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	if env.Trace.Len() == 0 {
		t.Fatal("no trace events recorded")
	}
	var buf bytes.Buffer
	if err := env.Trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("episode CSV does not re-parse: %v", err)
	}
	if got, want := len(rows)-1, env.Trace.Len(); got != want {
		t.Fatalf("exported %d rows for %d events", got, want)
	}
	kindCol := -1
	for i, k := range rows[0] {
		if k == "kind" {
			kindCol = i
		}
	}
	if kindCol < 0 {
		t.Fatalf("no kind column in header %v", rows[0])
	}
	prev := -1.0
	for i, e := range env.Trace.Events() {
		row := rows[1+i]
		if row[kindCol] != string(e.Kind) {
			t.Fatalf("row %d kind %q, event %q", i, row[kindCol], e.Kind)
		}
		tus, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			t.Fatalf("row %d t_us %q: %v", i, row[0], err)
		}
		if tus < prev {
			t.Fatalf("row %d timestamp %v before %v", i, tus, prev)
		}
		prev = tus
	}
}

func TestMergeResultsSkipsEmptyBuckets(t *testing.T) {
	a := bench.Result{Overall: stats.Summary{N: 10, AvgSlowdown: 4}, Elephant: stats.Summary{N: 2, AvgSlowdown: 2}}
	b := bench.Result{Overall: stats.Summary{N: 8, AvgSlowdown: 6}, Elephant: stats.Summary{}} // no elephants this seed
	m := bench.MergeResults([]bench.Result{a, b})
	if m.Overall.AvgSlowdown != 5 {
		t.Fatalf("overall merged = %v, want 5", m.Overall.AvgSlowdown)
	}
	// The empty-elephant seed must not drag the average to 1.
	if m.Elephant.AvgSlowdown != 2 {
		t.Fatalf("elephant merged = %v, want 2", m.Elephant.AvgSlowdown)
	}
	if m.Elephant.N != 2 || m.Overall.N != 18 {
		t.Fatalf("counts = %d/%d", m.Elephant.N, m.Overall.N)
	}
	// All-empty bucket merges to zero.
	c := bench.MergeResults([]bench.Result{{}, {}})
	if c.Elephant.AvgSlowdown != 0 {
		t.Fatalf("all-empty merge = %v", c.Elephant.AvgSlowdown)
	}
}
