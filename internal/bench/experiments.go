package bench

import (
	"fmt"

	"pet/internal/sim"
	"pet/internal/stats"
	"pet/internal/telemetry"
	"pet/internal/topo"
	"pet/internal/workload"
)

// Runner regenerates the paper's tables and figures. Results are cached by
// (scheme, workload, load) so experiments sharing a sweep (Fig. 4 and
// Fig. 8, for instance) pay for each simulation once.
//
// The fabric is a scaled-down leaf-spine (see DESIGN.md): absolute numbers
// shrink with the topology, but the comparisons — who wins, by roughly what
// factor, where the curves cross — are the reproduction target.
type Runner struct {
	Topo  topo.LeafSpineConfig
	Seed  int64
	Seeds int // independent seeds averaged per cell (default 1)
	Loads []float64

	TrainTime sim.Time // offline pre-training budget for learned schemes
	Warmup    sim.Time
	Duration  sim.Time

	IncastFraction float64
	IncastFanIn    int

	// Telemetry, when non-nil, is threaded into every scenario the runner
	// executes (pre-training episodes included) so a long petbench sweep
	// can be watched live over HTTP. Observation-only, like everywhere.
	Telemetry *telemetry.Registry

	// Shards is threaded into every scenario (see Scenario.Shards): <=1
	// keeps the classic single event loop, >=2 runs each simulation on a
	// sharded engine. Results are identical either way; only wall-clock
	// changes.
	Shards int

	// Progress, when non-nil, receives a line for each simulation the
	// runner is about to execute — cache misses only, so the stream tracks
	// real work. CLIs point it at stderr to narrate long sweeps.
	Progress func(msg string)

	cache     map[string]Result
	petModels map[string][]byte
}

// progress reports one unit of upcoming work to the Progress hook, if any.
func (r *Runner) progress(format string, a ...any) {
	if r.Progress != nil {
		r.Progress(fmt.Sprintf(format, a...))
	}
}

// NewRunner returns a runner with laptop-scale defaults.
func NewRunner() *Runner {
	return &Runner{
		Topo:           topo.TinyScale(),
		Seed:           1,
		Seeds:          1,
		Loads:          []float64{0.3, 0.5, 0.7},
		TrainTime:      300 * sim.Millisecond,
		Warmup:         30 * sim.Millisecond,
		Duration:       150 * sim.Millisecond,
		IncastFraction: 0.2,
		IncastFanIn:    3,
		cache:          map[string]Result{},
		petModels:      map[string][]byte{},
	}
}

// scenario builds the canonical scenario for one (scheme, workload, load).
func (r *Runner) scenario(scheme Scheme, wl *workload.CDF, load float64) (Scenario, error) {
	b1, b2 := defaultBetas(wl)
	s := Scenario{
		Topo:           r.Topo,
		Seed:           r.Seed,
		Workload:       wl,
		Load:           load,
		IncastFraction: r.IncastFraction,
		IncastFanIn:    r.IncastFanIn,
		Scheme:         scheme,
		Beta1:          b1,
		Beta2:          b2,
		Warmup:         r.Warmup,
		Duration:       r.Duration,
		Telemetry:      r.Telemetry,
		Shards:         r.Shards,
	}
	switch scheme {
	case SchemePET, SchemePETAblated:
		s.Train = true
		m, err := r.pretrained(scheme, wl)
		if err != nil {
			return Scenario{}, err
		}
		s.Models = m
	case SchemeACC:
		s.Train = true
		// ACC trains online only; granting it the same total training time
		// as PET's pretrain+warmup keeps the comparison fair.
		s.Warmup += r.TrainTime
	}
	return s, nil
}

// pretrained returns (building on demand) the offline-trained PET models
// for a workload — the hybrid training pipeline of Sec. 4.4.
func (r *Runner) pretrained(scheme Scheme, wl *workload.CDF) ([]byte, error) {
	key := string(scheme) + "/" + wl.Name()
	if m, ok := r.petModels[key]; ok {
		return m, nil
	}
	b1, b2 := defaultBetas(wl)
	r.progress("pretrain %s on %s (%v)", scheme, wl.Name(), r.TrainTime)
	m, err := PretrainPET(Scenario{
		Topo:           r.Topo,
		Seed:           r.Seed + 1000,
		Workload:       wl,
		Load:           0.6,
		IncastFraction: r.IncastFraction,
		IncastFanIn:    r.IncastFanIn,
		Scheme:         scheme,
		Beta1:          b1,
		Beta2:          b2,
		Telemetry:      r.Telemetry,
		Shards:         r.Shards,
	}, r.TrainTime)
	if err != nil {
		return nil, err
	}
	r.petModels[key] = m
	return m, nil
}

// run executes (or recalls) the canonical run for a combination, averaging
// across r.Seeds independent seeds.
func (r *Runner) run(scheme Scheme, wl *workload.CDF, load float64) (Result, error) {
	return r.runCell(fmt.Sprintf("%s/%s/%.2f", scheme, wl.Name(), load), scheme, wl, load, nil)
}

// runCell executes (or recalls) one result cell under key: each of r.Seeds
// seeds runs the canonical scenario for the combination, first edited by
// adjust (nil = none), and the cell averages them.
func (r *Runner) runCell(key string, scheme Scheme, wl *workload.CDF, load float64, adjust func(*Scenario)) (Result, error) {
	if res, ok := r.cache[key]; ok {
		return res, nil
	}
	n := r.Seeds
	if n < 1 {
		n = 1
	}
	results := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.scenario(scheme, wl, load)
		if err != nil {
			return Result{}, err
		}
		s.Seed = r.Seed + int64(i)*7919
		if adjust != nil {
			adjust(&s)
		}
		r.progress("run %s seed %d/%d", key, i+1, n)
		res, err := Run(s)
		if err != nil {
			return Result{}, err
		}
		results = append(results, res)
	}
	res := mergeResults(results)
	r.cache[key] = res
	return res, nil
}

// mergeResults averages scalar metrics across seeds (P99s are averaged
// per-seed P99s); counters are summed; overhead counters are averaged
// per-seed; the first seed's series is kept.
func mergeResults(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := rs[0]
	mergeSummary := func(get func(*Result) *stats.Summary) {
		var avgFCT, p99FCT, avgS, p99S float64
		n, nonEmpty := 0, 0
		for i := range rs {
			s := get(&rs[i])
			n += s.N
			if s.N == 0 {
				// A seed whose window completed no flows of this bucket
				// carries no information; averaging its zeros in would
				// bias the cell low.
				continue
			}
			nonEmpty++
			avgFCT += float64(s.AvgFCT)
			p99FCT += float64(s.P99FCT)
			avgS += s.AvgSlowdown
			p99S += s.P99Slowdown
		}
		if nonEmpty == 0 {
			*get(&out) = stats.Summary{}
			return
		}
		k := float64(nonEmpty)
		*get(&out) = stats.Summary{
			N:           n,
			AvgFCT:      sim.Time(avgFCT / k),
			P99FCT:      sim.Time(p99FCT / k),
			AvgSlowdown: avgS / k,
			P99Slowdown: p99S / k,
		}
	}
	mergeSummary(func(r *Result) *stats.Summary { return &r.Overall })
	mergeSummary(func(r *Result) *stats.Summary { return &r.MiceBkt })
	mergeSummary(func(r *Result) *stats.Summary { return &r.Elephant })
	mergeSummary(func(r *Result) *stats.Summary { return &r.Incast })
	var latA, latP, qA, qV float64
	var flows int
	var drops uint64
	overhead := map[string]int64{}
	for i := range rs {
		latA += rs[i].LatencyAvgUs
		latP += rs[i].LatencyP99Us
		qA += rs[i].QueueAvgKB
		qV += rs[i].QueueVarKB
		flows += rs[i].FlowsDone
		drops += rs[i].Drops
		for name, v := range rs[i].Overhead {
			overhead[name] += v
		}
	}
	k := float64(len(rs))
	out.LatencyAvgUs = latA / k
	out.LatencyP99Us = latP / k
	out.QueueAvgKB = qA / k
	out.QueueVarKB = qV / k
	out.FlowsDone = flows
	out.Drops = drops
	out.Overhead = nil
	if len(overhead) > 0 {
		for name := range overhead {
			overhead[name] /= int64(len(rs))
		}
		out.Overhead = overhead
	}
	return out
}

// loadCols renders "30%", "50%", … headers.
func (r *Runner) loadCols() []string {
	cols := []string{"scheme"}
	for _, l := range r.Loads {
		cols = append(cols, fmt.Sprintf("%d%%", int(l*100+0.5)))
	}
	return cols
}

// Fig3 prints the two workload CDFs (the paper's traffic distributions).
func (r *Runner) Fig3() *Table {
	t := &Table{
		Title:   "Fig. 3 — Traffic distributions (flow size CDF)",
		Columns: []string{"percentile", "WebSearch (bytes)", "DataMining (bytes)"},
	}
	ws, dm := workload.WebSearch(), workload.DataMining()
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		t.AddRow(
			fmt.Sprintf("P%g", p*100),
			fmt.Sprintf("%.0f", ws.Quantile(p)),
			fmt.Sprintf("%.0f", dm.Quantile(p)),
		)
	}
	t.Note("analytic means: WebSearch %.0f B, DataMining %.0f B", ws.Mean(), dm.Mean())
	return t
}

// fctPanel renders one Fig. 4 panel: a metric for every scheme across loads.
func (r *Runner) fctPanel(title string, wl *workload.CDF, metric func(Result) float64) (*Table, error) {
	t := &Table{Title: title, Columns: r.loadCols()}
	for _, scheme := range ComparedSchemes() {
		row := []string{string(scheme)}
		for _, load := range r.Loads {
			res, err := r.run(scheme, wl, load)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(metric(res)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig4 regenerates the four FCT panels under the Web Search workload:
// (a) overall average, (b) mice average, (c) mice 99th percentile,
// (d) elephant average — all as normalized FCT (slowdown).
func (r *Runner) Fig4() ([]*Table, error) {
	ws := workload.WebSearch()
	var out []*Table
	for _, p := range []struct {
		title  string
		metric func(Result) float64
	}{
		{"Fig. 4(a) — WebSearch overall avg normalized FCT",
			func(res Result) float64 { return res.Overall.AvgSlowdown }},
		{"Fig. 4(b) — WebSearch mice (0,100KB] avg normalized FCT",
			func(res Result) float64 { return res.MiceBkt.AvgSlowdown }},
		{"Fig. 4(c) — WebSearch mice (0,100KB] 99th-pct normalized FCT",
			func(res Result) float64 { return res.MiceBkt.P99Slowdown }},
		{"Fig. 4(d) — WebSearch elephant [10MB,inf) avg normalized FCT",
			func(res Result) float64 { return res.Elephant.AvgSlowdown }},
	} {
		t, err := r.fctPanel(p.title, ws, p.metric)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig5 compares overall FCT across the two workloads.
func (r *Runner) Fig5() ([]*Table, error) {
	ta, err := r.fctPanel("Fig. 5(a) — WebSearch overall avg normalized FCT", workload.WebSearch(),
		func(res Result) float64 { return res.Overall.AvgSlowdown })
	if err != nil {
		return nil, err
	}
	tb, err := r.fctPanel("Fig. 5(b) — DataMining overall avg normalized FCT", workload.DataMining(),
		func(res Result) float64 { return res.Overall.AvgSlowdown })
	if err != nil {
		return nil, err
	}
	return []*Table{ta, tb}, nil
}

// Table1 reproduces the queue length statistics at 60% load.
func (r *Runner) Table1() (*Table, error) {
	t := &Table{
		Title:   "Table I — Queue length statistics at 60% load (WebSearch)",
		Columns: []string{"queue length", "PET", "ACC", "SECN1", "SECN2"},
	}
	ws := workload.WebSearch()
	var avg, vr []string
	for _, scheme := range []Scheme{SchemePET, SchemeACC, SchemeSECN1, SchemeSECN2} {
		res, err := r.run(scheme, ws, 0.6)
		if err != nil {
			return nil, err
		}
		avg = append(avg, f1(res.QueueAvgKB)+"KB")
		vr = append(vr, f1(res.QueueVarKB)+"KB")
	}
	t.AddRow(append([]string{"Average"}, avg...)...)
	t.AddRow(append([]string{"Variance"}, vr...)...)
	t.Note("paper reports PET 5.3/10.2 KB vs ACC 6.1/14.1 KB on the 25G fabric")
	return t, nil
}

// Fig8 reproduces the per-packet latency comparison (Web Search).
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{Title: "Fig. 8 — WebSearch per-packet latency, avg (p99) µs", Columns: r.loadCols()}
	ws := workload.WebSearch()
	for _, scheme := range ComparedSchemes() {
		row := []string{string(scheme)}
		for _, load := range r.Loads {
			res, err := r.run(scheme, ws, load)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f (%.1f)", res.LatencyAvgUs, res.LatencyP99Us))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig9 is the state ablation: PET with vs without the incast-degree and
// mice/elephant-ratio states.
func (r *Runner) Fig9() (*Table, error) {
	t := &Table{Title: "Fig. 9 — State ablation (WebSearch overall avg normalized FCT)", Columns: r.loadCols()}
	ws := workload.WebSearch()
	for _, scheme := range []Scheme{SchemePET, SchemePETAblated} {
		row := []string{string(scheme)}
		for _, load := range r.Loads {
			res, err := r.run(scheme, ws, load)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(res.Overall.AvgSlowdown))
		}
		t.AddRow(row...)
	}
	t.Note("PET-ablated removes D_incast and R_flow from the state (ACC's state set)")
	return t, nil
}
