package bench

import (
	"cmp"
	"fmt"
	"slices"

	"pet/internal/sim"
	"pet/internal/workload"
)

// This file is the evaluation as data: each exhibit — the paper's figures
// and Table I, then the design-choice ablations and extras DESIGN.md calls
// out — is a list of result cells plus a renderer of their results.

// Exhibit is one table or figure of the evaluation: the result cells it
// reads, in order, and the renderer that turns their results into tables.
type Exhibit struct {
	Name   string
	cells  func(r *Runner) []Cell
	render func(r *Runner, cells []Cell, res []Result) []*Table
}

// Exhibits lists the evaluation's exhibits in the order petbench renders
// them: the paper's figures and table, then the ablations and extras.
func Exhibits() []Exhibit {
	return []Exhibit{fig3, fig4, fig5, fig6, fig7, fig8, fig9, table1,
		overhead, historyK, rewardBeta, dynamicBaselines, ctde, transportCompat}
}

// Tables runs (or recalls) the exhibit's cells on r, all at once, and
// renders them. If cells fail, it returns the error of the first in cell
// order, once every cell has finished.
func (e Exhibit) Tables(r *Runner) ([]*Table, error) {
	cells := e.cells(r)
	res := make([]Result, len(cells))
	err := all(len(cells), func(i int) (err error) {
		res[i], err = r.runCell(cells[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.render(r, cells, res), nil
}

// table runs a one-table exhibit.
func (r *Runner) table(e Exhibit) (*Table, error) {
	tables, err := e.Tables(r)
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// The exhibits one by one; each renders what its variable below documents.
func (r *Runner) Fig3() *Table                            { return fig3.render(r, nil, nil)[0] }
func (r *Runner) Fig4() ([]*Table, error)                 { return fig4.Tables(r) }
func (r *Runner) Fig5() ([]*Table, error)                 { return fig5.Tables(r) }
func (r *Runner) Fig6() ([]*Table, error)                 { return fig6.Tables(r) }
func (r *Runner) Fig7() (*Table, error)                   { return r.table(fig7) }
func (r *Runner) Fig8() (*Table, error)                   { return r.table(fig8) }
func (r *Runner) Fig9() (*Table, error)                   { return r.table(fig9) }
func (r *Runner) Table1() (*Table, error)                 { return r.table(table1) }
func (r *Runner) AblationReplayOverhead() (*Table, error) { return r.table(overhead) }
func (r *Runner) AblationHistoryK() (*Table, error)       { return r.table(historyK) }
func (r *Runner) AblationRewardBeta() (*Table, error)     { return r.table(rewardBeta) }
func (r *Runner) DynamicBaselines() (*Table, error)       { return r.table(dynamicBaselines) }
func (r *Runner) AblationCTDE() (*Table, error)           { return r.table(ctde) }
func (r *Runner) TransportCompat() (*Table, error)        { return r.table(transportCompat) }

const websearch, datamining = "websearch", "datamining"

// at60 is one WebSearch cell per scheme at 60% load, the operating point
// of Table I and the ablations.
func at60(schemes ...Scheme) func(*Runner) []Cell {
	return func(r *Runner) []Cell {
		cells := make([]Cell, len(schemes))
		for i, scheme := range schemes {
			cells[i] = r.cell(scheme, websearch, 0.6)
		}
		return cells
	}
}

// The metrics the tables print, formatted.
func overallAvg(res Result) string  { return f2(res.Overall.AvgSlowdown) }
func miceAvg(res Result) string     { return f2(res.MiceBkt.AvgSlowdown) }
func miceP99(res Result) string     { return f2(res.MiceBkt.P99Slowdown) }
func elephantAvg(res Result) string { return f2(res.Elephant.AvgSlowdown) }
func queueAvg(res Result) string    { return f1(res.QueueAvgKB) }
func overheadOf(name string) func(Result) string {
	return func(res Result) string { return fmt.Sprintf("%d", res.Overhead[name]) }
}

// column is one column of a per-cell table, or one row of a per-metric
// one: its heading and the entry it reads off a cell and its result.
type column struct {
	head string
	of   func(Cell, Result) string
}

// schemeCol names each cell's scheme.
var schemeCol = column{"scheme", func(c Cell, _ Result) string { return c.Spec.Scheme }}

// metric is a column read off the result alone.
func metric(head string, of func(Result) string) column {
	return column{head, func(_ Cell, res Result) string { return of(res) }}
}

// perCell renders a table with a row per cell and the given columns.
func perCell(title, note string, cols ...column) func(*Runner, []Cell, []Result) []*Table {
	return func(_ *Runner, cells []Cell, res []Result) []*Table {
		t := &Table{Title: title}
		for _, col := range cols {
			t.Columns = append(t.Columns, col.head)
		}
		for i, c := range cells {
			row := make([]string, len(cols))
			for j, col := range cols {
				row[j] = col.of(c, res[i])
			}
			t.AddRow(row...)
		}
		if note != "" {
			t.Note("%s", note)
		}
		return []*Table{t}
	}
}

// perMetric renders a table with a row per metric and a column per cell,
// under the given headings.
func perMetric(title, note string, heads []string, rows ...column) func(*Runner, []Cell, []Result) []*Table {
	return func(_ *Runner, cells []Cell, res []Result) []*Table {
		t := &Table{Title: title, Columns: heads}
		for _, m := range rows {
			row := []string{m.head}
			for i, c := range cells {
				row = append(row, m.of(c, res[i]))
			}
			t.AddRow(row...)
		}
		t.Note("%s", note)
		return []*Table{t}
	}
}

// panel is one scheme × load grid over a registered workload: a row per
// scheme, a column per runner load, each entry one metric of that cell.
type panel struct {
	title, workload string
	schemes         []Scheme
	metric          func(Result) string
}

// sweep is an exhibit of panels, with an optional footnote on each.
func sweep(name, note string, panels ...panel) Exhibit {
	cells := func(r *Runner) []Cell {
		var cells []Cell
		for _, p := range panels {
			for _, scheme := range p.schemes {
				for _, load := range r.Loads {
					cells = append(cells, r.cell(scheme, p.workload, load))
				}
			}
		}
		return cells
	}
	render := func(r *Runner, _ []Cell, res []Result) []*Table {
		cols := []string{"scheme"}
		for _, l := range r.Loads {
			cols = append(cols, fmt.Sprintf("%d%%", int(l*100+0.5)))
		}
		tables := make([]*Table, len(panels))
		for i, p := range panels {
			tables[i] = &Table{Title: p.title, Columns: cols}
			for _, scheme := range p.schemes {
				row := []string{string(scheme)}
				for range r.Loads {
					row, res = append(row, p.metric(res[0])), res[1:]
				}
				tables[i].AddRow(row...)
			}
			if note != "" {
				tables[i].Note("%s", note)
			}
		}
		return tables
	}
	return Exhibit{name, cells, render}
}

// dynamicDuration is the measurement window of the time-series runs. The
// paper runs ~12 s with switches at 4.1/8.1/9.1 s; we scale 100× down and
// keep the same relative switch points.
func (r *Runner) dynamicDuration() sim.Time { return 12 * r.Duration / 6 } // 2× the sweep window

// seriesCells are the Fig. 6/7 cells for PET and ACC: one long run each at
// 60% WebSearch with FCT series in dur/12 windows and online training kept
// on while measuring (live adaptation is what they measure). Each event's At
// is an offset into the measurement window, so perturbations land at the
// same point for every scheme whatever its warm-up.
func (r *Runner) seriesCells(name string, events ...EventSpec) []Cell {
	cells := at60(SchemePET, SchemeACC)(r)
	for i := range cells {
		sp := &cells[i].Spec
		sp.Name = "series/" + name + "/" + sp.Scheme
		sp.Duration = simDur(r.dynamicDuration())
		sp.SeriesWindow = SimDuration(r.dynamicDuration() / 12)
		sp.TrainDuringMeasure = true
		for _, ev := range events {
			ev.At += *sp.Warmup
			sp.Events = append(sp.Events, ev)
		}
	}
	return cells
}

// seriesTable renders one named series (mice/elephant/all) of the series
// cells: a row per window start any of them saw, a column per cell.
func seriesTable(title, series string, cells []Cell, results []Result) *Table {
	t := &Table{Title: title, Columns: []string{"t (ms)"}}
	means := make([]map[sim.Time]string, len(results))
	var starts []sim.Time
	for i, res := range results {
		t.Columns = append(t.Columns, cells[i].Spec.Scheme)
		means[i] = map[sim.Time]string{}
		if ts := res.Series[series]; ts != nil {
			for _, b := range ts.Buckets() {
				means[i][b.Start] = f2(b.Mean)
				starts = append(starts, b.Start)
			}
		}
	}
	slices.Sort(starts)
	for _, start := range slices.Compact(starts) {
		row := []string{fmt.Sprintf("%.0f", float64(start)/float64(sim.Millisecond))}
		for _, m := range means {
			row = append(row, cmp.Or(m[start], "-"))
		}
		t.AddRow(row...)
	}
	return t
}

var (
	compared = ComparedSchemes()

	// fig3 prints the two workload CDFs (the paper's traffic distributions).
	fig3 = Exhibit{"fig3", func(*Runner) []Cell { return nil }, func(*Runner, []Cell, []Result) []*Table {
		t := &Table{Title: "Fig. 3 — Traffic distributions (flow size CDF)",
			Columns: []string{"percentile", "WebSearch (bytes)", "DataMining (bytes)"}}
		ws, dm := workload.WebSearch(), workload.DataMining()
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
			t.AddRow(fmt.Sprintf("P%g", p*100), fmt.Sprintf("%.0f", ws.Quantile(p)), fmt.Sprintf("%.0f", dm.Quantile(p)))
		}
		t.Note("analytic means: WebSearch %.0f B, DataMining %.0f B", ws.Mean(), dm.Mean())
		return []*Table{t}
	}}

	// fig4 is the four FCT panels under Web Search, all as normalized FCT
	// (slowdown): (a) overall average, (b) mice average, (c) mice 99th
	// percentile, (d) elephant average.
	fig4 = sweep("fig4", "",
		panel{"Fig. 4(a) — WebSearch overall avg normalized FCT", websearch, compared, overallAvg},
		panel{"Fig. 4(b) — WebSearch mice (0,100KB] avg normalized FCT", websearch, compared, miceAvg},
		panel{"Fig. 4(c) — WebSearch mice (0,100KB] 99th-pct normalized FCT", websearch, compared, miceP99},
		panel{"Fig. 4(d) — WebSearch elephant [10MB,inf) avg normalized FCT", websearch, compared, elephantAvg})

	// fig5 compares overall FCT across the two workloads.
	fig5 = sweep("fig5", "",
		panel{"Fig. 5(a) — WebSearch overall avg normalized FCT", websearch, compared, overallAvg},
		panel{"Fig. 5(b) — DataMining overall avg normalized FCT", datamining, compared, overallAvg})

	// fig6 is the convergence experiment: the background workload abruptly
	// switches WebSearch → DataMining → WebSearch → DataMining, and the
	// per-window average normalized FCT traces how fast each learned
	// scheme re-converges.
	fig6 = Exhibit{"fig6",
		func(r *Runner) []Cell {
			dur, load := r.dynamicDuration(), 0.6
			return r.seriesCells("fig6",
				EventSpec{At: SimDuration(dur * 4 / 12), Kind: "workload-switch", Workload: datamining, Load: &load},
				EventSpec{At: SimDuration(dur * 8 / 12), Kind: "workload-switch", Workload: websearch, Load: &load},
				EventSpec{At: SimDuration(dur * 9 / 12), Kind: "workload-switch", Workload: datamining, Load: &load})
		},
		func(r *Runner, cells []Cell, res []Result) []*Table {
			dur := r.dynamicDuration()
			ta := seriesTable("Fig. 6(a) — pattern switching, elephant avg normalized FCT over time", "elephant", cells, res)
			tb := seriesTable("Fig. 6(b) — pattern switching, mice avg normalized FCT over time", "mice", cells, res)
			ta.Note("workload switches at t=%v, %v and %v", dur*4/12, dur*8/12, dur*9/12)
			return []*Table{ta, tb}
		}}

	// fig7 is the robustness experiment: ~10% of fabric links fail partway
	// through and are restored later; the series shows degradation and
	// recovery.
	fig7 = Exhibit{"fig7",
		func(r *Runner) []Cell {
			dur := r.dynamicDuration()
			return r.seriesCells("fig7",
				EventSpec{At: SimDuration(dur * 3 / 12), Kind: "link-down", Fraction: 0.10},
				EventSpec{At: SimDuration(dur * 6 / 12), Kind: "link-up", Fraction: 0.10})
		},
		func(r *Runner, cells []Cell, res []Result) []*Table {
			dur := r.dynamicDuration()
			t := seriesTable("Fig. 7 — link failure robustness, overall avg normalized FCT over time", "all", cells, res)
			t.Note("10%% of switch-switch links fail at t=%v, restored at t=%v", dur*3/12, dur*6/12)
			return []*Table{t}
		}}

	// fig8 is the per-packet latency comparison (Web Search).
	fig8 = sweep("fig8", "",
		panel{"Fig. 8 — WebSearch per-packet latency, avg (p99) µs", websearch, compared,
			func(res Result) string { return fmt.Sprintf("%.1f (%.1f)", res.LatencyAvgUs, res.LatencyP99Us) }})

	// fig9 is the state ablation: PET with vs without the incast-degree and
	// mice/elephant-ratio states.
	fig9 = sweep("fig9", "PET-ablated removes D_incast and R_flow from the state (ACC's state set)",
		panel{"Fig. 9 — State ablation (WebSearch overall avg normalized FCT)", websearch,
			[]Scheme{SchemePET, SchemePETAblated}, overallAvg})

	// table1 is the queue length statistics at 60% load.
	table1 = Exhibit{"table1", at60(SchemePET, SchemeACC, SchemeSECN1, SchemeSECN2),
		perMetric("Table I — Queue length statistics at 60% load (WebSearch)",
			"paper reports PET 5.3/10.2 KB vs ACC 6.1/14.1 KB on the 25G fabric",
			[]string{"queue length", "PET", "ACC", "SECN1", "SECN2"},
			metric("Average", func(res Result) string { return f1(res.QueueAvgKB) + "KB" }),
			metric("Variance", func(res Result) string { return f1(res.QueueVarKB) + "KB" }))}

	// overhead quantifies Goal 3: ACC's global-replay gossip and memory
	// versus PET's zero exchange.
	overhead = Exhibit{"overhead", at60(SchemePET, SchemeACC),
		perMetric("Ablation — learning-overhead comparison at 60% load",
			"IPPO learns on local trajectories only; DDQN gossips every transition to every other switch",
			[]string{"metric", "PET (IPPO)", "ACC (DDQN + global replay)"},
			metric("replay bytes exchanged", overheadOf(OverheadReplayBytes)),
			metric("replay memory (bytes)", overheadOf(OverheadReplayMemory)),
			metric("overall avg normalized FCT", overallAvg))}

	// historyK probes sensitivity to the k-slot state history (Eq. 3). The
	// architecture differs per k, so no pretrained bundle fits: each k
	// trains online from scratch.
	historyK = Exhibit{"historyk",
		func(r *Runner) []Cell {
			cells := at60(SchemePET, SchemePET, SchemePET)(r)
			for i, k := range []int{1, 3, 5} {
				cells[i].Spec.Name, cells[i].Spec.HistoryK = fmt.Sprintf("historyk/%d", k), k
				r.online(&cells[i])
			}
			return cells
		},
		perCell("Ablation — PET state history depth k", "",
			column{"k", func(c Cell, _ Result) string { return fmt.Sprintf("%d", c.Spec.HistoryK) }},
			metric("overall avg nFCT", overallAvg), metric("mice avg nFCT", miceAvg), metric("mice p99 nFCT", miceP99))}

	// rewardBeta contrasts the paper's two reward weightings — the
	// latency-leaning Web Search setting and the throughput-leaning Data
	// Mining setting — both trained online and evaluated on WebSearch.
	rewardBeta = Exhibit{"beta",
		func(r *Runner) []Cell {
			cells := at60(SchemePET, SchemePET)(r)
			for i, b := range [][2]float64{{0.3, 0.7}, {0.7, 0.3}} {
				cells[i].Spec.Name, cells[i].Spec.Betas = fmt.Sprintf("beta/%.1f", b[0]), &b
				r.online(&cells[i])
			}
			return cells
		},
		perCell("Ablation — reward weights β1/β2 (WebSearch @60%)",
			"larger β2 favors short queues (mice latency); larger β1 favors throughput",
			column{"β1/β2", func(c Cell, _ Result) string { return fmt.Sprintf("%.1f/%.1f", c.Spec.Betas[0], c.Spec.Betas[1]) }},
			metric("mice avg nFCT", miceAvg), metric("elephant avg nFCT", elephantAvg), metric("queue avg KB", queueAvg))}

	// dynamicBaselines compares PET against the rule-based dynamic tuners
	// of the related work (AMT, QAECN) alongside the paper's comparison set
	// — the three generations of ECN tuning (static → dynamic → learned)
	// side by side.
	dynamicBaselines = Exhibit{"dynamic",
		at60(SchemeSECN1, SchemeSECN2, SchemeAMT, SchemeQAECN, SchemeACC, SchemePET),
		perCell("Extra — static vs dynamic vs learned ECN tuning (WebSearch)",
			"AMT follows link utilization, QAECN follows instantaneous queue length (Sec. 2.2)",
			schemeCol,
			metric("overall avg nFCT", overallAvg), metric("mice avg nFCT", miceAvg),
			metric("mice p99 nFCT", miceP99), metric("queue avg KB", queueAvg))}

	// ctde measures the DTDE-vs-CTDE trade-off of Sec. 4.1.2: MAPPO's
	// centralized critic needs every switch's observation shipped to a
	// trainer every interval, while IPPO's agents stay local. PET-CTDE has
	// no bundle format, so it trains online.
	ctde = Exhibit{"ctde",
		func(r *Runner) []Cell {
			cells := at60(SchemePET, SchemePETCTDE)(r)
			r.online(&cells[1])
			return cells
		},
		perMetric("Ablation — DTDE (IPPO) vs CTDE (MAPPO) at 60% load",
			"CTDE ships every agent's state to a central trainer each Δt (Sec. 4.1.2's bandwidth objection)",
			[]string{"metric", "PET (DTDE)", "PET-CTDE (MAPPO)"},
			metric("overall avg normalized FCT", overallAvg),
			metric("mice avg normalized FCT", miceAvg),
			metric("observation bytes shipped", overheadOf(OverheadCentralBytes)))}

	// transportCompat exercises the paper's compatibility claim: PET tunes
	// switch-side thresholds only, so it works unchanged whether the
	// servers run rate-based DCQCN (RDMA) or window-based DCTCP (TCP). The
	// DCQCN cells are the 60% cells other exhibits run; PET's
	// DCQCN-pretrained bundle deploys unchanged on DCTCP hosts.
	transportCompat = Exhibit{"compat",
		func(r *Runner) []Cell {
			var cells []Cell
			for _, tk := range []TransportKind{TransportDCQCN, TransportDCTCP} {
				for _, c := range at60(SchemePET, SchemeSECN1)(r) {
					c.Spec.Name, c.Spec.Transport = fmt.Sprintf("compat/%s/%s", tk, c.Spec.Scheme), string(tk)
					cells = append(cells, c)
				}
			}
			return cells
		},
		perCell("Extra — PET across end-host transports (WebSearch @60%)",
			"PET's DCQCN-pretrained models run as-is on DCTCP hosts (no server-side changes)",
			column{"transport", func(c Cell, _ Result) string { return c.Spec.Transport }},
			schemeCol,
			metric("overall avg nFCT", overallAvg), metric("mice avg nFCT", miceAvg), metric("queue avg KB", queueAvg))}
)
