package bench

import (
	"fmt"
	"sort"

	"pet/internal/sim"
	"pet/internal/workload"
)

// This file holds the dynamic experiments — traffic-pattern switching
// (Fig. 6) and link-failure robustness (Fig. 7) — plus the design-choice
// ablations DESIGN.md calls out beyond the paper's own.

// dynamicDuration is the measurement window of the time-series runs. The
// paper runs ~12 s with switches at 4.1/8.1/9.1 s; we scale 100× down and
// keep the same relative switch points.
func (r *Runner) dynamicDuration() sim.Time { return 12 * r.Duration / 6 } // 2× the sweep window

// seriesRun executes one long run with time-series collection. mkEvents
// receives the scheme's actual warmup end so that perturbations land at the
// same offsets into the measurement window for every scheme (ACC's warmup
// is extended by its online-only training time).
func (r *Runner) seriesRun(scheme Scheme, mkEvents func(w sim.Time) []EventSpec, window sim.Time, key string) (Result, error) {
	return r.runCell("series/"+key+"/"+string(scheme), scheme, workload.WebSearch(), 0.6, func(s *Scenario) {
		s.Duration = r.dynamicDuration()
		s.SeriesWindow = window
		s.TrainDuringMeasure = true // live adaptation is what Fig. 6/7 measure
		s.Events = mkEvents(s.Warmup)
	})
}

// seriesTable renders one named series (mice/elephant/all) for a scheme set.
func seriesTable(title, series string, schemes []Scheme, results []Result, window sim.Time) *Table {
	cols := []string{"t (ms)"}
	for _, s := range schemes {
		cols = append(cols, string(s))
	}
	t := &Table{Title: title, Columns: cols}

	// Union of bucket starts across schemes.
	starts := map[sim.Time]bool{}
	for _, res := range results {
		if ts := res.Series[series]; ts != nil {
			for _, b := range ts.Buckets() {
				starts[b.Start] = true
			}
		}
	}
	var order []sim.Time
	for s := range starts {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	for _, start := range order {
		row := []string{fmt.Sprintf("%.0f", float64(start)/float64(sim.Millisecond))}
		for _, res := range results {
			cell := "-"
			if ts := res.Series[series]; ts != nil {
				for _, b := range ts.Buckets() {
					if b.Start == start {
						cell = f2(b.Mean)
						break
					}
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// Fig6 reproduces the convergence experiment: the background workload
// abruptly switches WebSearch → DataMining → WebSearch → DataMining, and
// the per-window average normalized FCT traces how fast each learned
// scheme re-converges.
func (r *Runner) Fig6() ([]*Table, error) {
	dur := r.dynamicDuration()
	load := 0.6
	mkEvents := func(w sim.Time) []EventSpec {
		return []EventSpec{
			{At: SimDuration(w + dur*4/12), Kind: "workload-switch", Workload: "datamining", Load: &load},
			{At: SimDuration(w + dur*8/12), Kind: "workload-switch", Workload: "websearch", Load: &load},
			{At: SimDuration(w + dur*9/12), Kind: "workload-switch", Workload: "datamining", Load: &load},
		}
	}
	window := dur / 12
	schemes := []Scheme{SchemePET, SchemeACC}
	var results []Result
	for _, s := range schemes {
		res, err := r.seriesRun(s, mkEvents, window, "fig6")
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	ta := seriesTable("Fig. 6(a) — pattern switching, elephant avg normalized FCT over time",
		"elephant", schemes, results, window)
	tb := seriesTable("Fig. 6(b) — pattern switching, mice avg normalized FCT over time",
		"mice", schemes, results, window)
	ta.Note("workload switches at t=%v, %v and %v", dur*4/12, dur*8/12, dur*9/12)
	return []*Table{ta, tb}, nil
}

// Fig7 reproduces the robustness experiment: ~10%% of fabric links fail
// partway through and are restored later; the series shows degradation and
// recovery.
func (r *Runner) Fig7() (*Table, error) {
	dur := r.dynamicDuration()
	failOff := dur * 3 / 12
	restoreOff := dur * 6 / 12
	mkEvents := func(w sim.Time) []EventSpec {
		return []EventSpec{
			{At: SimDuration(w + failOff), Kind: "link-down", Fraction: 0.10},
			{At: SimDuration(w + restoreOff), Kind: "link-up", Fraction: 0.10},
		}
	}
	window := dur / 12
	schemes := []Scheme{SchemePET, SchemeACC}
	var results []Result
	for _, s := range schemes {
		res, err := r.seriesRun(s, mkEvents, window, "fig7")
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	t := seriesTable("Fig. 7 — link failure robustness, overall avg normalized FCT over time",
		"all", schemes, results, window)
	t.Note("10%% of switch-switch links fail at t=%v, restored at t=%v", failOff, restoreOff)
	return t, nil
}

// AblationReplayOverhead quantifies Goal 3: ACC's global-replay gossip and
// memory versus PET's zero exchange.
func (r *Runner) AblationReplayOverhead() (*Table, error) {
	ws := workload.WebSearch()
	pet, err := r.run(SchemePET, ws, 0.6)
	if err != nil {
		return nil, err
	}
	accRes, err := r.run(SchemeACC, ws, 0.6)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation — learning-overhead comparison at 60% load",
		Columns: []string{"metric", "PET (IPPO)", "ACC (DDQN + global replay)"},
	}
	t.AddRow("replay bytes exchanged", "0", fmt.Sprintf("%d", accRes.Overhead[OverheadReplayBytes]))
	t.AddRow("replay memory (bytes)", "0", fmt.Sprintf("%d", accRes.Overhead[OverheadReplayMemory]))
	t.AddRow("overall avg normalized FCT", f2(pet.Overall.AvgSlowdown), f2(accRes.Overall.AvgSlowdown))
	t.Note("IPPO learns on local trajectories only; DDQN gossips every transition to every other switch")
	return t, nil
}

// AblationHistoryK probes sensitivity to the k-slot state history (Eq. 3).
func (r *Runner) AblationHistoryK() (*Table, error) {
	t := &Table{
		Title:   "Ablation — PET state history depth k",
		Columns: []string{"k", "overall avg nFCT", "mice avg nFCT", "mice p99 nFCT"},
	}
	for _, k := range []int{1, 3, 5} {
		res, err := r.runCell(fmt.Sprintf("historyk/%d", k), SchemePET, workload.WebSearch(), 0.6, func(s *Scenario) {
			s.HistoryK = k
			s.Models = nil // architecture differs per k; train online from scratch
			s.Warmup += r.TrainTime
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", k),
			f2(res.Overall.AvgSlowdown), f2(res.MiceBkt.AvgSlowdown), f2(res.MiceBkt.P99Slowdown))
	}
	return t, nil
}

// DynamicBaselines compares PET against the rule-based dynamic tuners of
// the related work (AMT, QAECN) alongside the paper's comparison set — the
// three generations of ECN tuning (static → dynamic → learned) side by side.
func (r *Runner) DynamicBaselines() (*Table, error) {
	t := &Table{
		Title:   "Extra — static vs dynamic vs learned ECN tuning (WebSearch)",
		Columns: []string{"scheme", "overall avg nFCT", "mice avg nFCT", "mice p99 nFCT", "queue avg KB"},
	}
	ws := workload.WebSearch()
	for _, scheme := range []Scheme{SchemeSECN1, SchemeSECN2, SchemeAMT, SchemeQAECN, SchemeACC, SchemePET} {
		res, err := r.run(scheme, ws, 0.6)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(scheme),
			f2(res.Overall.AvgSlowdown), f2(res.MiceBkt.AvgSlowdown),
			f2(res.MiceBkt.P99Slowdown), f1(res.QueueAvgKB))
	}
	t.Note("AMT follows link utilization, QAECN follows instantaneous queue length (Sec. 2.2)")
	return t, nil
}

// TransportCompat exercises the paper's compatibility claim: PET tunes
// switch-side thresholds only, so it works unchanged whether the servers
// run rate-based DCQCN (RDMA) or window-based DCTCP (TCP).
func (r *Runner) TransportCompat() (*Table, error) {
	t := &Table{
		Title:   "Extra — PET across end-host transports (WebSearch @60%)",
		Columns: []string{"transport", "scheme", "overall avg nFCT", "mice avg nFCT", "queue avg KB"},
	}
	ws := workload.WebSearch()
	for _, tk := range []TransportKind{TransportDCQCN, TransportDCTCP} {
		for _, scheme := range []Scheme{SchemePET, SchemeSECN1} {
			// PET's DCQCN-pretrained models deploy unchanged on the DCTCP
			// fabric — the compatibility claim itself.
			res, err := r.runCell(fmt.Sprintf("compat/%s/%s", tk, scheme), scheme, ws, 0.6, func(s *Scenario) {
				s.Transport = tk
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(string(tk), string(scheme),
				f2(res.Overall.AvgSlowdown), f2(res.MiceBkt.AvgSlowdown), f1(res.QueueAvgKB))
		}
	}
	t.Note("PET's DCQCN-pretrained models run as-is on DCTCP hosts (no server-side changes)")
	return t, nil
}

// AblationCTDE measures the DTDE-vs-CTDE trade-off of Sec. 4.1.2: MAPPO's
// centralized critic needs every switch's observation shipped to a trainer
// every interval, while IPPO's agents stay local.
func (r *Runner) AblationCTDE() (*Table, error) {
	ws := workload.WebSearch()
	dtde, err := r.run(SchemePET, ws, 0.6)
	if err != nil {
		return nil, err
	}

	ctde, err := r.runCell("ctde/0.6", SchemePETCTDE, ws, 0.6, func(s *Scenario) {
		s.Train = true
		s.Models = nil
		s.Warmup += r.TrainTime // no pretrained bundle format for CTDE
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation — DTDE (IPPO) vs CTDE (MAPPO) at 60% load",
		Columns: []string{"metric", "PET (DTDE)", "PET-CTDE (MAPPO)"},
	}
	t.AddRow("overall avg normalized FCT", f2(dtde.Overall.AvgSlowdown), f2(ctde.Overall.AvgSlowdown))
	t.AddRow("mice avg normalized FCT", f2(dtde.MiceBkt.AvgSlowdown), f2(ctde.MiceBkt.AvgSlowdown))
	t.AddRow("observation bytes shipped", "0", fmt.Sprintf("%d", ctde.Overhead[OverheadCentralBytes]))
	t.Note("CTDE ships every agent's state to a central trainer each Δt (Sec. 4.1.2's bandwidth objection)")
	return t, nil
}

// AblationRewardBeta contrasts the paper's two reward weightings: the
// latency-leaning Web Search setting and the throughput-leaning Data
// Mining setting, both evaluated on the WebSearch workload.
func (r *Runner) AblationRewardBeta() (*Table, error) {
	t := &Table{
		Title:   "Ablation — reward weights β1/β2 (WebSearch @60%)",
		Columns: []string{"β1/β2", "mice avg nFCT", "elephant avg nFCT", "queue avg KB"},
	}
	for _, b := range [][2]float64{{0.3, 0.7}, {0.7, 0.3}} {
		res, err := r.runCell(fmt.Sprintf("beta/%.1f", b[0]), SchemePET, workload.WebSearch(), 0.6, func(s *Scenario) {
			s.Beta1, s.Beta2 = b[0], b[1]
			s.ExplicitBetas = true
			s.Models = nil
			s.Warmup += r.TrainTime
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f/%.1f", b[0], b[1]),
			f2(res.MiceBkt.AvgSlowdown), f2(res.Elephant.AvgSlowdown), f1(res.QueueAvgKB))
	}
	t.Note("larger β2 favors short queues (mice latency); larger β1 favors throughput")
	return t, nil
}
