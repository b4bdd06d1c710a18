package main

import (
	"math"
	"sort"
)

// metric is one reported number. Units follow BENCHMARK.json.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric the harness always emits; perf_test.go checks
// the two lists below against BENCHMARK.json.
type metricDef struct{ name, unit string }

// workloadNames is the run order of the suite.
var workloadNames = []string{"sim_paper", "train_fleet", "serve_single", "serve_batch", "repro_quick"}

// endToEnd are the metrics of the untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_ms_per_sim_ms", "ratio"},
	{"episodes_per_s", "1/s"},
	{"train_final_reward", "reward"},
	{"infer_rps", "req/s"},
	{"infer_p50_us", "us"},
	{"infer_p99_us", "us"},
	{"repro_wall_s", "s"},
	{"pet_nfct_ratio_70", "ratio"},
	{"live_heap_mb", "MiB"},
}

// exhibitNames is the petbench catalog, in petbench's order.
var exhibitNames = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"table1", "overhead", "historyk", "beta", "dynamic", "ctde", "compat"}

// cpuLayers are the buckets of the pprof attribution; their shares sum to 1.
var cpuLayers = []string{"sim", "netsim", "dcqcn", "workload", "topo", "nn", "ppo", "core",
	"fleet", "serve", "serve.client", "bench", "go.gc", "other"}

// cpuShareName is the metric name of one attribution bucket.
func cpuShareName(layer string) string {
	switch layer {
	case "serve.client", "go.gc":
		return layer + "_cpu_share"
	}
	return layer + ".cpu_share"
}

// perLayer are the metrics of the traced pass and the probes.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.probe_ns_per_event_1k", "ns"},
		{"sim.probe_ns_per_event_100k", "ns"},
		{"sim.sharded_speedup_x", "ratio"},
		{"netsim.packet_hops", "count"},
		{"netsim.ns_per_hop", "ns"},
		{"netsim.ecn_mark_ratio", "ratio"},
		{"netsim.drops", "count"},
		{"netsim.probe_ns_per_hop", "ns"},
		{"dcqcn.flows_done", "count"},
		{"workload.probe_sample_ns", "ns"},
		{"nn.probe_forward_ns", "ns"},
		{"nn.probe_backward_ns", "ns"},
		{"ppo.updates", "count"},
		{"ppo.probe_act_ns", "ns"},
		{"ppo.probe_update_ms", "ms"},
		{"core.probe_infer_ecn_ns", "ns"},
		{"core.probe_merge_ms", "ms"},
		{"fleet.round_ms_p50", "ms"},
		{"fleet.episode_s_sum", "s"},
		{"fleet.merge_s_sum", "s"},
		{"fleet.checkpoint_s_sum", "s"},
		{"fleet.worker_idle_share", "ratio"},
		{"fleet.retries", "count"},
		{"modelstore.probe_put_ms", "ms"},
		{"modelstore.probe_get_ms", "ms"},
		{"jsonlog.probe_append_us", "us"},
		{"serve.direct_us_per_req", "us"},
		{"serve.http_overhead_us", "us"},
		{"serve.p90_us", "us"},
		{"serve.p99_us", "us"},
		{"serve.slo_miss_ratio", "ratio"},
		{"serve.obs_per_s", "1/s"},
		{"serve.allocs_per_req", "count"},
		{"bench.probe_spec_decode_us", "us"},
		{"go.alloc_mb", "MiB"},
		{"go.gc_cycles", "count"},
		{"perf.rep_spread", "ratio"},
		{"perf.trace_overhead_ratio", "ratio"},
	}
	for _, e := range exhibitNames {
		defs = append(defs, metricDef{"bench.exhibit_s." + e, "s"})
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{cpuShareName(l), "ratio"})
	}
	return defs
}()

// metricSet collects values against a declared list, so a metric that was
// never set, never declared or not a number is a harness bug caught before
// printing.
type metricSet map[string]metric

func (m metricSet) set(defs []metricDef, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("perf: metric " + name + " is not finite")
	}
	for _, d := range defs {
		if d.name == name {
			m[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perf: undeclared metric " + name)
}

// missing lists the declared names that have no value yet.
func (m metricSet) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// pick returns the q-quantile of v, which need not be sorted.
func pick(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(v []float64) float64 { return pick(v, 0.5) }

// The host only ever slows a measurement down, and does so in bursts. So a
// quantity measured several times in one run is summarised toward its
// undisturbed side: the fastest of identical repetitions, the better
// quartile of units that differ in work (training rounds, window slices).
// A real regression moves every repetition and shows all the same.
func fastest(v []float64) float64      { return pick(v, 0) }
func lowQuartile(v []float64) float64  { return pick(v, 0.25) }
func highQuartile(v []float64) float64 { return pick(v, 0.75) }

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the acceptance rule for spreads is written in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

// spread is the run-to-run spread of v as a share of its median: the
// interquartile distance from four values up, the full range below that.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	if len(v) < 4 {
		return (pick(v, 1) - pick(v, 0)) / math.Abs(med)
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}
