package main

import (
	"fmt"
	"runtime"
	"sort"

	"pet/internal/telemetry"
)

// runtimeMem is the part of runtime.MemStats the harness reads.
type runtimeMem struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	heapAlloc           uint64
}

func (m *runtimeMem) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	*m = runtimeMem{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, heapAlloc: ms.HeapAlloc}
}

// stageCost is what the traced pass records around one stage.
type stageCost struct {
	cpu      cpuProfile
	allocMB  float64
	gcCycles float64
}

// passOut holds the four stages' results. Everything a stage built stays
// reachable from here until live_heap_mb has been read.
type passOut struct {
	sim   simOut
	train trainOut
	serve serveOut
	repro reproOut
	cost  map[string]stageCost // traced pass only
}

// pass runs the four stages in order, each after a forced GC so one stage's
// garbage is not collected on the next stage's clock.
func (r *run) pass() (*passOut, error) {
	p := &passOut{cost: map[string]stageCost{}}
	stages := []struct {
		name string
		run  func() error
	}{
		{"sim", func() (err error) { p.sim, err = r.simStage(); return }},
		{"train", func() (err error) { p.train, err = r.trainStage(); return }},
		{"serve", func() (err error) { p.serve, err = r.serveStage(); return }},
		{"repro", func() (err error) { p.repro, err = r.reproStage(); return }},
	}
	for _, st := range stages {
		runtime.GC()
		if r.tr == nil {
			if err := st.run(); err != nil {
				return nil, err
			}
			continue
		}
		var before, after runtimeMem
		var stageErr error
		before.read()
		cpu, err := profileCPU(func() { stageErr = st.run() })
		after.read()
		if stageErr != nil {
			return nil, stageErr
		}
		if err != nil {
			return nil, err
		}
		p.cost[st.name] = stageCost{
			cpu:      cpu,
			allocMB:  float64(after.totalAlloc-before.totalAlloc) / (1 << 20),
			gcCycles: float64(after.numGC - before.numGC),
		}
	}
	return p, nil
}

// rate is the primary stage's throughput, used to compare the two passes.
func (p *passOut) rate(primary string) float64 {
	switch primary {
	case "sim":
		return float64(p.sim.fired) / fastest(p.sim.repWall)
	case "train":
		return p.train.episodesPerS()
	case "serve":
		return p.serve.rps
	default:
		return float64(p.repro.exhibits) / p.repro.wall
	}
}

// endToEndMetrics derives the ten user-visible numbers from an untraced pass.
func endToEndMetrics(p *passOut) metricSet {
	m := metricSet{}
	set := func(name string, v float64) { m.set(endToEnd, name, v) }

	set("setup_s", p.sim.setupS+p.train.setupS+p.serve.setupS+p.repro.setupS)
	set("wall_ms_per_sim_ms", fastest(p.sim.repWall)*1e3/p.sim.simMs)
	set("episodes_per_s", p.train.episodesPerS())
	set("train_final_reward", p.train.finalReward)
	set("infer_rps", p.serve.rps)
	set("infer_p50_us", p.serve.p50Us)
	set("infer_p99_us", p.serve.p99Us)
	set("repro_wall_s", p.repro.wall)
	set("pet_nfct_ratio_70", p.repro.ratio)

	// Live heap: what the run still holds once its garbage is gone.
	runtime.GC()
	var mem runtimeMem
	mem.read()
	runtime.KeepAlive(p)
	set("live_heap_mb", float64(mem.heapAlloc)/(1<<20))
	return m
}

func counter(s telemetry.Snapshot, name string) float64 { return float64(s.Counters[name]) }

// perLayerMetrics derives the layer numbers from the timed pass, the traced
// pass, the sharded repetition and the probes.
func perLayerMetrics(primary string, timed, traced *passOut, shardedWall float64, probes map[string]float64) (metricSet, error) {
	m := metricSet{}
	set := func(name string, v float64) { m.set(perLayer, name, v) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// sim, netsim, dcqcn: counts from the traced sim stage's registry, costs
	// from the timed pass.
	simWall := fastest(timed.sim.repWall)
	reps := float64(len(traced.sim.repWall))
	hops := counter(traced.sim.tele, "netsim_tx_packets_total") / reps
	set("sim.events", float64(traced.sim.fired))
	set("sim.ns_per_event", simWall*1e9/float64(timed.sim.fired))
	set("sim.sharded_speedup_x", ratio(fastest(traced.sim.repWall), shardedWall))
	set("netsim.packet_hops", hops)
	set("netsim.ns_per_hop", ratio(simWall*1e9, hops))
	set("netsim.ecn_mark_ratio", ratio(counter(traced.sim.tele, "netsim_ecn_marks_total")/reps, hops))
	set("netsim.drops", counter(traced.sim.tele, "netsim_drops_overflow_total")+
		counter(traced.sim.tele, "netsim_drops_linkdown_total")+counter(traced.sim.tele, "netsim_drops_unreachable_total"))
	set("dcqcn.flows_done", counter(traced.sim.tele, "dcqcn_flows_completed_total")/reps)

	// learner and fleet: the traced train stage's registry.
	tt := traced.train
	set("ppo.updates", float64(tt.updates))
	rounds := append([]float64(nil), timed.train.roundMs...)
	sort.Float64s(rounds)
	set("fleet.round_ms_p50", quantile(rounds, 0.5))
	episodeS := tt.tele.Histograms["fleet_episode_seconds"].Sum
	set("fleet.episode_s_sum", episodeS)
	set("fleet.merge_s_sum", tt.tele.Histograms["fleet_merge_seconds"].Sum)
	set("fleet.checkpoint_s_sum", tt.tele.Histograms["fleet_checkpoint_seconds"].Sum)
	set("fleet.worker_idle_share", 1-ratio(episodeS, fleetWorkers*tt.wall))
	set("fleet.retries", float64(tt.retries))

	// serve: latencies of the traced window against the direct call.
	ts := traced.serve
	misses := float64(ts.sent - ts.ok)
	for _, us := range ts.latUs {
		if us > float64(ts.slo.Microseconds()) {
			misses++
		}
	}
	set("serve.direct_us_per_req", ts.directUs)
	set("serve.http_overhead_us", ts.p50Us-ts.directUs)
	set("serve.p90_us", quantile(ts.latUs, 0.90))
	set("serve.p99_us", quantile(ts.latUs, 0.99))
	set("serve.slo_miss_ratio", ratio(misses, float64(ts.sent)))
	set("serve.obs_per_s", ratio(float64(ts.ok*ts.obsPerReq), ts.elapsed))
	set("serve.allocs_per_req", ts.mallocs)

	for _, e := range exhibitNames {
		set("bench.exhibit_s."+e, traced.repro.exhibitS[e])
	}

	// CPU attribution and allocation of the primary stage, the one the
	// workload is named after.
	cost, ok := traced.cost[primary]
	if !ok {
		return nil, fmt.Errorf("traced pass has no cost record for stage %q", primary)
	}
	shares := cost.cpu.shares()
	for _, l := range cpuLayers {
		set(cpuShareName(l), shares[l])
	}
	set("go.alloc_mb", cost.allocMB)
	set("go.gc_cycles", cost.gcCycles)

	set("perf.rep_spread", repSpread(primary, timed))
	set("perf.trace_overhead_ratio", ratio(traced.rate(primary), timed.rate(primary)))

	for name, v := range probes {
		set(name, v)
	}
	if missing := m.missing(perLayer); len(missing) > 0 {
		return nil, fmt.Errorf("per-layer metrics never set: %v", missing)
	}
	return m, nil
}

// repSpread is (max − min) ÷ median over the primary stage's repeated
// measurements in the timed pass — repetitions, rounds or window slices — and
// zero for the full reproduction, which is timed once.
func repSpread(primary string, p *passOut) float64 {
	var v []float64
	switch primary {
	case "sim":
		v = p.sim.repWall
	case "train":
		v = p.train.roundMs
	case "serve":
		v = p.serve.sliceRps
	}
	if len(v) < 2 {
		return 0
	}
	return (pick(v, 1) - pick(v, 0)) / median(v)
}
