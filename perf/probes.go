package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pet/internal/bench"
	"pet/internal/core"
	"pet/internal/jsonlog"
	"pet/internal/modelstore"
	"pet/internal/netsim"
	"pet/internal/nn"
	"pet/internal/rl"
	"pet/internal/rl/ppo"
	"pet/internal/rng"
	"pet/internal/sim"
	"pet/internal/topo"
	"pet/internal/workload"
)

// probeFor is how long one probe measures. Probes call a layer's public API
// directly, with nothing else running, so a layer's own cost can be told
// apart from its share of a workload.
const probeFor = 150 * time.Millisecond

// perOp times fn(n) with n doubling until a call lasts probeFor, and returns
// nanoseconds per operation.
func perOp(fn func(n int)) float64 {
	for n := 1; ; n *= 2 {
		start := time.Now()
		fn(n)
		if d := time.Since(start); d >= probeFor || n >= 1<<30 {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

// perOpErr is perOp for an operation that can fail; the first error stops
// the probe's work and is returned.
func perOpErr(op func(i int) error) (float64, error) {
	var err error
	ns := perOp(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = op(i)
		}
	})
	return ns, err
}

// runProbes measures every probe_* metric. dir is scratch space; repoRoot
// holds scenarios/.
func runProbes(dir, repoRoot string) (map[string]float64, error) {
	out := map[string]float64{}

	// sim: schedule + fire at a steady pending depth. Every fired event
	// schedules its successor, so the heap stays depth events deep.
	for _, p := range []struct {
		name  string
		depth int
	}{{"sim.probe_ns_per_event_1k", 1000}, {"sim.probe_ns_per_event_100k", 100000}} {
		eng := sim.NewEngine()
		r := rng.New(1)
		var again func(any)
		again = func(any) { eng.AfterArg(sim.Time(1+r.Intn(1000))*sim.Nanosecond, again, nil) }
		for i := 0; i < p.depth; i++ {
			eng.AtArg(sim.Time(1+r.Intn(1000))*sim.Nanosecond, again, nil)
		}
		out[p.name] = perOp(func(n int) {
			for i := 0; i < n; i++ {
				eng.Step()
			}
		})
	}

	// netsim: hosts on the small fabric send to sink endpoints through RED.
	out["netsim.probe_ns_per_hop"] = probeNetsim()

	cdf := workload.WebSearch()
	r := rng.New(1)
	var sink int64
	out["workload.probe_sample_ns"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += cdf.Sample(r)
		}
	})

	// nn: the policy network's shape, 24-64-64-40.
	mlp := nn.NewMLP([]int{24, 64, 64, 40}, nn.ActTanh, rng.New(1))
	x, dy := make([]float64, 24), make([]float64, 40)
	for i := range x {
		x[i] = 0.5
	}
	for i := range dy {
		dy[i] = 0.1
	}
	out["nn.probe_forward_ns"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			mlp.Forward(x)
		}
	})
	out["nn.probe_backward_ns"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			mlp.Backward(dy)
		}
	})

	agent := ppo.New(ppo.Config{ObsDim: 24, Heads: []int{10, 10, 20}}, 1)
	out["ppo.probe_act_ns"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			agent.Act(x, false)
		}
	})
	traj := &rl.Trajectory{}
	for i := 0; i < 32; i++ {
		acts, logp, v := agent.Act(x, true)
		traj.Add(rl.Transition{State: x, Actions: acts, LogProb: logp, Value: v, Reward: 0.5})
	}
	out["ppo.probe_update_ms"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			agent.Update(traj, 0)
		}
	}) / 1e6

	// core: one switch agent of an assembled PET controller, and the
	// fleet's merge step on two of its bundles.
	env, err := bench.NewEnv(bench.Scenario{Topo: topo.TinyScale(), Scheme: bench.SchemePET, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("probe env: %w", err)
	}
	ctl, ok := env.Control.(*core.Controller)
	if !ok {
		return nil, fmt.Errorf("probe env: PET assembled a %T", env.Control)
	}
	sw := ctl.Agents()[0]
	obs, acts := make([]float64, ctl.Config().ObsDim()), make([]int, len(ctl.Config().Heads()))
	if out["core.probe_infer_ecn_ns"], err = perOpErr(func(int) error {
		_, err := sw.InferECN(obs, acts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("InferECN probe: %w", err)
	}
	bundle, err := ctl.EncodeModels()
	if err != nil {
		return nil, fmt.Errorf("probe bundle: %w", err)
	}
	ns, err := perOpErr(func(int) error {
		_, err := core.MergeModelBundles([][]byte{bundle, bundle})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("merge probe: %w", err)
	}
	out["core.probe_merge_ms"] = ns / 1e6

	// modelstore and jsonlog: real files under the scratch directory.
	tmp, err := os.MkdirTemp(dir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	store, err := modelstore.Open(filepath.Join(tmp, "store"))
	if err != nil {
		return nil, fmt.Errorf("probe store: %w", err)
	}
	const versions = 24
	start := time.Now()
	for i := 0; i < versions; i++ {
		// A distinct trailing byte defeats content-address dedup.
		if _, err := store.Put(append(append([]byte(nil), bundle...), byte(i)), "perf", ""); err != nil {
			return nil, fmt.Errorf("store put: %w", err)
		}
	}
	out["modelstore.probe_put_ms"] = time.Since(start).Seconds() * 1e3 / versions
	start = time.Now()
	for i := 1; i <= versions; i++ {
		if _, _, err := store.Get(i); err != nil {
			return nil, fmt.Errorf("store get: %w", err)
		}
	}
	out["modelstore.probe_get_ms"] = time.Since(start).Seconds() * 1e3 / versions

	logPath := filepath.Join(tmp, "probe.jsonl")
	if ns, err = perOpErr(func(i int) error {
		return jsonlog.Append(logPath, struct {
			Seq  int    `json:"seq"`
			Note string `json:"note"`
		}{i, "perf probe"})
	}); err != nil {
		return nil, fmt.Errorf("jsonlog probe: %w", err)
	}
	out["jsonlog.probe_append_us"] = ns / 1e3

	// bench: decoding every canned scenario document.
	docs, err := filepath.Glob(filepath.Join(repoRoot, "scenarios", "*.json"))
	if err != nil || len(docs) == 0 {
		return nil, fmt.Errorf("no scenario documents under %s/scenarios (%v)", repoRoot, err)
	}
	var raw [][]byte
	for _, d := range docs {
		b, err := os.ReadFile(d)
		if err != nil {
			return nil, err
		}
		raw = append(raw, b)
	}
	if ns, err = perOpErr(func(i int) error {
		_, err := bench.DecodeScenarioSpec(raw[i%len(raw)])
		return err
	}); err != nil {
		return nil, fmt.Errorf("spec decode probe: %w", err)
	}
	out["bench.probe_spec_decode_us"] = ns / 1e3
	_ = sink
	return out, nil
}

// probeSink is a host endpoint that discards what it receives.
type probeSink struct{}

func (probeSink) Deliver(*netsim.Packet) {}

// probeNetsim returns wall nanoseconds per packet-hop (one transmission by
// a host NIC or a switch port) with every host of the small fabric sending
// 1000-byte packets to random peers at a jittered ~1.5 µs gap.
func probeNetsim() float64 {
	ls := topo.BuildLeafSpine(topo.SmallScale())
	eng := sim.NewEngine()
	net := netsim.New(eng, ls.Graph, 1, netsim.Config{
		DefaultECN: netsim.ECNConfig{Enabled: true, KminBytes: 20_000, KmaxBytes: 80_000, Pmax: 0.1}})
	r := rng.New(1)
	for i, h := range ls.Hosts {
		h, next := h, ls.Hosts[(i+1)%len(ls.Hosts)]
		net.RegisterEndpoint(h, probeSink{})
		seq := int64(0)
		var send func(any)
		send = func(any) {
			dst := ls.Hosts[r.Intn(len(ls.Hosts))]
			if dst == h {
				dst = next
			}
			pkt := net.NewPacket()
			pkt.Flow, pkt.Src, pkt.Dst, pkt.Kind = netsim.FlowID(uint64(h)<<16|uint64(seq%8)), h, dst, netsim.Data
			pkt.Size, pkt.Seq, pkt.ECT = 1000, seq, true
			seq++
			net.SendFromHost(h, pkt)
			eng.AfterArg(sim.Time(800+r.Intn(1600))*sim.Nanosecond, send, nil)
		}
		eng.AfterArg(sim.Time(1+r.Intn(1000))*sim.Nanosecond, send, nil)
	}
	hops := func() (n uint64) {
		for _, p := range net.SwitchPorts() {
			n += p.Stats().TxPackets
		}
		for _, h := range ls.Hosts {
			n += net.HostPort(h).Stats().TxPackets
		}
		return n
	}
	horizon := 100 * sim.Microsecond
	eng.RunUntil(horizon) // warm pools and rings
	before := hops()
	start := time.Now()
	for time.Since(start) < probeFor {
		horizon += 100 * sim.Microsecond
		eng.RunUntil(horizon)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(hops()-before)
}
