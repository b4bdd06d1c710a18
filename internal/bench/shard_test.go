package bench_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"pet/internal/bench"
	"pet/internal/sim"
	"pet/internal/telemetry"
	"pet/internal/topo"
)

// shardScenario is the fixed workload the cross-shard determinism suite
// replays at every lane count: PET training online, tracing on, and a
// mid-run link failure so the perturbation path (one-off barriers,
// routing recompute) is exercised too.
func shardScenario(shards int) bench.Scenario {
	return bench.Scenario{
		Scheme:   bench.SchemePET,
		Train:    true,
		Load:     0.4,
		Seed:     11,
		Warmup:   2 * sim.Millisecond,
		Duration: 4 * sim.Millisecond,
		Trace:    true,
		Shards:   shards,
		Events: []bench.EventSpec{
			{At: bench.SimDuration(3 * sim.Millisecond), Kind: "link-down", Links: 1},
			{At: bench.SimDuration(4 * sim.Millisecond), Kind: "link-up", Links: 1},
		},
	}
}

func runShardScenario(t *testing.T, shards int) (bench.Result, []byte) {
	t.Helper()
	env, err := bench.NewEnv(shardScenario(shards))
	if err != nil {
		t.Fatal(err)
	}
	if shards >= 2 {
		if env.Sharded == nil {
			t.Fatalf("shards=%d: env not sharded", shards)
		}
		// Force the concurrent path so `go test -race` checks the worker
		// goroutines even on a single-CPU host.
		env.Sharded.SetParallel(true)
	} else if env.Sharded != nil {
		t.Fatalf("shards=%d: unexpected sharded engine", shards)
	}
	res := env.Run()
	var buf bytes.Buffer
	if err := env.Trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// The tentpole's top-level contract: a sharded run is an execution strategy,
// not a model change. On a fixed seed the full stack — workload, transport,
// switches, PET training, trace — produces the identical Result and the
// byte-identical trace CSV at 1, 2 and 3 lanes.
func TestShardedRunMatchesSingleLoop(t *testing.T) {
	wantRes, wantCSV := runShardScenario(t, 1)
	if wantRes.FlowsDone == 0 {
		t.Fatal("baseline run completed no flows")
	}
	for _, shards := range []int{2, 3} {
		res, csv := runShardScenario(t, shards)
		if !bytes.Equal(csv, wantCSV) {
			t.Fatalf("shards=%d: trace CSV diverged from single-loop run", shards)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("shards=%d: Result diverged:\n got %+v\nwant %+v", shards, res, wantRes)
		}
	}
}

// Offline pre-training is the longest-running consumer of the engine, so the
// model bundle it emits is the most sensitive byte-identity probe: a single
// reordered ECN mark changes the training data and therefore the weights.
func TestShardedPretrainBundleMatches(t *testing.T) {
	bundle := func(shards int) []byte {
		s := bench.Scenario{Load: 0.4, Shards: shards}
		ep, err := bench.PretrainEpisode(context.Background(), s, 2*sim.Millisecond, 7, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return ep.Models
	}
	want := bundle(1)
	for _, shards := range []int{2, 3} {
		if !bytes.Equal(bundle(shards), want) {
			t.Fatalf("shards=%d: pretrained bundle diverged from single-loop run", shards)
		}
	}
}

// Per-shard telemetry must be observation-only: attaching a registry to a
// sharded run changes no simulation byte, and the registry ends up holding
// per-lane event counts that account for every lane.
func TestShardedTelemetryObservationOnly(t *testing.T) {
	run := func(reg *telemetry.Registry) []byte {
		s := bench.Scenario{Load: 0.4, Shards: 3, Telemetry: reg}
		ep, err := bench.PretrainEpisode(context.Background(), s, 2*sim.Millisecond, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ep.Models
	}
	reg := telemetry.New()
	with := run(reg)
	without := run(nil)
	if !bytes.Equal(with, without) {
		t.Fatal("attaching telemetry changed the sharded run's model bundle")
	}
	total := uint64(0)
	for _, lane := range []string{"0", "1", "2"} {
		total += reg.Counter(`sim_shard_events_total{shard="` + lane + `"}`).Value()
	}
	if total == 0 {
		t.Fatal("no per-shard event counts recorded")
	}
}

// A zero-delay topology has no safe lookahead; asking for a sharded run on
// one must fail with an error at assembly, not a panic mid-run.
func TestShardedRejectsZeroDelayTopo(t *testing.T) {
	cfg := topo.TinyScale()
	cfg.HostDelay, cfg.UplinkDelay = 0, 0
	_, err := bench.NewEnv(bench.Scenario{Topo: cfg, Shards: 2})
	if err == nil {
		t.Fatal("sharded env on zero-delay topology did not error")
	}
}
