package ddqn

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pet/internal/rng"
)

var update = flag.Bool("update", false, "rewrite testdata/observe.golden")

// The learner's identity golden: two agents on one global replay observe a
// fixed stream of 600 transitions whose actions cycle through every output,
// with a TargetSync small enough to fire many times. Each row pins the
// sha256 of one agent's Encode output, so any change to the arithmetic of
// the forward, backward or optimizer passes — or to their summation order —
// shows up here. The layer widths (18 → 21 → 13 → 30) are not multiples of
// four on purpose, so blocked kernels meet their remainder rows.
//
//	go test ./internal/rl/ddqn -run ObserveIdentity -update
//
// rewrites testdata/observe.golden.
func TestObserveIdentityGolden(t *testing.T) {
	cfg := Config{ObsDim: 18, Actions: 30, Hidden: []int{21, 13}, BatchSize: 16, MinReplay: 32, TargetSync: 25}
	replay := NewReplay(256, 11)
	agents := []*Agent{New(cfg, 1, replay), New(cfg, 2, replay)}
	r := rng.New(12)
	state := func() []float64 {
		s := make([]float64, cfg.ObsDim)
		for i := range s {
			if r.Intn(5) == 0 {
				continue // exact zeros, as idle queues produce
			}
			s[i] = r.Float64()*2 - 1
		}
		return s
	}
	prev := [][]float64{state(), state()}
	for i := 0; i < 600; i++ {
		k := i % len(agents)
		next := state()
		agents[k].Observe(Transition{S: prev[k], A: (i / len(agents)) % cfg.Actions, R: r.Float64() - 0.5, S2: next})
		prev[k] = next
	}

	var got strings.Builder
	for k, a := range agents {
		data, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "agent%d learn_steps=%d online=%x\n", k, a.LearnSteps(), sha256.Sum256(data))
	}

	golden := filepath.Join("testdata", "observe.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("learned weights drifted from %s:\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}

// Staging every agent's transition on one shared replay and then letting
// them learn — concurrently — trains the same weights, bit for bit, as each
// agent observing in turn. The replay is small enough to wrap many times,
// so a later agent's push overwrites slots an earlier one drew: a stage
// that kept pointers into the ring instead of copies fails here.
func TestStagedLearnMatchesObserve(t *testing.T) {
	cfg := Config{ObsDim: 6, Actions: 5, Hidden: []int{7}, BatchSize: 16, MinReplay: 8, TargetSync: 9}
	const agents, rounds = 3, 120
	build := func() []*Agent {
		replay := NewReplay(12, 31)
		out := make([]*Agent, agents)
		for k := range out {
			out[k] = New(cfg, int64(40+k), replay)
		}
		return out
	}
	r := rng.New(32)
	stream := make([][]Transition, rounds)
	for i := range stream {
		stream[i] = make([]Transition, agents)
		for k := range stream[i] {
			s, s2 := make([]float64, cfg.ObsDim), make([]float64, cfg.ObsDim)
			for j := range s {
				s[j], s2[j] = r.Float64()*2-1, r.Float64()*2-1
			}
			stream[i][k] = Transition{S: s, A: r.Intn(cfg.Actions), R: r.Float64() - 0.5, S2: s2}
		}
	}

	observed, staged := build(), build()
	for _, round := range stream {
		for k, tr := range round {
			observed[k].Observe(tr)
		}
		for k, tr := range round {
			staged[k].Stage(tr)
		}
		var wg sync.WaitGroup
		for _, a := range staged {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.Learn()
			}()
		}
		wg.Wait()
	}
	for k := range observed {
		want, err := observed[k].Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := staged[k].Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || staged[k].LearnSteps() != observed[k].LearnSteps() {
			t.Fatalf("agent %d: staged learning (%d steps) differs from Observe (%d steps)",
				k, staged[k].LearnSteps(), observed[k].LearnSteps())
		}
		if observed[k].LearnSteps() < rounds/2 {
			t.Fatalf("agent %d learned only %d times", k, observed[k].LearnSteps())
		}
	}
}

// A learning step in steady state — replay full, minibatch sized — must not
// touch the allocator: it runs once per agent per tuning interval.
func TestLearnZeroAllocs(t *testing.T) {
	cfg := Config{ObsDim: 18, Actions: 200}
	a := New(cfg, 3, NewReplay(128, 4))
	r := rng.New(5)
	var tr Transition
	for a.Replay().Len() < 128 {
		s, s2 := make([]float64, cfg.ObsDim), make([]float64, cfg.ObsDim)
		for i := range s {
			s[i], s2[i] = r.Float64(), r.Float64()
		}
		tr = Transition{S: s, A: r.Intn(cfg.Actions), R: r.Float64(), S2: s2}
		a.Observe(tr)
	}
	allocs := testing.AllocsPerRun(20, func() { a.Observe(tr) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f per step, want 0", allocs)
	}
}

// BenchmarkLearn measures one Double-Q learning step (32-transition
// minibatch) on ACC's network: 18 → 64 → 64 → 200.
func BenchmarkLearn(b *testing.B) {
	cfg := Config{ObsDim: 18, Actions: 200}
	a := New(cfg, 3, NewReplay(1024, 4))
	r := rng.New(5)
	for a.Replay().Len() < 1024 {
		s, s2 := make([]float64, cfg.ObsDim), make([]float64, cfg.ObsDim)
		for i := range s {
			s[i], s2[i] = r.Float64(), r.Float64()
		}
		a.Replay().Push(Transition{S: s, A: r.Intn(cfg.Actions), R: r.Float64(), S2: s2})
	}
	a.batch = a.replay.Sample(cfg.BatchSize, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.learn()
	}
}
