package ddqn

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// A learning step in steady state — replay full, scratch sized — must not
// touch the allocator: it runs once per agent per tuning interval.
func TestLearnZeroAllocs(t *testing.T) {
	cfg := Config{ObsDim: 18, Actions: 200}
	a := New(cfg, 3, NewReplay(128, 4))
	r := rng.New(5)
	for a.Replay().Len() < 128 {
		s, s2 := make([]float64, cfg.ObsDim), make([]float64, cfg.ObsDim)
		for i := range s {
			s[i], s2[i] = r.Float64(), r.Float64()
		}
		a.Observe(Transition{S: s, A: r.Intn(cfg.Actions), R: r.Float64(), S2: s2})
	}
	allocs := testing.AllocsPerRun(20, a.learn)
	if allocs != 0 {
		t.Fatalf("learn allocates %.1f per step, want 0", allocs)
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
	a.learn() // size the minibatch scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.learn()
	}
}
