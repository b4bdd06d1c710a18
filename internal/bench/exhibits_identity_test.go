package bench_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pet/internal/bench"
	"pet/internal/sim"
)

// The exhibits' identity golden: every exhibit petbench renders, in its
// order, on one small runner whose result cache the exhibits share. Each
// line pins the sha256 of the exhibit's rendered tables, so a change to how
// the runner assembles, keys, caches or renders a result cell shows up here
// even when every single scenario still runs the same.
//
//	go test ./internal/bench -run ExhibitsIdentity -update
//
// rewrites testdata/exhibits.golden.
func TestExhibitsIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every exhibit")
	}
	r := bench.NewRunner()
	r.Loads = []float64{0.5}
	r.TrainTime = 2 * sim.Millisecond
	r.Warmup = 1 * sim.Millisecond
	r.Duration = 2 * sim.Millisecond

	one := func(f func() (*bench.Table, error)) func() ([]*bench.Table, error) {
		return func() ([]*bench.Table, error) {
			t, err := f()
			return []*bench.Table{t}, err
		}
	}
	exhibits := []struct {
		name string
		run  func() ([]*bench.Table, error)
	}{
		{"fig3", func() ([]*bench.Table, error) { return []*bench.Table{r.Fig3()}, nil }},
		{"fig4", r.Fig4},
		{"fig5", r.Fig5},
		{"fig6", r.Fig6},
		{"fig7", one(r.Fig7)},
		{"fig8", one(r.Fig8)},
		{"fig9", one(r.Fig9)},
		{"table1", one(r.Table1)},
		{"overhead", one(r.AblationReplayOverhead)},
		{"historyk", one(r.AblationHistoryK)},
		{"beta", one(r.AblationRewardBeta)},
		{"dynamic", one(r.DynamicBaselines)},
		{"ctde", one(r.AblationCTDE)},
		{"compat", one(r.TransportCompat)},
	}
	var got strings.Builder
	for _, e := range exhibits {
		tables, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		h := sha256.New()
		for _, tb := range tables {
			h.Write([]byte(tb.String()))
		}
		fmt.Fprintf(&got, "%s tables=%d sha256=%x\n", e.name, len(tables), h.Sum(nil)[:16])
	}

	golden := filepath.Join("testdata", "exhibits.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("exhibits drifted from %s:\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
