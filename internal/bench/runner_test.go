package bench_test

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pet/internal/bench"
	"pet/internal/sim"
)

// Every exhibit at petbench -quick's three loads, on windows short enough
// for a test, runs each distinct document exactly once however many
// exhibits and panels list it: 45 runs and 3 pre-trainings. The Progress
// hook sees one line per simulation, and its calls never overlap although
// the simulations run concurrently.
func TestExhibitsRunEachSimulationOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every exhibit")
	}
	r := bench.NewRunner()
	r.TrainTime = 2 * sim.Millisecond
	r.Warmup = 1 * sim.Millisecond
	r.Duration = 2 * sim.Millisecond
	var inside atomic.Bool
	var runs, pretrains, overlaps int
	r.Progress = func(msg string) {
		if !inside.CompareAndSwap(false, true) {
			overlaps++
			return
		}
		defer inside.Store(false)
		time.Sleep(time.Millisecond) // widen the window another call would hit
		switch {
		case strings.HasPrefix(msg, "run "):
			runs++
		case strings.HasPrefix(msg, "pretrain "):
			pretrains++
		}
	}
	for _, e := range bench.Exhibits() {
		if _, err := e.Tables(r); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	if inside.Load() || overlaps != 0 {
		t.Fatalf("%d Progress calls overlapped another", overlaps)
	}
	if runs != 45 || pretrains != 3 {
		t.Fatalf("%d runs and %d pre-trainings, want 45 and 3", runs, pretrains)
	}
}

// A failing exhibit returns the error of its first failing cell in cell
// order, whichever fails first in time, and only once every cell is done:
// after Tables returns, failing or not, none of its goroutines is left.
func TestTablesFirstErrorInCellOrderLeavesNoGoroutine(t *testing.T) {
	r := quickRunner()
	r.Warmup, r.Duration = 1*sim.Millisecond, 1*sim.Millisecond
	good := r.SweepCell(bench.SchemeSECN1, "websearch", 0.5)
	slow := r.SweepCell(bench.SchemeSECN2, "websearch", 0.5)
	// ACC has no offline phase: its pre-training fails, after a slow cell.
	acc := bench.Cell{Spec: r.SweepCell(bench.SchemeACC, "websearch", 0.5).Spec, Pretrained: true}
	unknown := good
	unknown.Spec.Scheme = "NOPE"

	settled := func(before int) int {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return runtime.NumGoroutine()
	}
	for i := 0; i < 3; i++ {
		before := runtime.NumGoroutine()
		_, err := bench.ExhibitOf(good, slow, acc, good, unknown).Tables(r)
		var np *bench.NotPretrainableError
		if !errors.As(err, &np) || np.Scheme != bench.SchemeACC {
			t.Fatalf("err = %v, want the ACC cell's *NotPretrainableError", err)
		}
		if n := settled(before); n > before {
			t.Fatalf("failing Tables left %d goroutines, had %d", n, before)
		}
	}
	before := runtime.NumGoroutine()
	tables, err := bench.ExhibitOf(good, slow, good).Tables(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("tables = %v", tables)
	}
	if n := settled(before); n > before {
		t.Fatalf("Tables left %d goroutines, had %d", n, before)
	}
}

// Pre-training an ACC scenario is a typed error, not a PET bundle ACC
// cannot load; an empty scheme still means PET.
func TestPretrainRejectsSchemesWithoutOfflinePhase(t *testing.T) {
	for _, scheme := range []bench.Scheme{bench.SchemeACC, bench.SchemeSECN1, bench.SchemePETCTDE} {
		_, err := bench.PretrainPET(bench.Scenario{Scheme: scheme, Load: 0.5}, sim.Millisecond)
		var np *bench.NotPretrainableError
		if !errors.As(err, &np) || np.Scheme != scheme {
			t.Fatalf("%s: err = %v, want *NotPretrainableError", scheme, err)
		}
		if _, err := bench.PretrainInit(bench.Scenario{Scheme: scheme}); !errors.As(err, &np) {
			t.Fatalf("%s: PretrainInit err = %v, want *NotPretrainableError", scheme, err)
		}
	}
	empty, err := bench.PretrainInit(bench.Scenario{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pet, err := bench.PretrainInit(bench.Scenario{Scheme: bench.SchemePET, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != string(pet) {
		t.Fatal("an empty scheme pre-trains something other than PET")
	}
}
