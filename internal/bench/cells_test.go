package bench_test

import (
	"bytes"
	"reflect"
	"testing"

	"pet/internal/bench"
	"pet/internal/sim"
)

// exhibit returns the named exhibit of bench.Exhibits.
func exhibit(t *testing.T, name string) bench.Exhibit {
	t.Helper()
	for _, e := range bench.Exhibits() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no exhibit %q", name)
	return bench.Exhibit{}
}

// Compat's DCQCN rows are the 60% cells DynamicBaselines already ran: keyed
// by document, only the two DCTCP cells are new.
func TestTransportCompatSharesDCQCNCells(t *testing.T) {
	r := quickRunner()
	if _, err := r.DynamicBaselines(); err != nil {
		t.Fatal(err)
	}
	n := r.CacheSize()
	if _, err := r.TransportCompat(); err != nil {
		t.Fatal(err)
	}
	if added := r.CacheSize() - n; added != 2 {
		t.Fatalf("TransportCompat added %d cells after DynamicBaselines, want 2", added)
	}
}

// Every cell of every exhibit is a plain scenario document: it survives
// Encode → DecodeScenarioSpec unchanged, and ToScenario accepts it. Nothing
// is simulated. The shapes are NewRunner's, petbench -quick's and the
// exhibits golden's.
func TestExhibitCellsAreDocuments(t *testing.T) {
	quick := bench.NewRunner()
	quick.TrainTime, quick.Warmup, quick.Duration = 10*sim.Millisecond, 5*sim.Millisecond, 15*sim.Millisecond
	// The exhibits-golden shape: its 2 ms Duration divides into Fig. 6/7
	// series windows and event times that are not whole nanoseconds.
	golden := bench.NewRunner()
	golden.TrainTime, golden.Warmup, golden.Duration = 2*sim.Millisecond, 1*sim.Millisecond, 2*sim.Millisecond
	names := map[string]bool{}
	for _, r := range []*bench.Runner{bench.NewRunner(), quick, golden} {
		total := 0
		for _, e := range bench.Exhibits() {
			names[e.Name] = true
			for _, c := range e.Cells(r) {
				total++
				data, err := c.Spec.Encode()
				if err != nil {
					t.Fatalf("%s: %s: %v", e.Name, c.Spec.Name, err)
				}
				back, err := bench.DecodeScenarioSpec(data)
				if err != nil {
					t.Fatalf("%s: %s: %v\n%s", e.Name, c.Spec.Name, err, data)
				}
				if !reflect.DeepEqual(*back, c.Spec) {
					t.Fatalf("%s: %s does not round-trip:\n%s", e.Name, c.Spec.Name, data)
				}
				if _, err := back.ToScenario(); err != nil {
					t.Fatalf("%s: %s: %v\n%s", e.Name, c.Spec.Name, err, data)
				}
			}
		}
		// 3 loads: fig4 4×12, fig5 2×12, fig6 2, fig7 2, fig8 12, fig9 6,
		// table1 4, overhead 2, historyk 3, beta 2, dynamic 6, ctde 2, compat 4.
		if total != 48+24+2+2+12+6+4+2+3+2+6+2+4 {
			t.Fatalf("%d cells in all exhibits", total)
		}
	}
	if len(names) != 14 {
		t.Fatalf("%d distinct exhibit names, want 14", len(names))
	}
}

// A cached cell is exactly what its document gives when run alone, with
// the runner's pretrained bundle attached when the cell says so.
func TestTable1CellsRunAlone(t *testing.T) {
	r := quickRunner()
	if _, err := r.Table1(); err != nil {
		t.Fatal(err)
	}
	cells := exhibit(t, "table1").Cells(r)
	for _, c := range cells {
		data, err := c.Spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := bench.DecodeScenarioSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		s, err := doc.ToScenario()
		if err != nil {
			t.Fatal(err)
		}
		if c.Pretrained {
			if s.Models, err = r.Bundle(c); err != nil {
				t.Fatal(err)
			}
		}
		alone, err := bench.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		cached, ok := r.Cached(c)
		if !ok {
			t.Fatalf("%s: not cached", c.Spec.Name)
		}
		if !reflect.DeepEqual(alone, cached) {
			t.Fatalf("%s: run alone = %+v\ncached = %+v", c.Spec.Name, alone.Overall, cached.Overall)
		}
	}
	if !cells[0].Pretrained || cells[1].Pretrained || cells[2].Pretrained {
		t.Fatalf("pretrained bits = %v/%v/%v, want PET only", cells[0].Pretrained, cells[1].Pretrained, cells[2].Pretrained)
	}
}

// Labels name a cell for humans; they cannot split it.
func TestCellLabelsDoNotSplitCells(t *testing.T) {
	r := quickRunner()
	a := r.SweepCell(bench.SchemeSECN1, "websearch", 0.5)
	if _, err := r.RunCell(a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Spec.Name, b.Spec.Notes = "relabelled", "same run"
	if _, ok := r.Cached(b); !ok {
		t.Fatal("a relabelled document missed the cache")
	}
	c := a
	c.Pretrained = true
	if _, ok := r.Cached(c); ok {
		t.Fatal("the pretrained bit did not split the cell")
	}
	enc := func(c bench.Cell) []byte {
		data, _ := c.Spec.Encode()
		return data
	}
	if bytes.Equal(enc(a), enc(b)) {
		t.Fatal("labels did not reach the document")
	}
}
