package bench_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pet/internal/bench"
)

// FuzzDecodeScenarioSpec feeds arbitrary bytes to the scenario decoder. The
// contract: success or a *SpecError, never a panic; and an accepted
// document re-encodes to a fixed point (Encode∘Decode∘Encode = Encode).
// The seed corpus is the canned library plus malformed documents, so plain
// `go test` replays them all.
func FuzzDecodeScenarioSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no scenario library found: %v", err)
	}
	for _, path := range files {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, doc := range []string{
		``,
		`{`,
		`null`,
		`[1,2]`,
		`{"bogus": 1}`,
		`{"seed": 1.5}`,
		`{"seed": 1e300}`,
		`{"load": "high"}`,
		`{"warmup": "fast"}`,
		`{"duration": "-1ms"}`,
		`{"betas": [0.3]}`,
		`{"version": 99}`,
		`{"topo": {"spines": null}, "events": [null]}`,
		`{"events": [{"at": "1ms", "kind": "link-down", "frac": 0.5}]}`,
		`{"series_window": "333333333ps", "events": [{"at": "1333333333ps", "kind": "link-down", "frac": 0.5}]}`,
	} {
		f.Add([]byte(doc))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := bench.DecodeScenarioSpec(raw)
		if err != nil {
			var se *bench.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("decode error %T is not a *SpecError: %v", err, err)
			}
			return
		}
		first, err := spec.Encode()
		if err != nil {
			t.Fatalf("accepted document does not encode: %v", err)
		}
		again, err := bench.DecodeScenarioSpec(first)
		if err != nil {
			t.Fatalf("re-decoding the canonical form: %v\n%s", err, first)
		}
		second, err := again.Encode()
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}
