package core_test

import (
	"bytes"
	"testing"

	"pet/internal/bench"
	"pet/internal/core"
)

// FuzzLoadModels feeds arbitrary bytes to a PET controller's bundle loader.
// The contract: LoadModels returns an error or succeeds, never panics, and a
// failed load leaves EncodeModels byte-identical to before the call (the
// load is all-or-nothing). The seeds are a real trained bundle, the
// target's own, and damaged copies of them, so plain `go test` replays them.
// The seeds are whole bundles (hundreds of KB), so bound minimization:
//
//	go test ./internal/core -run '^$' -fuzz FuzzLoadModels -fuzzminimizetime 1x -parallel 1
func FuzzLoadModels(f *testing.F) {
	target := trainedControl(f, bench.SchemePET, 3)
	own, err := target.EncodeModels()
	if err != nil {
		f.Fatal(err)
	}
	donor, err := trainedControl(f, bench.SchemePET, 4).EncodeModels()
	if err != nil {
		f.Fatal(err)
	}
	b, err := core.DecodeBundle(donor)
	if err != nil {
		f.Fatal(err)
	}
	encode := func(b core.ModelBundle) []byte {
		data, err := core.EncodeBundle(b)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	last := len(b.Models) - 1
	torn := append([][]byte(nil), b.Models...)
	torn[last] = torn[last][:len(torn[last])/2]
	reversed := append([]int(nil), b.Switches...)
	reversed[0], reversed[last] = reversed[last], reversed[0]
	for _, seed := range [][]byte{
		donor,
		own,
		donor[:len(donor)/2],
		encode(core.ModelBundle{Switches: b.Switches, Models: torn}),
		encode(core.ModelBundle{Switches: reversed, Models: b.Models}),
		encode(core.ModelBundle{Switches: b.Switches[:1], Models: b.Models[:1]}),
		encode(core.ModelBundle{}),
		{},
		{1, 2, 3, 4, 5},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before, err := target.EncodeModels()
		if err != nil {
			t.Fatal(err)
		}
		if err := target.LoadModels(data); err == nil {
			return
		}
		after, err := target.EncodeModels()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatal("a failed load changed the models")
		}
	})
}
