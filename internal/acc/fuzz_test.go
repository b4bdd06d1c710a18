package acc

import (
	"bytes"
	"encoding/gob"
	"testing"

	"pet/internal/sim"
)

// FuzzLoadModels feeds arbitrary bytes to an ACC controller's bundle
// loader. The contract: LoadModels returns an error or succeeds, never
// panics, and a failed load leaves EncodeModels byte-identical to before
// the call (the load is all-or-nothing). The seeds are a real trained
// bundle, the target's own, damaged copies of them, and a bundle whose
// per-switch model file declares layers its weights cannot back, so plain
// `go test` replays them. The seeds are whole bundles (hundreds of KB), so bound
// minimization:
//
//	go test ./internal/acc -run '^$' -fuzz FuzzLoadModels -fuzzminimizetime 1x -parallel 1
func FuzzLoadModels(f *testing.F) {
	trained := func(seed int64) *Controller {
		fx := newFixture(f, seed)
		ctl := NewController(fx.net, testConfig())
		ctl.Start()
		fx.gen.Start()
		fx.eng.RunUntil(15 * sim.Millisecond)
		return ctl
	}
	target := trained(7)
	own, err := target.EncodeModels()
	if err != nil {
		f.Fatal(err)
	}
	donor, err := trained(8).EncodeModels()
	if err != nil {
		f.Fatal(err)
	}
	// The bundle and per-switch model wire formats, by gob field name.
	type bundle struct {
		Switches []int
		Models   [][]byte
	}
	type modelFile struct {
		Sizes []int
		Act   int
		Flat  []float64
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	var b bundle
	if err := gob.NewDecoder(bytes.NewReader(donor)).Decode(&b); err != nil {
		f.Fatal(err)
	}
	withModel := func(m []byte) []byte {
		models := append([][]byte(nil), b.Models...)
		models[len(models)-1] = m
		return encode(bundle{Switches: b.Switches, Models: models})
	}
	for _, seed := range [][]byte{
		donor,
		own,
		donor[:len(donor)/2],
		withModel(b.Models[0][:len(b.Models[0])/2]),
		withModel(encode(modelFile{Sizes: []int{1 << 40, 1 << 40}, Flat: []float64{1}})),
		withModel(encode(modelFile{Flat: []float64{1}})),
		withModel(encode(modelFile{Sizes: []int{1, 1, 1}, Act: 9, Flat: []float64{1, 1, 1, 1}})),
		encode(bundle{}),
		{},
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
