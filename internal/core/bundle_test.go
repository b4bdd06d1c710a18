package core_test

import (
	"bytes"
	"testing"

	"pet/internal/bench"
	"pet/internal/core"
	"pet/internal/sim"
	"pet/internal/topo"

	// Register the ACC scheme and the default transport.
	_ "pet/internal/acc"
	_ "pet/internal/dcqcn"
)

// The loop's bundle codec is shared by every scheme with per-switch models,
// so its contracts are asserted for each of them.
var modelSchemes = []bench.Scheme{bench.SchemePET, bench.SchemeACC}

// trainedControl runs a short tiny-fabric training episode of scheme and
// returns its controller.
func trainedControl(t testing.TB, scheme bench.Scheme, seed int64) bench.ModelScheme {
	t.Helper()
	env, err := bench.NewEnv(bench.Scenario{
		Scheme:   scheme,
		Train:    true,
		Load:     0.6,
		Seed:     seed,
		Warmup:   10 * sim.Millisecond,
		Duration: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	return env.Control.(bench.ModelScheme)
}

func TestEncodeModelsDeterministic(t *testing.T) {
	for _, scheme := range modelSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			ctl := trainedControl(t, scheme, 3)
			first, err := ctl.EncodeModels()
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 20; i++ {
				again, err := ctl.EncodeModels()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first, again) {
					t.Fatalf("encode %d differs from the first: EncodeModels is not byte-deterministic", i+1)
				}
			}
		})
	}
}

func TestLoadModelsCorruptBundleLeavesWeightsUntouched(t *testing.T) {
	for _, scheme := range modelSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			ctl := trainedControl(t, scheme, 3)
			before, err := ctl.EncodeModels()
			if err != nil {
				t.Fatal(err)
			}
			donor, err := trainedControl(t, scheme, 4).EncodeModels()
			if err != nil {
				t.Fatal(err)
			}
			db, err := core.DecodeBundle(donor)
			if err != nil {
				t.Fatal(err)
			}
			if len(db.Models) < 2 {
				t.Fatalf("need ≥2 switches for partial-load injection, have %d", len(db.Models))
			}

			// Corrupt only the LAST switch's snapshot: a non-staged loader
			// would restore every earlier switch from the donor before failing.
			last := len(db.Models) - 1
			corrupt := core.ModelBundle{Switches: db.Switches, Models: append([][]byte(nil), db.Models...)}
			corrupt.Models[last] = db.Models[last][:len(db.Models[last])/2]
			encode := func(b core.ModelBundle) []byte {
				data, err := core.EncodeBundle(b)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}

			cases := map[string][]byte{
				"truncated-agent-snapshot": encode(corrupt),
				"truncated-bundle":         donor[:len(donor)/2],
				"garbage":                  {1, 2, 3, 4, 5},
				"mismatched-lengths":       encode(core.ModelBundle{Switches: db.Switches, Models: db.Models[:1]}),
			}
			for name, bad := range cases {
				if err := ctl.LoadModels(bad); err == nil {
					t.Fatalf("%s: corrupted bundle loaded without error", name)
				}
				after, err := ctl.EncodeModels()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before, after) {
					t.Fatalf("%s: failed load left partially-restored weights", name)
				}
			}

			// The intact donor bundle must still load after all the failures.
			if err := ctl.LoadModels(donor); err != nil {
				t.Fatalf("intact bundle rejected: %v", err)
			}
			after, _ := ctl.EncodeModels()
			if !bytes.Equal(after, donor) {
				t.Fatal("successful load did not adopt donor weights")
			}
		})
	}
}

// TestNewEnvRejectsForeignBundle: a bundle trained on another fabric covers
// a different switch set, so NewEnv refuses it in either direction instead
// of running the uncovered switches on their initial weights.
func TestNewEnvRejectsForeignBundle(t *testing.T) {
	for _, c := range []struct {
		name           string
		trained, serve topo.LeafSpineConfig
	}{
		{"tiny-on-small", topo.TinyScale(), topo.SmallScale()},
		{"small-on-tiny", topo.SmallScale(), topo.TinyScale()},
	} {
		t.Run(c.name, func(t *testing.T) {
			bundle, err := bench.PretrainInit(bench.Scenario{Topo: c.trained, Scheme: bench.SchemePET, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bench.NewEnv(bench.Scenario{Topo: c.serve, Scheme: bench.SchemePET, Models: bundle}); err == nil {
				t.Fatal("NewEnv loaded a bundle from another fabric")
			}
		})
	}
}
