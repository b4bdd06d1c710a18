package core

import (
	"bytes"
	"testing"

	"pet/internal/sim"
)

// trainedBundle runs a short training episode and returns the controller
// plus its encoded bundle.
func trainedBundle(t *testing.T, seed int64) (*Controller, []byte) {
	t.Helper()
	f := newFixture(t, seed)
	cfg := testConfig()
	cfg.Seed = seed
	ctl := NewController(f.net, cfg)
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(10 * sim.Millisecond)
	data, err := ctl.EncodeModels()
	if err != nil {
		t.Fatal(err)
	}
	return ctl, data
}

func TestMergeModelBundlesAveragesPerSwitch(t *testing.T) {
	_, a := trainedBundle(t, 5)
	_, b := trainedBundle(t, 6)
	merged, err := MergeModelBundles([][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// The merged bundle must load into a fresh controller.
	f := newFixture(t, 7)
	ctl := NewController(f.net, testConfig())
	if err := ctl.LoadModels(merged); err != nil {
		t.Fatalf("merged bundle rejected: %v", err)
	}
	// Merging a bundle with itself must be a fixpoint.
	self, err := MergeModelBundles([][]byte{a, a})
	if err != nil {
		t.Fatal(err)
	}
	da, _ := decodeBundle(a)
	ds, _ := decodeBundle(self)
	for i := range da.Models {
		// Averaging x with x re-encodes the same floats.
		if !bytes.Equal(da.Models[i], ds.Models[i]) {
			t.Fatalf("self-merge changed switch %d weights", da.Switches[i])
		}
	}
}

func TestMergeModelBundlesSingleIsIdentity(t *testing.T) {
	_, a := trainedBundle(t, 5)
	merged, err := MergeModelBundles([][]byte{a})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, a) {
		t.Fatal("single-bundle merge is not byte-identical")
	}
}

func TestMergeModelBundlesRejectsMismatchedSwitchSets(t *testing.T) {
	_, a := trainedBundle(t, 5)
	da, err := decodeBundle(a)
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := encodeBundle(modelBundle{Switches: da.Switches[:1], Models: da.Models[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeModelBundles([][]byte{a, smaller}); err == nil {
		t.Fatal("merged bundles with different switch sets")
	}
	if _, err := MergeModelBundles(nil); err == nil {
		t.Fatal("merged zero bundles")
	}
}
