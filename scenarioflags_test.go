package pet_test

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pet"
)

// scenarioFromFlags parses args through a ScenarioFlags set the way a CLI
// does and builds the Scenario.
func scenarioFromFlags(t *testing.T, args ...string) pet.Scenario {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var sf pet.ScenarioFlags
	sf.Register(fs, "scenario", "workload")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	spec, err := sf.Spec()
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A -workload flag over a document without betas re-derives the reward
// weights from the final workload, so the run equals the flags-only one.
func TestScenarioFlagsBetasFollowWorkload(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "doc.json")
	// The CLI default document, without betas.
	if err := os.WriteFile(doc, []byte(`{
		"topo": {"preset": "tiny"}, "seed": 1,
		"workload": {"name": "websearch"}, "load": 0.6,
		"incast_fraction": 0.2, "incast_fan_in": 3,
		"scheme": "PET", "transport": "dcqcn", "train": true,
		"warmup": "20ms", "duration": "60ms", "shards": 1
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fromDoc := scenarioFromFlags(t, "-scenario", doc, "-workload", "datamining")
	flagsOnly := scenarioFromFlags(t, "-workload", "datamining")
	if fromDoc.Beta1 != 0.7 || fromDoc.Beta2 != 0.3 {
		t.Fatalf("betas = (%g, %g), want the datamining defaults (0.7, 0.3)", fromDoc.Beta1, fromDoc.Beta2)
	}
	if !reflect.DeepEqual(fromDoc, flagsOnly) {
		t.Fatalf("document plus flags diverges from flags only:\n%+v\n%+v", fromDoc, flagsOnly)
	}
}
