package acc

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pet/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/train.golden")

// ACC's identity golden: the tiny fabric's four agents train over a global
// replay small enough to wrap many times within the run, so a later agent's
// push overwrites slots an earlier agent drew in the same interval. The
// golden pins the sha256 of the trained bundle together with each agent's
// learning steps and the gossip volume, so any change to the order in which
// agents push, draw, learn or act shows up here.
//
//	go test ./internal/acc -run TrainIdentity -update
//
// rewrites testdata/train.golden.
func TestTrainIdentityGolden(t *testing.T) {
	f := newFixture(t, 9)
	cfg := testConfig()
	cfg.GlobalReplay = true
	cfg.ReplayCap = 96
	ctl := NewController(f.net, cfg)
	ctl.Start()
	f.gen.Start()
	f.eng.RunUntil(12 * sim.Millisecond)

	data, err := ctl.EncodeModels()
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("bundle=%x exchanged=%d", sha256.Sum256(data), ctl.BytesExchanged())
	for _, a := range ctl.Agents() {
		got += fmt.Sprintf(" learn%d=%d", a.Switch, a.agent.LearnSteps())
	}
	got += "\n"

	golden := filepath.Join("testdata", "train.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("trained bundle drifted from %s:\n got: %s want: %s", golden, got, want)
	}
}
