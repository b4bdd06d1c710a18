package bench_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pet/internal/bench"
	"pet/internal/sim"
)

// The learned controllers' identity golden: PET, PET-ablated, PET-CTDE and
// ACC on one fixed tiny-fabric scenario, training on and off, plus PET
// deployed from a pre-trained bundle. Each row pins sha256 digests of the
// Result (%#v), the full trace CSV (every ECN reconfiguration in order) and,
// for PET, the bundle EncodeModels returns after the run. Any change to a
// controller's arithmetic, RNG draws or per-tick order shows up here.
//
//	go test ./internal/bench -run LoopIdentity -update
//
// rewrites testdata/loop_identity.golden.
func TestLoopIdentityGolden(t *testing.T) {
	base := bench.Scenario{
		Load:           0.5,
		IncastFraction: 0.2,
		Seed:           7,
		Warmup:         15 * sim.Millisecond,
		Duration:       4 * sim.Millisecond,
		Trace:          true,
	}
	pretrained, err := bench.PretrainPET(base, 7*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		name   string
		scheme bench.Scheme
		train  bool
		models []byte
	}
	var rows []row
	for _, scheme := range []bench.Scheme{bench.SchemePET, bench.SchemePETAblated, bench.SchemePETCTDE, bench.SchemeACC} {
		rows = append(rows,
			row{string(scheme) + "/train", scheme, true, nil},
			row{string(scheme) + "/exec", scheme, false, nil})
	}
	rows = append(rows, row{"PET/pretrained", bench.SchemePET, false, pretrained})

	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return fmt.Sprintf("%x", sum[:8])
	}
	var got strings.Builder
	for _, r := range rows {
		s := base
		s.Scheme, s.Train, s.Models = r.scheme, r.train, r.models
		env, err := bench.NewEnv(s)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		res := env.Run()
		if res.FlowsDone == 0 {
			t.Fatalf("%s: no flows completed", r.name)
		}
		var csv bytes.Buffer
		if err := env.Trace.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s result=%s trace=%s", r.name, digest([]byte(fmt.Sprintf("%#v", res))), digest(csv.Bytes()))
		if r.scheme == bench.SchemePET || r.scheme == bench.SchemePETAblated {
			data, err := env.Control.(bench.ModelScheme).EncodeModels()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, " models=%s", digest(data))
		}
		got.WriteString("\n")
	}

	golden := filepath.Join("testdata", "loop_identity.golden")
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
		t.Errorf("learned-controller runs drifted from %s:\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
