package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateFlags = flag.Bool("update", false, "rewrite testdata/flags.golden")

// TestFlagSurfaceGolden pins every flag's name and default value, read from
// the -h listing, so usage wording may change but the flag surface may not.
// go test -run FlagSurface -update regenerates the golden after a deliberate
// change.
func TestFlagSurfaceGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	run(context.Background(), []string{"-h"}, &stdout, &stderr)
	var got strings.Builder
	for _, entry := range strings.Split(stderr.String(), "\n  -")[1:] {
		name := entry[:strings.IndexAny(entry, " \t\n")]
		def := ""
		if i := strings.LastIndex(entry, " (default "); i >= 0 {
			def = strings.TrimSuffix(strings.TrimSpace(entry[i+len(" (default "):]), ")")
		}
		got.WriteString(strings.TrimSpace(name+" "+def) + "\n")
	}
	golden := filepath.Join("testdata", "flags.golden")
	if *updateFlags {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("flag surface drifted from %s:\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
