package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListSchemesGolden pins the -list-schemes output: one sorted name per
// line, nothing else. Anything new that registers against the default
// import graph must update this list deliberately.
func TestListSchemesGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list-schemes"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	want := "ACC\nAMT\nPET\nPET-CTDE\nPET-ablated\nQAECN\nSECN1\nSECN2\n"
	if out.String() != want {
		t.Fatalf("-list-schemes = %q, want %q", out.String(), want)
	}
}

func TestListTransportsGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list-transports"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	want := "dcqcn\ndctcp\n"
	if out.String() != want {
		t.Fatalf("-list-transports = %q, want %q", out.String(), want)
	}
}

func TestUnknownSchemeExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-scheme", "bogus", "-duration", "1ms", "-warmup", "1ms"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown scheme "bogus"`) {
		t.Fatalf("stderr = %q", errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty on failure: %q", out.String())
	}
}

func TestUnknownTransportExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-transport", "pigeon", "-duration", "1ms", "-warmup", "1ms"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown transport "pigeon"`) {
		t.Fatalf("stderr = %q", errb.String())
	}
}

// An out-of-range flag is rejected by the same check a document field gets:
// exit 2 naming the field, never a panic inside the workload generator.
func TestOutOfRangeLoadExits2(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-load", "1.5", "-warmup", "1ms", "-duration", "1ms"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "load: 1.5 out of range") {
		t.Fatalf("stderr %q does not name load", errb.String())
	}
}

// TestShortRunPrintsStats drives a tiny real simulation through the CLI
// entry point end to end.
func TestShortRunPrintsStats(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-scheme", "SECN1", "-warmup", "2ms", "-duration", "5ms"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"scheme      SECN1", "flows done", "normalized FCT", "wall clock"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// --- scenario document loading ---

func TestScenarioFileRuns(t *testing.T) {
	dir := t.TempDir()
	doc := `{
		"name": "cli-probe",
		"seed": 5,
		"scheme": "SECN1",
		"load": 0.5,
		"warmup": "2ms",
		"duration": "5ms"
	}`
	path := filepath.Join(dir, "probe.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "scenario cli-probe") {
		t.Fatalf("output does not label the scenario run:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "scheme      SECN1") {
		t.Fatalf("output missing document scheme:\n%s", out.String())
	}
}

// Explicitly-set flags override the document; defaults do not.
func TestScenarioFlagOverrides(t *testing.T) {
	dir := t.TempDir()
	doc := `{"seed": 5, "scheme": "SECN1", "load": 0.5, "warmup": "2ms", "duration": "4ms"}`
	path := filepath.Join(dir, "probe.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", path, "-scheme", "SECN2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "scheme      SECN2") {
		t.Fatalf("explicit -scheme did not override the document:\n%s", out.String())
	}
}

func TestScenarioBadSpecExit2(t *testing.T) {
	dir := t.TempDir()
	cases := []struct{ doc, want string }{
		{`{"topo": {"spine": 2}}`, "topo.spine: unknown field"},
		{`{"scheme": "NOPE"}`, "scheme: bench: unknown scheme"},
		{`{"events": [{"at": "1ms", "kind": "quake"}]}`, "events[0].kind"},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		code := run([]string{"-scenario", path}, &out, &errb)
		if code != 2 {
			t.Fatalf("exit = %d, want 2 for %s", code, tc.doc)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Fatalf("stderr %q does not name %q", errb.String(), tc.want)
		}
	}
}

func TestScenarioMissingFileExit2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "/does/not/exist.json"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// Every canned library scenario loads and runs through petsim (windows
// shortened via explicit flag overrides to stay test-fast).
func TestCannedScenarioLibraryLoads(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario library found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run([]string{"-scenario", f, "-warmup", "1ms", "-duration", "2ms"}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit = %d, stderr: %s", code, errb.String())
			}
			if !strings.Contains(out.String(), "flows done") {
				t.Fatalf("no stats printed:\n%s", out.String())
			}
		})
	}
}

func TestListWorkloadsAndEvents(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list-workloads"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if out.String() != "datamining\nwebsearch\n" {
		t.Fatalf("-list-workloads = %q", out.String())
	}
	out.Reset()
	if code := run([]string{"-list-events"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if out.String() != "incast-burst\nlink-down\nlink-up\nload-change\nworkload-switch\n" {
		t.Fatalf("-list-events = %q", out.String())
	}
}
