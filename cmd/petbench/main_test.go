package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pet"
)

func TestScenarioBadSpecExit2(t *testing.T) {
	dir := t.TempDir()
	cases := []struct{ doc, want string }{
		{`{"bogus": true}`, "bogus: unknown field"},
		{`{"transport": "pigeon"}`, "transport: bench: unknown transport"},
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

// A scenario document runs as a single experiment and renders the
// metric/value table, also as CSV when -csv is given.
func TestScenarioRunRendersTable(t *testing.T) {
	dir := t.TempDir()
	doc := `{
		"name": "bench-probe",
		"seed": 4,
		"scheme": "SECN1",
		"load": 0.5,
		"warmup": "2ms",
		"duration": "4ms"
	}`
	path := filepath.Join(dir, "probe.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	csvDir := filepath.Join(dir, "csv")
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", path, "-csv", csvDir}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"== bench-probe ==", "metric", "scheme", "SECN1", "flows done"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(filepath.Join(csvDir, "probe.csv"))
	if err != nil {
		t.Fatalf("no CSV written: %v", err)
	}
	if !strings.Contains(string(data), "metric,value") {
		t.Fatalf("CSV header missing:\n%s", data)
	}
}

// Every canned library scenario loads and runs through petbench under the
// shrunken -quick windows.
func TestCannedScenarioLibraryLoads(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario library found: %v", err)
	}
	if testing.Short() {
		t.Skip("library runs simulations")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run([]string{"-scenario", f, "-quick"}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit = %d, stderr: %s", code, errb.String())
			}
			if !strings.Contains(out.String(), "metric") {
				t.Fatalf("no table rendered:\n%s", out.String())
			}
		})
	}
}

// The package doc lists every experiment, in the order -exp all runs them.
func TestDocListsEveryExhibit(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, doc, _ := strings.Cut(string(src), "// Experiments, in the order -exp all runs them:")
	doc, _, _ = strings.Cut(doc, "\n//\n")
	var names []string
	for _, e := range pet.Exhibits() {
		names = append(names, e.Name)
	}
	if got, want := strings.Fields(strings.ReplaceAll(doc, "//", "")), names; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("doc lists %v\nExhibits() = %v", got, want)
	}
}

func TestUnknownExperimentExit2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig3,nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown experiment "nope"`) || out.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q", out.String(), errb.String())
	}
}
