package jsonlog

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

type rec struct {
	N    int    `json:"n"`
	Name string `json:"name,omitempty"`
}

func replayAll(t *testing.T, path string) ([]rec, error) {
	t.Helper()
	var out []rec
	err := Replay(path, func(_ int, v rec) error {
		out = append(out, v)
		return nil
	})
	return out, err
}

func TestJournalLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	want := []rec{{N: 1, Name: "a"}, {N: 2}, {N: 3, Name: "c"}}
	for _, r := range want {
		if err := Append(path, r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, err := replayAll(t, path)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalLogMissingFile(t *testing.T) {
	got, err := replayAll(t, filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing file: %d records, err %v; want 0, nil", len(got), err)
	}
}

// TestJournalLogTornTail: a final line cut mid-JSON (the crash-mid-append
// case) is dropped with the preceding history intact.
func TestJournalLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	for i := 1; i <= 3; i++ {
		if err := Append(path, rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(t, path)
	if err != nil {
		t.Fatalf("Replay after tear: %v", err)
	}
	if len(got) != 2 || got[0].N != 1 || got[1].N != 2 {
		t.Fatalf("replayed %+v, want records 1 and 2", got)
	}

	// The fragment is cut off the file, so appends after the recovery land
	// on lines of their own — not glued to it, where the first would be
	// lost and the second would turn the fragment into mid-log damage.
	for i := 3; i <= 4; i++ {
		if err := Append(path, rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	got, err = replayAll(t, path)
	if err != nil || len(got) != 4 || got[2].N != 3 || got[3].N != 4 {
		t.Fatalf("after appending past the tear: %+v, err %v; want records 1 to 4", got, err)
	}
}

// TestJournalLogMidCorruption: damage before the final line is ErrCorrupt,
// never silently repaired over.
func TestJournalLogMidCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	if err := os.WriteFile(path, []byte("{\"n\":1}\nnot json at all\n{\"n\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := replayAll(t, path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log damage: err = %v, want ErrCorrupt", err)
	}
}

// TestJournalLogFnErrorPropagates: a semantic error from the callback is
// returned as-is, so callers keep their own typed errors.
func TestJournalLogFnErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	for i := 1; i <= 2; i++ {
		if err := Append(path, rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := errors.New("semantic")
	err := Replay(path, func(line int, v rec) error {
		if v.N == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's own error", err)
	}
	if strings.Contains(err.Error(), "jsonlog") {
		t.Fatalf("callback error was wrapped: %v", err)
	}
}

// TestJournalLogBlankLinesSkipped: blank lines (e.g. from hand edits) are
// not records.
func TestJournalLogBlankLinesSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	if err := os.WriteFile(path, []byte("\n{\"n\":1}\n\n  \n{\"n\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(t, path)
	if err != nil || len(got) != 2 {
		t.Fatalf("got %d records (err %v), want 2", len(got), err)
	}
}

// TestJournalLogTornNewline: a tear just before the final newline leaves a
// whole last record. Replay keeps it and finishes its line, so appends after
// the recovery land on lines of their own instead of gluing onto it — which
// would lose both records on the next replay, or turn them into mid-log
// damage once one more append follows.
func TestJournalLogTornNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	if err := os.WriteFile(path, []byte("{\"n\":1}\n{\"n\":2}"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(t, path)
	if err != nil || len(got) != 2 || got[1].N != 2 {
		t.Fatalf("replay of an unfinished last line: %+v, err %v; want records 1 and 2", got, err)
	}
	for i := 3; i <= 4; i++ {
		if err := Append(path, rec{N: i}); err != nil {
			t.Fatal(err)
		}
		got, err = replayAll(t, path)
		if err != nil || len(got) != i || got[i-1].N != i {
			t.Fatalf("after appending record %d: %+v, err %v; want records 1 to %d", i, got, err, i)
		}
	}
}

// FuzzReplay: whatever bytes a log holds, Replay either fails with
// ErrCorrupt or succeeds without panicking; and after a successful replay an
// Append followed by another replay yields the same records plus the new one.
func FuzzReplay(f *testing.F) {
	for _, seed := range []string{
		"{\"n\":1}\n{\"n\":2,\"name\":\"b\"}\n", // valid log
		"{\"n\":1}\n{\"n\":2}\n{\"n\":3,\"na",   // torn tail
		"{\"n\":1}\n{\"n\":2}",                  // torn just before the newline
		"{\"n\":1}\ngarbage\n{\"n\":3}\n",       // mid-history garbage
		"\n{\"n\":1}\n\n  \n{\"n\":2}\n\n",      // blank lines
		"{\"n\":1}\r\n{\"n\":2}\r\n{\"n\":3}\r", // CRLF
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "x.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before, err := replayAll(t, path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Replay error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		added := rec{N: -7, Name: "appended"}
		if err := Append(path, added); err != nil {
			t.Fatal(err)
		}
		after, err := replayAll(t, path)
		if err != nil {
			t.Fatalf("replay after Append: %v", err)
		}
		if want := append(before, added); !slices.Equal(after, want) {
			t.Fatalf("after Append replayed %+v, want %+v", after, want)
		}
	})
}
