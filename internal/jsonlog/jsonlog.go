// Package jsonlog holds the repo's append-only JSONL log discipline,
// shared by the model store's version log and the daemon's job journal:
// one JSON document per line, appended in a single Write call, replayed
// line by line on open. The crash contract is crash-only: an append torn
// mid-line by a kill or power loss is dropped on the next replay with the
// preceding history intact, while damage anywhere before the final line is
// a typed corruption error — silent truncation in the middle of history is
// never repaired over.
package jsonlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// ErrCorrupt reports an unparseable line before the end of a log — damage
// that cannot be explained by a single torn append. Matchable with
// errors.Is through whatever error a caller wraps around it.
var ErrCorrupt = errors.New("jsonlog: log corrupt")

// Append marshals v and appends it to path as one line. The line lands in
// a single Write call, which keeps the append all-or-nothing on local
// filesystems; Replay drops a torn tail regardless, so a crash between
// the open and the write loses at most the entry being written.
func Append(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jsonlog: marshaling entry: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jsonlog: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("jsonlog: appending: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jsonlog: %w", err)
	}
	return nil
}

// Replay decodes every non-blank line of path into a T and hands it to fn
// in file order, with line numbered from 1. A missing file replays
// nothing. The final line failing to decode is the crash-mid-append tear:
// it is dropped, and cut off the file so the next Append starts on a fresh
// line instead of gluing itself to the fragment. An undecodable earlier
// line returns an error wrapping ErrCorrupt. A final line that decodes but
// lost its newline to the tear is finished with one, for the same reason.
// An error from fn stops the replay and is returned as-is, so callers keep
// their own typed errors.
func Replay[T any](path string, fn func(line int, v T) error) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jsonlog: %w", err)
	}
	type line struct {
		text []byte
		off  int64 // where the line starts in the file
	}
	var lines []line
	var off int64
	for _, raw := range bytes.SplitAfter(data, []byte("\n")) {
		if text := bytes.TrimSpace(raw); len(text) > 0 {
			lines = append(lines, line{text, off})
		}
		off += int64(len(raw))
	}
	for i, l := range lines {
		var v T
		if err := json.Unmarshal(l.text, &v); err != nil {
			if i == len(lines)-1 {
				if err := os.Truncate(path, l.off); err != nil {
					return fmt.Errorf("jsonlog: cutting torn tail: %w", err)
				}
				return nil
			}
			return fmt.Errorf("%w: line %d: %v", ErrCorrupt, i+1, err)
		}
		if err := fn(i+1, v); err != nil {
			return err
		}
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("jsonlog: finishing last line: %w", err)
		}
		_, err = f.Write([]byte("\n"))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("jsonlog: finishing last line: %w", err)
		}
	}
	return nil
}
