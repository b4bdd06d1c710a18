// Package modelstore is the versioned, content-addressed store for model
// bundles — the one persistence layer under the paper's hybrid training loop
// (train → eval → promote → serve): the fleet checkpoints every round into
// a store, and petd promotes and serves out of the same directory. Every
// read verifies the sha256 recorded at write time. Three ideas:
//
//   - Content addressing. Bundle bytes live under objects/ named by their
//     sha256, so identical bundles share storage and a bundle can never be
//     silently replaced in place — a new model is always a new object.
//   - An append-only version log. Every Put appends one JSON line to
//     versions.log with a monotonically increasing version number, the
//     digest, and where the bundle came from (an API upload, a pretrain
//     job, a fleet checkpoint round). History is never rewritten; GC
//     deletes object bytes, not log entries.
//   - Named channels. A channel (serving, candidate, previous, …) is a
//     movable pointer to one version, swapped atomically via
//     write-to-temp + rename. Promotion is "move the serving channel";
//     rollback is "move it back" — bundle bytes never change.
//
// Garbage collection keeps the newest K versions plus everything any
// channel points at, so the serving and last-promoted bundles are
// undeletable while referenced. Every failure mode has a typed error
// (ErrVersionNotFound, ErrBundleGone, ErrBundleCorrupt, …) matchable with
// errors.Is, so callers — the petd promotion API above all — can
// distinguish "never existed" from "collected" from "corrupted on disk".
//
// A Store is safe for concurrent use by multiple goroutines in one
// process. It assumes one open Store per directory at a time: a fleet
// checkpointing into a directory and a petd serving from it take turns.
package modelstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pet/internal/jsonlog"
)

// The well-known channel names the serving loop uses. Channels are free-form
// (any lowercase [a-z0-9-] name); these three are the convention petd wires:
// new bundles land on candidate, promotion moves serving (saving the old
// serving version to previous for rollback).
const (
	ChannelServing   = "serving"
	ChannelCandidate = "candidate"
	ChannelPrevious  = "previous"
)

// On-disk layout within the store directory.
const (
	objectsDir    = "objects"
	channelsDir   = "channels"
	logName       = "versions.log"
	objectSuffix  = ".bundle"
	defaultKeepGC = 5
)

// VersionInfo is one version-log entry: an immutable record of one Put.
type VersionInfo struct {
	Version   int       `json:"version"`          // monotonically increasing, 1-based
	SHA256    string    `json:"sha256"`           // hex digest of the bundle bytes
	Bytes     int       `json:"bytes"`            // bundle size
	Source    string    `json:"source,omitempty"` // provenance: "api", "job exp-000001", "fleet round 4", ...
	Note      string    `json:"note,omitempty"`   // free-form operator annotation
	CreatedAt time.Time `json:"created_at"`

	// Meta is the producer's machine-readable record of the version, opaque
	// to the store (PutMeta). The fleet keeps its run manifest here, so the
	// log line that commits a checkpointed round also describes it.
	Meta json.RawMessage `json:"meta,omitempty"`
}

// Typed store errors, matchable with errors.Is.
var (
	// ErrEmptyBundle rejects Put with zero bytes.
	ErrEmptyBundle = errors.New("modelstore: empty bundle")
	// ErrVersionNotFound reports a version number the log never recorded.
	ErrVersionNotFound = errors.New("modelstore: no such version")
	// ErrChannelNotFound reports an unset channel.
	ErrChannelNotFound = errors.New("modelstore: no such channel")
	// ErrBundleGone reports a logged version whose object bytes have been
	// garbage-collected (or removed out of band).
	ErrBundleGone = errors.New("modelstore: bundle bytes gone (garbage-collected?)")
	// ErrBundleCorrupt reports object bytes that no longer match the digest
	// recorded in the version log.
	ErrBundleCorrupt = errors.New("modelstore: bundle checksum mismatch")
	// ErrLogCorrupt reports an unparseable or non-monotonic version log.
	ErrLogCorrupt = errors.New("modelstore: version log corrupt")
	// ErrBadChannel rejects channel names outside [a-z0-9-]+.
	ErrBadChannel = errors.New("modelstore: bad channel name")
)

// Store is one on-disk versioned bundle store.
type Store struct {
	dir string

	mu       sync.Mutex
	versions []VersionInfo  // append-only, sorted by Version
	channels map[string]int // channel name -> version
}

// Open opens (creating if necessary) the store rooted at dir, replaying the
// version log and channel pointers into memory. A torn final log line (a
// crash mid-append) is dropped with the preceding history intact; any
// earlier damage is ErrLogCorrupt.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, channelsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("modelstore: %w", err)
		}
	}
	s := &Store{dir: dir, channels: map[string]int{}}
	if err := s.replayLog(); err != nil {
		return nil, err
	}
	if err := s.loadChannels(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) logPath() string { return filepath.Join(s.dir, logName) }

func (s *Store) objectPath(sha string) string {
	return filepath.Join(s.dir, objectsDir, sha+objectSuffix)
}

func (s *Store) channelPath(name string) string {
	return filepath.Join(s.dir, channelsDir, name)
}

// replayLog restores the in-memory version list from versions.log. The
// torn-tail / mid-log-damage discipline lives in jsonlog (shared with the
// daemon's job journal); this layer adds the monotonic-version invariant.
func (s *Store) replayLog() error {
	err := jsonlog.Replay(s.logPath(), func(line int, v VersionInfo) error {
		if want := len(s.versions) + 1; v.Version != want || v.SHA256 == "" || v.Bytes <= 0 {
			return fmt.Errorf("%w: line %d records version %d (sha %q, %d bytes), want version %d",
				ErrLogCorrupt, line, v.Version, v.SHA256, v.Bytes, want)
		}
		s.versions = append(s.versions, v)
		return nil
	})
	if err != nil && errors.Is(err, jsonlog.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrLogCorrupt, err)
	}
	return err
}

// loadChannels restores the channel pointers; a channel naming a version the
// log never recorded is dropped (a torn write), never an error.
func (s *Store) loadChannels() error {
	entries, err := os.ReadDir(filepath.Join(s.dir, channelsDir))
	if err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !validChannelName(name) {
			continue
		}
		data, err := os.ReadFile(s.channelPath(name))
		if err != nil {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSpace(string(data)))
		if err != nil || v < 1 || v > len(s.versions) {
			continue
		}
		s.channels[name] = v
	}
	return nil
}

func validChannelName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return false
		}
	}
	return true
}

// atomicWrite writes data next to path and renames it into place.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Put records bundle as the next version: the bytes land content-addressed
// under objects/ (shared if an identical bundle already exists), then one
// line is appended to the version log. source and note document provenance.
func (s *Store) Put(bundle []byte, source, note string) (VersionInfo, error) {
	return s.PutMeta(bundle, source, note, nil)
}

// PutMeta is Put with a JSON document recorded in the version's log entry.
func (s *Store) PutMeta(bundle []byte, source, note string, meta json.RawMessage) (VersionInfo, error) {
	if len(bundle) == 0 {
		return VersionInfo{}, ErrEmptyBundle
	}
	sum := sha256.Sum256(bundle)
	sha := hex.EncodeToString(sum[:])

	s.mu.Lock()
	defer s.mu.Unlock()

	// Object first, log second: a crash between the two leaves an orphan
	// object (harmless, re-adopted by the next identical Put), never a log
	// entry whose bytes are missing. The object is written even when one of
	// that name exists: a deterministic rerun reproduces a lost round's exact
	// bytes, and this Put is what replaces a copy that rotted on disk.
	if err := atomicWrite(s.objectPath(sha), bundle); err != nil {
		return VersionInfo{}, fmt.Errorf("modelstore: writing object: %w", err)
	}

	info := VersionInfo{
		Version:   len(s.versions) + 1,
		SHA256:    sha,
		Bytes:     len(bundle),
		Source:    source,
		Note:      note,
		CreatedAt: time.Now().UTC(),
		Meta:      meta,
	}
	if err := jsonlog.Append(s.logPath(), info); err != nil {
		return VersionInfo{}, fmt.Errorf("modelstore: appending version log: %w", err)
	}
	s.versions = append(s.versions, info)
	return info, nil
}

// Info returns one version's log entry.
func (s *Store) Info(version int) (VersionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(version)
}

func (s *Store) infoLocked(version int) (VersionInfo, error) {
	if version < 1 || version > len(s.versions) {
		return VersionInfo{}, fmt.Errorf("%w: version %d (store has %d)", ErrVersionNotFound, version, len(s.versions))
	}
	return s.versions[version-1], nil
}

// Get returns one version's log entry and its bundle bytes, verified
// against the logged sha256. A garbage-collected version is ErrBundleGone;
// bytes failing the digest are ErrBundleCorrupt.
func (s *Store) Get(version int) (VersionInfo, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(version)
}

func (s *Store) getLocked(version int) (VersionInfo, []byte, error) {
	info, err := s.infoLocked(version)
	if err != nil {
		return VersionInfo{}, nil, err
	}
	bundle, err := os.ReadFile(s.objectPath(info.SHA256))
	if errors.Is(err, os.ErrNotExist) {
		return info, nil, fmt.Errorf("%w: version %d (sha256 %.12s…)", ErrBundleGone, version, info.SHA256)
	}
	if err != nil {
		return info, nil, fmt.Errorf("modelstore: %w", err)
	}
	sum := sha256.Sum256(bundle)
	if got := hex.EncodeToString(sum[:]); got != info.SHA256 {
		return info, nil, fmt.Errorf("%w: version %d object hashes to %.12s…, log says %.12s…",
			ErrBundleCorrupt, version, got, info.SHA256)
	}
	return info, bundle, nil
}

// Versions returns a copy of the full version log, oldest first. Entries
// whose bytes have been garbage-collected are still listed — the log is
// history, not inventory.
func (s *Store) Versions() []VersionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]VersionInfo, len(s.versions))
	copy(out, s.versions)
	return out
}

// Latest returns the newest version's entry, if any.
func (s *Store) Latest() (VersionInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.versions) == 0 {
		return VersionInfo{}, false
	}
	return s.versions[len(s.versions)-1], true
}

// SetChannel points channel name at version, atomically (write-to-temp +
// rename): readers see either the old target or the new one, never a torn
// file. The version must exist in the log.
func (s *Store) SetChannel(name string, version int) error {
	if !validChannelName(name) {
		return fmt.Errorf("%w: %q (want [a-z0-9-]+)", ErrBadChannel, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.infoLocked(version); err != nil {
		return err
	}
	if err := atomicWrite(s.channelPath(name), []byte(strconv.Itoa(version)+"\n")); err != nil {
		return fmt.Errorf("modelstore: writing channel %s: %w", name, err)
	}
	s.channels[name] = version
	return nil
}

// DeleteChannel removes a channel pointer (its target version keeps its
// bytes until GC runs without the pin). Deleting an unset channel is a
// no-op.
func (s *Store) DeleteChannel(name string) error {
	if !validChannelName(name) {
		return fmt.Errorf("%w: %q (want [a-z0-9-]+)", ErrBadChannel, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(s.channelPath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("modelstore: %w", err)
	}
	delete(s.channels, name)
	return nil
}

// Channel returns the version a channel points at, or ErrChannelNotFound.
func (s *Store) Channel(name string) (VersionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.channels[name]
	if !ok {
		return VersionInfo{}, fmt.Errorf("%w: %q", ErrChannelNotFound, name)
	}
	return s.infoLocked(v)
}

// Channels returns a copy of every channel pointer.
func (s *Store) Channels() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.channels))
	for k, v := range s.channels {
		out[k] = v
	}
	return out
}

// Resolve returns the entry and verified bundle bytes a channel points at.
func (s *Store) Resolve(name string) (VersionInfo, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.channels[name]
	if !ok {
		return VersionInfo{}, nil, fmt.Errorf("%w: %q", ErrChannelNotFound, name)
	}
	return s.getLocked(v)
}

// GC deletes the object bytes of every version outside the retention set:
// the newest keep versions (keep <= 0 means 5) plus every channel-pinned
// version — the serving and last-promoted bundles are therefore
// undeletable while their channels reference them. An object shared by a
// retained version (content addressing) survives even when an old version
// with the same digest is collected. Returns the version numbers whose
// bytes were removed, ascending.
func (s *Store) GC(keep int) ([]int, error) {
	if keep <= 0 {
		keep = defaultKeepGC
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	retained := make(map[int]bool, keep+len(s.channels))
	for v := len(s.versions); v > len(s.versions)-keep && v > 0; v-- {
		retained[v] = true
	}
	for _, v := range s.channels {
		retained[v] = true
	}
	keepSHA := make(map[string]bool, len(retained))
	for v := range retained {
		keepSHA[s.versions[v-1].SHA256] = true
	}

	var removed []int
	var firstErr error
	for i, info := range s.versions {
		v := i + 1
		if retained[v] || keepSHA[info.SHA256] {
			continue
		}
		err := os.Remove(s.objectPath(info.SHA256))
		switch {
		case err == nil:
			removed = append(removed, v)
		case errors.Is(err, os.ErrNotExist):
			// Already collected under an earlier version sharing the digest,
			// or by a previous GC.
		case firstErr == nil:
			firstErr = fmt.Errorf("modelstore: removing version %d object: %w", v, err)
		}
	}
	sort.Ints(removed)
	return removed, firstErr
}
