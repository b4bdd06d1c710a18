package modelstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustPut(t *testing.T, s *Store, bundle []byte, source string) VersionInfo {
	t.Helper()
	info, err := s.Put(bundle, source, "")
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	return info
}

func bundleN(n int) []byte { return []byte(fmt.Sprintf("bundle-%03d-payload", n)) }

func TestStorePutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Put(nil, "api", ""); !errors.Is(err, ErrEmptyBundle) {
		t.Fatalf("empty Put = %v, want ErrEmptyBundle", err)
	}

	for n := 1; n <= 3; n++ {
		info := mustPut(t, s, bundleN(n), "api")
		if info.Version != n {
			t.Fatalf("version %d assigned for put %d", info.Version, n)
		}
		if info.Bytes != len(bundleN(n)) || info.SHA256 == "" {
			t.Fatalf("bad info %+v", info)
		}
	}
	for n := 1; n <= 3; n++ {
		info, bundle, err := s.Get(n)
		if err != nil {
			t.Fatalf("Get(%d): %v", n, err)
		}
		if string(bundle) != string(bundleN(n)) || info.Version != n {
			t.Fatalf("Get(%d) = %q (v%d)", n, bundle, info.Version)
		}
	}
	if _, _, err := s.Get(0); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("Get(0) = %v", err)
	}
	if _, _, err := s.Get(4); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("Get(4) = %v", err)
	}
	if got := len(s.Versions()); got != 3 {
		t.Fatalf("Versions() lists %d entries, want 3", got)
	}
	if latest, ok := s.Latest(); !ok || latest.Version != 3 {
		t.Fatalf("Latest() = %+v, %v", latest, ok)
	}
}

// TestStoreContentAddressing: identical bytes are two versions sharing one
// object file.
func TestStoreContentAddressing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := mustPut(t, s, bundleN(1), "first")
	b := mustPut(t, s, bundleN(1), "second")
	if a.SHA256 != b.SHA256 || a.Version == b.Version {
		t.Fatalf("dup put: %+v vs %+v", a, b)
	}
	entries, err := os.ReadDir(filepath.Join(s.Dir(), objectsDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d object files for identical bundles, want 1", len(entries))
	}
}

// TestStoreReopen: the log and channels replay into a fresh Store.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		mustPut(t, s, bundleN(n), "api")
	}
	if err := s.SetChannel(ChannelServing, 2); err != nil {
		t.Fatalf("SetChannel: %v", err)
	}
	if err := s.SetChannel(ChannelCandidate, 4); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := len(r.Versions()); got != 4 {
		t.Fatalf("reopened store lists %d versions, want 4", got)
	}
	info, bundle, err := r.Resolve(ChannelServing)
	if err != nil || info.Version != 2 || string(bundle) != string(bundleN(2)) {
		t.Fatalf("Resolve(serving) = v%d %q, %v", info.Version, bundle, err)
	}
	if ch := r.Channels(); ch[ChannelCandidate] != 4 || len(ch) != 2 {
		t.Fatalf("reopened channels = %v", ch)
	}

	// Another Put continues the version sequence.
	if info := mustPut(t, r, bundleN(5), "api"); info.Version != 5 {
		t.Fatalf("post-reopen version %d, want 5", info.Version)
	}
}

// TestStoreTornLogTail: a crash mid-append leaves a partial last line; Open
// drops it and keeps the intact prefix. Damage earlier in the log is a
// typed error, never silently accepted.
func TestStoreTornLogTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, bundleN(1), "api")
	mustPut(t, s, bundleN(2), "api")

	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"version":3,"sha256":"dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	if got := len(r.Versions()); got != 2 {
		t.Fatalf("torn-tail store lists %d versions, want 2", got)
	}

	// Corrupt a middle line: typed failure.
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	garbled := []byte("not json at all\n")
	if err := os.WriteFile(logPath, append(garbled, data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("Open with corrupt head = %v, want ErrLogCorrupt", err)
	}
}

func TestStoreCorruptObject(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	info := mustPut(t, s, bundleN(1), "api")
	if err := os.WriteFile(s.objectPath(info.SHA256), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(info.Version); !errors.Is(err, ErrBundleCorrupt) {
		t.Fatalf("Get(corrupt) = %v, want ErrBundleCorrupt", err)
	}
	if err := os.Remove(s.objectPath(info.SHA256)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(info.Version); !errors.Is(err, ErrBundleGone) {
		t.Fatalf("Get(missing) = %v, want ErrBundleGone", err)
	}
}

// TestStorePutReplacesRottedObject: a Put of bytes whose object already
// exists rewrites it, so re-putting a bundle repairs a copy that rotted on
// disk instead of logging a new version over the bad bytes.
func TestStorePutReplacesRottedObject(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := mustPut(t, s, bundleN(1), "api")
	if err := os.WriteFile(s.objectPath(first.SHA256), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	second := mustPut(t, s, bundleN(1), "api")
	for _, v := range []int{first.Version, second.Version} {
		if _, bundle, err := s.Get(v); err != nil || string(bundle) != string(bundleN(1)) {
			t.Fatalf("Get(%d) after re-put = %q, %v", v, bundle, err)
		}
	}
}

// TestStorePutMeta: the producer's JSON document rides in the version's log
// entry and survives a reopen; plain Put records none.
func TestStorePutMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, bundleN(1), "api")
	if _, err := s.PutMeta(bundleN(2), "fleet round 1", "", json.RawMessage(`{"round":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutMeta(bundleN(3), "x", "", json.RawMessage(`{not json`)); err == nil {
		t.Fatal("malformed meta accepted into the log")
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	versions := r.Versions()
	if len(versions) != 2 || versions[0].Meta != nil || string(versions[1].Meta) != `{"round":1}` {
		t.Fatalf("reopened versions = %+v", versions)
	}
}

func TestStoreChannelValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, bundleN(1), "api")

	if err := s.SetChannel("Serving", 1); !errors.Is(err, ErrBadChannel) {
		t.Fatalf("uppercase channel = %v", err)
	}
	if err := s.SetChannel("../evil", 1); !errors.Is(err, ErrBadChannel) {
		t.Fatalf("traversal channel = %v", err)
	}
	if err := s.SetChannel(ChannelServing, 9); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("channel to missing version = %v", err)
	}
	if _, err := s.Channel("unset"); !errors.Is(err, ErrChannelNotFound) {
		t.Fatalf("unset channel = %v", err)
	}
	if err := s.SetChannel(ChannelServing, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteChannel(ChannelServing); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Channel(ChannelServing); !errors.Is(err, ErrChannelNotFound) {
		t.Fatalf("deleted channel = %v", err)
	}
	if err := s.DeleteChannel(ChannelServing); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

// TestStoreGCRetention: GC keeps the newest K versions plus every
// channel-pinned version — the serving and last-promoted bundles are never
// deleted — and collected versions answer ErrBundleGone while staying in
// the log. Run under -count=2 by `make race`, the retention set must
// come out identical every time.
func TestStoreGCRetention(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 6; n++ {
		mustPut(t, s, bundleN(n), "api")
	}
	// v1 is serving, v2 was the previous promotion; keep=2 retains v5, v6.
	if err := s.SetChannel(ChannelServing, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetChannel(ChannelPrevious, 2); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC(2)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if want := []int{3, 4}; len(removed) != 2 || removed[0] != want[0] || removed[1] != want[1] {
		t.Fatalf("GC removed %v, want %v", removed, want)
	}
	for _, v := range []int{1, 2, 5, 6} {
		if _, _, err := s.Get(v); err != nil {
			t.Fatalf("retained version %d unreadable: %v", v, err)
		}
	}
	for _, v := range []int{3, 4} {
		if _, _, err := s.Get(v); !errors.Is(err, ErrBundleGone) {
			t.Fatalf("collected version %d = %v, want ErrBundleGone", v, err)
		}
		if _, err := s.Info(v); err != nil {
			t.Fatalf("collected version %d fell out of the log: %v", v, err)
		}
	}
	if got := len(s.Versions()); got != 6 {
		t.Fatalf("log shrank to %d entries after GC", got)
	}
	// A second GC is a no-op.
	if removed, err := s.GC(2); err != nil || len(removed) != 0 {
		t.Fatalf("second GC removed %v (err %v)", removed, err)
	}
}

// TestStoreGCSharedObject: an old version whose digest a retained version
// shares keeps its bytes — content addressing must not let GC delete a
// bundle out from under the serving channel.
func TestStoreGCSharedObject(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, bundleN(1), "api") // v1
	for n := 2; n <= 4; n++ {
		mustPut(t, s, bundleN(n), "api")
	}
	shared := mustPut(t, s, bundleN(1), "api") // v5 shares v1's object
	if err := s.SetChannel(ChannelServing, shared.Version); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	// v1's object survives (shared with serving v5); v2 and v3 go. v4 is
	// inside keep=1? No: keep=1 retains v5 only, but v5 is also pinned.
	if _, _, err := s.Get(1); err != nil {
		t.Fatalf("v1 (digest shared with serving) unreadable after GC: %v", err)
	}
	for _, v := range []int{2, 3, 4} {
		if _, _, err := s.Get(v); !errors.Is(err, ErrBundleGone) {
			t.Fatalf("v%d = %v, want ErrBundleGone (removed %v)", v, err, removed)
		}
	}
}

// TestStoreConcurrent hammers Put/Get/SetChannel/GC from many goroutines;
// meaningful under -race.
func TestStoreConcurrent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seed := mustPut(t, s, bundleN(0), "seed")
	if err := s.SetChannel(ChannelServing, seed.Version); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				info, err := s.Put(bundleN(100+g*20+i), fmt.Sprintf("worker-%d", g), "")
				if err != nil {
					errc <- err
					return
				}
				// An unpinned version may be collected by the concurrent
				// GC(3) at any time — that is the contract (pin a channel
				// to keep bytes alive) — so ErrBundleGone is a legal
				// outcome here, not a failure.
				if _, _, err := s.Get(info.Version); err != nil && !errors.Is(err, ErrBundleGone) {
					errc <- err
					return
				}
				if g == 0 {
					if _, err := s.GC(3); err != nil {
						errc <- err
						return
					}
				}
				if _, _, err := s.Resolve(ChannelServing); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent store op: %v", err)
	}
	if got := len(s.Versions()); got != 1+8*20 {
		t.Fatalf("%d versions after concurrent puts, want %d", got, 1+8*20)
	}
	// Serving stayed pinned through every GC.
	if _, _, err := s.Resolve(ChannelServing); err != nil {
		t.Fatalf("serving bundle lost: %v", err)
	}
}
