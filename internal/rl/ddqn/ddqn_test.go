package ddqn

import (
	"bytes"
	"math"
	"testing"

	"pet/internal/rng"
)

func TestReplayRing(t *testing.T) {
	rp := NewReplay(3, 1)
	for i := 0; i < 5; i++ {
		rp.Push(Transition{R: float64(i), S: []float64{0}, S2: []float64{0}})
	}
	if rp.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", rp.Len())
	}
	// Oldest entries (0, 1) must have been overwritten.
	sum := 0.0
	for _, tr := range rp.buf {
		sum += tr.R
	}
	if sum != 2+3+4 {
		t.Fatalf("buffer contents sum %v, want 9", sum)
	}
}

func TestReplaySample(t *testing.T) {
	rp := NewReplay(10, 2)
	for i := 0; i < 10; i++ {
		rp.Push(Transition{A: i, S: []float64{0}, S2: []float64{0}})
	}
	got := rp.Sample(32, nil)
	if len(got) != 32 {
		t.Fatalf("sampled %d", len(got))
	}
	seen := map[int]bool{}
	for _, tr := range got {
		seen[tr.A] = true
	}
	if len(seen) < 5 {
		t.Fatalf("sampling hit only %d distinct entries", len(seen))
	}
}

func TestGlobalReplayExchangeAccounting(t *testing.T) {
	rp := NewReplay(100, 3)
	// Three subscribers: every push gossips to the other two.
	rp.Subscribe()
	rp.Subscribe()
	rp.Subscribe()
	tr := Transition{S: make([]float64, 6), S2: make([]float64, 6), A: 1, R: 0.5}
	rp.Push(tr)
	want := tr.wireBytes() * 2
	if rp.BytesExchanged() != want {
		t.Fatalf("BytesExchanged = %d, want %d", rp.BytesExchanged(), want)
	}
	rp.Push(tr)
	if rp.BytesExchanged() != 2*want {
		t.Fatalf("BytesExchanged after 2 pushes = %d", rp.BytesExchanged())
	}
	if rp.MemoryBytes() != 2*tr.wireBytes() {
		t.Fatalf("MemoryBytes = %d", rp.MemoryBytes())
	}
}

func TestLocalReplayNoExchange(t *testing.T) {
	a := New(Config{ObsDim: 2, Actions: 3}, 1, nil)
	for i := 0; i < 10; i++ {
		a.Replay().Push(Transition{S: []float64{0, 0}, S2: []float64{0, 0}})
	}
	if a.Replay().BytesExchanged() != 0 {
		t.Fatal("single-subscriber replay accrued exchange bytes")
	}
}

func TestActEpsilonGreedy(t *testing.T) {
	a := New(Config{ObsDim: 2, Actions: 4}, 4, nil)
	s := []float64{0.3, -0.3}
	// ε=0 is deterministic.
	first := a.Act(s, 0)
	for i := 0; i < 20; i++ {
		if a.Act(s, 0) != first {
			t.Fatal("greedy action not deterministic")
		}
	}
	// ε=1 explores everything.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[a.Act(s, 1)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("ε=1 visited %d/4 actions", len(seen))
	}
}

func TestLearnsContextualBandit(t *testing.T) {
	a := New(Config{ObsDim: 1, Actions: 2, Gamma: 0.1, TargetSync: 20}, 5, nil)
	r := rng.New(6)
	for i := 0; i < 3000; i++ {
		ctx := float64(r.Intn(2))
		s := []float64{ctx}
		act := a.Act(s, 0.2)
		rew := 0.0
		if (ctx == 0 && act == 1) || (ctx == 1 && act == 0) {
			rew = 1
		}
		a.Observe(Transition{S: []float64{ctx}, A: act, R: rew, S2: []float64{float64(r.Intn(2))}})
	}
	if a.Act([]float64{0}, 0) != 1 || a.Act([]float64{1}, 0) != 0 {
		q0 := a.QValues([]float64{0})
		q1 := a.QValues([]float64{1})
		t.Fatalf("policy wrong: Q(0)=%v Q(1)=%v", q0, q1)
	}
	if a.LearnSteps() == 0 {
		t.Fatal("no learning steps ran")
	}
}

func TestTDErrorShrinks(t *testing.T) {
	a := New(Config{ObsDim: 1, Actions: 2, Gamma: 0.5, TargetSync: 10}, 7, nil)
	fixed := Transition{S: []float64{0.5}, A: 0, R: 1, S2: []float64{0.5}}
	before := a.TD(fixed)
	for i := 0; i < 2000; i++ {
		a.Observe(fixed)
	}
	after := a.TD(fixed)
	if after >= before && after > 0.2 {
		t.Fatalf("TD error %v -> %v did not shrink", before, after)
	}
}

func TestTargetSyncMakesNetsEqual(t *testing.T) {
	a := New(Config{ObsDim: 2, Actions: 3}, 8, nil)
	// Drift online away from target.
	for i := 0; i < 70; i++ {
		a.Observe(Transition{S: []float64{1, 1}, A: 0, R: 5, S2: []float64{1, 1}})
	}
	s := []float64{0.2, 0.8}
	qOnline := a.QValues(s)
	qTarget := append([]float64(nil), a.target.Forward(s)...)
	diff := 0.0
	for i := range qOnline {
		diff += math.Abs(qOnline[i] - qTarget[i])
	}
	a.SyncTarget()
	qTarget2 := a.target.Forward(s)
	for i := range qOnline {
		if qOnline[i] != qTarget2[i] {
			t.Fatal("SyncTarget did not copy weights")
		}
	}
	_ = diff
}

// The target sync runs every TargetSync learn steps; it copies parameter
// groups in place instead of through a flattened snapshot.
func TestSyncTargetZeroAllocs(t *testing.T) {
	a := New(Config{ObsDim: 18, Actions: 200}, 10, nil)
	allocs := testing.AllocsPerRun(10, a.SyncTarget)
	if allocs != 0 {
		t.Fatalf("SyncTarget allocates %.1f per call, want 0", allocs)
	}
}

func TestEncodeRestoreRoundTrip(t *testing.T) {
	a := New(Config{ObsDim: 3, Actions: 5}, 9, nil)
	s := []float64{0.1, 0.2, 0.3}
	want := a.QValues(s)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{ObsDim: 3, Actions: 5}, 777, nil)
	if err := b.RestoreFrom(data); err != nil {
		t.Fatal(err)
	}
	got := b.QValues(s)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("restored Q-network differs")
		}
	}
	// Target must match online after restore.
	tgt := b.target.Forward(s)
	for i := range want {
		if tgt[i] != want[i] {
			t.Fatal("target not synced on restore")
		}
	}
	if err := b.RestoreFrom([]byte("junk")); err == nil {
		t.Fatal("junk restored")
	}
}

func TestValidateSnapshotChecksShapeWithoutMutating(t *testing.T) {
	a := New(Config{ObsDim: 3, Actions: 5}, 9, nil)
	before, _ := a.Encode()
	good, _ := New(Config{ObsDim: 3, Actions: 5}, 10, nil).Encode()
	if err := a.ValidateSnapshot(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	wide, _ := New(Config{ObsDim: 4, Actions: 5}, 10, nil).Encode()
	for name, bad := range map[string][]byte{
		"truncated":  good[:len(good)/2],
		"other-arch": wide,
	} {
		if err := a.ValidateSnapshot(bad); err == nil {
			t.Fatalf("%s snapshot validated", name)
		}
		if err := a.RestoreFrom(bad); err == nil {
			t.Fatalf("%s snapshot restored", name)
		}
	}
	after, _ := a.Encode()
	if !bytes.Equal(before, after) {
		t.Fatal("validation or failed restores mutated weights")
	}
}

func TestValidation(t *testing.T) {
	cases := []func(){
		func() { NewReplay(0, 1) },
		func() { New(Config{ObsDim: 0, Actions: 2}, 1, nil) },
		func() { New(Config{ObsDim: 2, Actions: 0}, 1, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d accepted", i)
				}
			}()
			fn()
		}()
	}
}
