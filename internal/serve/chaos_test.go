package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pet/internal/fleet"
	"pet/internal/jsonlog"
	"pet/internal/modelstore"
	_ "pet/internal/staticecn" // register the SECN1/SECN2 baseline schemes
	"pet/internal/telemetry"
)

// The serve-layer chaos suite: deterministic fault injection through
// serve.FaultPlan, exercising the crash-only contracts — journal replay,
// restart-resume, replica panic isolation, overload shedding, the circuit
// breaker and the hung-job watchdog. Every fault has exact coordinates, so
// each scenario replays bit for bit (`make race` runs the whole
// file twice under -race to prove it).

// testContext is a bounded context for teardown paths.
func testContext(tb testing.TB, d time.Duration) (context.Context, context.CancelFunc) {
	tb.Helper()
	return context.WithTimeout(context.Background(), d)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// inferBody builds a deterministic /infer request of n observations against
// the loaded model's switch set.
func inferBody(tb testing.TB, info InferInfo, n int) []byte {
	tb.Helper()
	if len(info.Switches) == 0 || info.ObsDim == 0 {
		tb.Fatalf("degenerate service info: %+v", info)
	}
	rng := rand.New(rand.NewSource(7))
	req := InferRequest{Requests: make([]ObsRequest, n)}
	for i := range req.Requests {
		req.Requests[i] = ObsRequest{
			Switch: info.Switches[i%len(info.Switches)],
			Obs:    randObs(rng, info.ObsDim),
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// quickPretrainSpec is a seconds-fast checkpointing pretrain job.
func quickPretrainSpec(ckpt string, rounds int) ExperimentSpec {
	return ExperimentSpec{
		Kind:       KindPretrain,
		Scenario:   pretrainDoc("3ms"),
		Workers:    1,
		Rounds:     rounds,
		Checkpoint: ckpt,
	}
}

// --- Journal replay edges ---------------------------------------------------

func TestJournalLifecycleReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	specA := quickRunSpec()
	for _, rec := range []struct {
		id    string
		state JobState
		spec  *ExperimentSpec
		err   string
	}{
		{"exp-000001", StatePending, &specA, ""},
		{"exp-000001", StateRunning, nil, ""},
		{"exp-000001", StateRunning, nil, ""}, // duplicate transition
		{"exp-000001", StateDone, nil, ""},
		{"exp-000002", StatePending, &specA, ""},
		{"exp-000002", StateRunning, nil, ""},
	} {
		if err := jl.Record(rec.id, rec.state, rec.spec, rec.err); err != nil {
			t.Fatalf("Record(%s, %s): %v", rec.id, rec.state, err)
		}
	}

	reopened, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	jobs := reopened.Replayed()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2: %+v", len(jobs), jobs)
	}
	if jobs[0].ID != "exp-000001" || jobs[0].State != StateDone {
		t.Errorf("job 1 replayed as %s/%s, want exp-000001/done", jobs[0].ID, jobs[0].State)
	}
	if jobs[0].StartedAt == nil || jobs[0].FinishedAt == nil {
		t.Errorf("terminal replayed job missing timestamps: %+v", jobs[0])
	}
	if jobs[1].ID != "exp-000002" || jobs[1].State != StateRunning {
		t.Errorf("job 2 replayed as %s/%s, want exp-000002/running (mid-flight)", jobs[1].ID, jobs[1].State)
	}
	if string(jobs[1].Spec.Scenario) != string(specA.Scenario) {
		t.Errorf("replayed spec lost its scenario: %s", jobs[1].Spec.Scenario)
	}
}

func TestJournalVersionSkewSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	spec := quickRunSpec()
	// A well-formed entry from a future daemon, surrounded by current history.
	entries := []JournalEntry{
		{V: journalVersion, Time: time.Now().UTC(), ID: "exp-000001", State: StatePending, Spec: &spec},
		{V: journalVersion + 1, Time: time.Now().UTC(), ID: "exp-000099", State: StatePending, Spec: &spec},
		{V: journalVersion, Time: time.Now().UTC(), ID: "exp-000001", State: StateRunning},
	}
	for _, e := range entries {
		if err := jsonlog.Append(path, e); err != nil {
			t.Fatal(err)
		}
	}
	var warned atomic.Int32
	logf := func(format string, a ...any) {
		if strings.Contains(fmt.Sprintf(format, a...), fmt.Sprintf("skipping v%d entry", journalVersion+1)) {
			warned.Add(1)
		}
		t.Logf(format, a...)
	}
	jl, err := OpenJournal(path, logf, nil)
	if err != nil {
		t.Fatalf("version skew must not fail the boot: %v", err)
	}
	if n := warned.Load(); n != 1 {
		t.Errorf("skew warning logged %d times, want 1", n)
	}
	jobs := jl.Replayed()
	if len(jobs) != 1 || jobs[0].ID != "exp-000001" || jobs[0].State != StateRunning {
		t.Fatalf("replay around the skewed entry = %+v, want one running exp-000001", jobs)
	}
}

// TestJournalV1FlatSpecSkipped: a v1 pending entry carries flat scenario
// fields that v2 specs no longer have. Decoded leniently it would resume on
// a different scenario, so replay skips it with the version warning and
// nothing is relaunched.
func TestJournalV1FlatSpecSkipped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	ckpt := filepath.Join(dir, "ckpt")
	now := time.Now().UTC().Format(time.RFC3339Nano)
	v1 := fmt.Sprintf(`{"v":1,"time":%q,"id":"exp-000001","state":"pending","spec":{"kind":"pretrain","scheme":"PET","load":0.5,"seed":1,"duration":"3ms","workers":1,"rounds":2,"checkpoint":%q}}`+"\n"+
		`{"v":1,"time":%q,"id":"exp-000001","state":"running"}`+"\n", now, ckpt, now)
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned atomic.Int32
	logf := func(format string, a ...any) {
		if strings.Contains(fmt.Sprintf(format, a...), "skipping v1 entry") {
			warned.Add(1)
		}
		t.Logf(format, a...)
	}
	jl, err := OpenJournal(path, logf, nil)
	if err != nil {
		t.Fatalf("a v1 journal must not fail the boot: %v", err)
	}
	if n := warned.Load(); n != 2 {
		t.Errorf("v1 warning logged %d times, want once per entry (2)", n)
	}
	if jobs := jl.Replayed(); len(jobs) != 0 {
		t.Fatalf("replayed v1 jobs %+v, want none", jobs)
	}
	srv := New(Config{MaxJobs: 1, Logf: t.Logf, Journal: jl})
	defer func() {
		ctx, cancel := testContext(t, time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx, nil)
	}()
	if jobs := srv.Jobs().List(); len(jobs) != 0 {
		t.Fatalf("v1 entries relaunched as %+v", jobs)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("a skipped v1 entry trained into %s (stat: %v)", ckpt, err)
	}
}

func TestJournalTornTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	spec := quickRunSpec()
	jl, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Record("exp-000001", StatePending, &spec, ""); err != nil {
		t.Fatal(err)
	}
	if err := jl.Record("exp-000001", StateRunning, nil, ""); err != nil {
		t.Fatal(err)
	}
	// The crash case: a final line torn mid-write (no newline, half a doc).
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":2,"id":"exp-000001","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reopened, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatalf("torn final line must recover, got: %v", err)
	}
	jobs := reopened.Replayed()
	if len(jobs) != 1 || jobs[0].State != StateRunning {
		t.Fatalf("replay after torn tail = %+v, want one running job", jobs)
	}

	// Damage before the final line is a different story: typed corruption.
	if err := os.WriteFile(path,
		[]byte(`{"v":2,"id":"exp-000001","state":"pending"}`+"\n"+"not json\n"+`{"v":2,"id":"exp-000001","state":"running"}`+"\n"),
		0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, t.Logf, nil); err == nil {
		t.Fatal("mid-history corruption replayed silently")
	}
}

func TestJournalTearFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	spec := quickRunSpec()
	jl, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []JobState{StatePending, StateRunning, StateDone} {
		var sp *ExperimentSpec
		if st == StatePending {
			sp = &spec
		}
		if err := jl.Record("exp-000001", st, sp, ""); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through its final entry: the done transition is
	// lost, the job replays as still running — exactly what a crash during
	// the final append leaves behind.
	faults := &FaultPlan{JournalTearAfter: fi.Size() - 10}
	torn, err := OpenJournal(path, t.Logf, faults)
	if err != nil {
		t.Fatalf("torn journal must replay: %v", err)
	}
	jobs := torn.Replayed()
	if len(jobs) != 1 || jobs[0].State != StateRunning {
		t.Fatalf("replay after tear = %+v, want one running job", jobs)
	}
	// Replay cut the torn fragment off, so the file is the two whole entries
	// and the next append starts on a fresh line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) >= fi.Size()-10 || bytes.Count(data, []byte("\n")) != 2 || data[len(data)-1] != '\n' {
		t.Fatalf("journal after the tear is %d bytes %q, want two whole lines", len(data), data)
	}
}

// TestJournalTearBeforeNewline tears the journal one byte short: the final
// entry is whole but its newline is gone. Replay keeps the entry and
// finishes the line, so the transitions recorded after this boot survive
// the next one instead of gluing onto it and being cut as a torn tail (or,
// two appends later, failing the boot as mid-history corruption).
func TestJournalTearBeforeNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	spec := quickRunSpec()
	jl, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Record("exp-000001", StatePending, &spec, ""); err != nil {
		t.Fatal(err)
	}
	if err := jl.Record("exp-000001", StateRunning, nil, ""); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := OpenJournal(path, t.Logf, &FaultPlan{JournalTearAfter: fi.Size() - 1})
	if err != nil {
		t.Fatalf("journal torn before its last newline must replay: %v", err)
	}
	if jobs := torn.Replayed(); len(jobs) != 1 || jobs[0].State != StateRunning {
		t.Fatalf("replay after tear = %+v, want one running job", jobs)
	}
	if err := torn.Record("exp-000001", StateDone, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := torn.Record("exp-000002", StatePending, &spec, ""); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatalf("reboot after appending past the tear: %v", err)
	}
	jobs := reopened.Replayed()
	if len(jobs) != 2 || jobs[0].State != StateDone || jobs[1].State != StatePending {
		t.Fatalf("replay after appending past the tear = %+v, want exp-000001 done and exp-000002 pending", jobs)
	}
}

// --- Restart-resume ---------------------------------------------------------

// TestJournalRestartResume simulates a daemon death in-process: the journal
// stops taking writes at the "kill" instant, the first server is torn down,
// and a second server adopting the same journal must resume the
// checkpointing pretrain job under its original ID and finish it — with a
// checkpoint-consistent bundle (the summary's sha matches the bytes served).
func TestJournalRestartResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	ckpt := filepath.Join(dir, "ckpt")

	jl1, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{MaxJobs: 1, Logf: t.Logf, Journal: jl1})
	st, err := srv1.Jobs().Launch(quickPretrainSpec(ckpt, 5))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	// Wait for at least one checkpointed round, so there is something to
	// resume from.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		got, ok := srv1.Jobs().Get(st.ID)
		if !ok {
			t.Fatalf("job %s disappeared", st.ID)
		}
		if got.Rounds >= 1 {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job finished before it could be interrupted: %+v", got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no completed round within deadline: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The "kill": journal writes stop landing, then the process state dies.
	jl1.kill()
	ctx, cancel := testContext(t, time.Minute)
	defer cancel()
	if err := srv1.Shutdown(ctx, nil); err != nil {
		t.Fatalf("tearing down server 1: %v", err)
	}

	// Boot 2: replay, adopt, resume.
	jl2, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatalf("replaying journal after kill: %v", err)
	}
	srv2 := New(Config{MaxJobs: 1, Logf: t.Logf, Journal: jl2})
	defer func() {
		ctx, cancel := testContext(t, time.Minute)
		defer cancel()
		_ = srv2.Shutdown(ctx, nil)
	}()
	done := waitTerminal(t, srv2.Jobs(), st.ID, 4*time.Minute)
	if done.State != StateDone {
		t.Fatalf("resumed job ended %s (error %q), want done", done.State, done.Error)
	}
	if !done.Resumed {
		t.Error("finished job not marked resumed")
	}
	if done.Pretrain == nil {
		t.Fatal("resumed job has no pretrain summary")
	}
	if done.Pretrain.ResumedFrom == 0 {
		t.Errorf("summary reports no resume round: %+v", done.Pretrain)
	}
	// Checkpoint-consistent bundle: the bytes the API serves hash to exactly
	// what the summary recorded.
	models, ok := srv2.Jobs().Models(st.ID)
	if !ok || len(models) != done.Pretrain.ModelBytes {
		t.Fatalf("Models() = %d bytes, ok=%v; summary says %d", len(models), ok, done.Pretrain.ModelBytes)
	}
	if got := sha256Hex(models); got != done.Pretrain.ModelSHA256 {
		t.Errorf("bundle sha %s != summary sha %s", got, done.Pretrain.ModelSHA256)
	}

	// The journal tells the whole story, in order.
	states, err := jl2.States(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := []JobState{StatePending, StateRunning, StateInterrupted, StateResumed, StateDone}
	i := 0
	for _, s := range states {
		if i < len(want) && s == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("journal states %v do not contain the sequence %v", states, want)
	}
}

// TestJournalInterruptedRunJob: run jobs have no checkpoint, so a daemon
// death leaves them interrupted — visible, terminal, never re-executed.
func TestJournalInterruptedRunJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl1, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := quickRunSpec()
	if err := jl1.Record("exp-000001", StatePending, &spec, ""); err != nil {
		t.Fatal(err)
	}
	if err := jl1.Record("exp-000001", StateRunning, nil, ""); err != nil {
		t.Fatal(err)
	}

	jl2, err := OpenJournal(path, t.Logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{MaxJobs: 1, Logf: t.Logf, Journal: jl2})
	defer func() {
		ctx, cancel := testContext(t, time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx, nil)
	}()
	got, ok := srv.Jobs().Get("exp-000001")
	if !ok {
		t.Fatal("interrupted job not adopted")
	}
	if got.State != StateInterrupted {
		t.Fatalf("adopted state = %s, want interrupted", got.State)
	}
	// The ID counter moved past the adopted job: a new launch never collides.
	st, err := srv.Jobs().Launch(quickRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "exp-000001" {
		t.Fatal("new job reused an adopted ID")
	}
	waitTerminal(t, srv.Jobs(), st.ID, 2*time.Minute)
}

// --- Replica panic isolation ------------------------------------------------

// TestServeChaosReplicaPanicParity: a panic injected into one batch answers
// that request 500, recycles the replica, and leaves every other response
// byte-identical to a fault-free rerun.
func TestServeChaosReplicaPanicParity(t *testing.T) {
	bundle := mustBundle(t)
	run := func(panics []uint64) (bodies []string, codes []int, panicsSeen uint64) {
		reg := telemetry.New()
		var plan *FaultPlan
		if panics != nil {
			plan = &FaultPlan{ReplicaPanics: panics}
		}
		svc, err := NewInferService(bundle, InferOptions{Replicas: 1, Telemetry: reg, Faults: plan})
		if err != nil {
			t.Fatalf("NewInferService: %v", err)
		}
		srv := New(Config{Telemetry: reg, Infer: svc, Logf: t.Logf, Faults: plan})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		info := svc.Info()
		body := inferBody(t, info, 3)
		for i := 0; i < 4; i++ {
			resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST /infer #%d: %v", i+1, err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies = append(bodies, string(b))
			codes = append(codes, resp.StatusCode)
		}
		return bodies, codes, reg.Snapshot().Counters["serve_replica_panics_total"]
	}

	bodies, codes, panicsSeen := run([]uint64{2})
	wantCodes := []int{200, 500, 200, 200}
	for i, c := range codes {
		if c != wantCodes[i] {
			t.Fatalf("request %d answered %d, want %d (body %s)", i+1, c, wantCodes[i], bodies[i])
		}
	}
	if panicsSeen != 1 {
		t.Errorf("serve_replica_panics_total = %d, want 1", panicsSeen)
	}
	if !strings.Contains(bodies[1], "replica panicked") || !strings.Contains(bodies[1], "injected replica fault") {
		t.Errorf("500 body does not name the panic: %s", bodies[1])
	}
	if bodies[0] != bodies[2] || bodies[0] != bodies[3] {
		t.Error("responses around the panic are not byte-identical")
	}

	// Determinism across the whole scenario: a fresh process with the same
	// fault plan produces the same bytes, and a fault-free run produces the
	// same successful bodies.
	bodies2, codes2, _ := run([]uint64{2})
	for i := range bodies {
		if codes[i] != codes2[i] || bodies[i] != bodies2[i] {
			t.Fatalf("rerun diverged at request %d: %d %s vs %d %s", i+1, codes[i], bodies[i], codes2[i], bodies2[i])
		}
	}
	clean, cleanCodes, cleanPanics := run(nil)
	if cleanPanics != 0 {
		t.Errorf("fault-free run recorded %d panics", cleanPanics)
	}
	for _, c := range cleanCodes {
		if c != 200 {
			t.Fatalf("fault-free run codes = %v", cleanCodes)
		}
	}
	if clean[0] != bodies[0] {
		t.Error("fault-free response differs from the faulted run's successes")
	}
}

// --- Overload admission -----------------------------------------------------

// TestAdmissionWatermarkHysteresis drives the depth counter directly: the
// saturated flag sets at HighWater and clears only back at LowWater.
func TestAdmissionWatermarkHysteresis(t *testing.T) {
	reg := telemetry.New()
	a := newAdmission(AdmissionConfig{MaxInFlight: 4, HighWater: 3, LowWater: 1}, reg)
	for i := 0; i < 4; i++ {
		if !a.enter() {
			t.Fatalf("enter %d shed below MaxInFlight", i+1)
		}
	}
	if a.enter() {
		t.Fatal("enter admitted past MaxInFlight")
	}
	if got := reg.Snapshot().Counters["serve_shed_total"]; got != 1 {
		t.Fatalf("serve_shed_total = %d, want 1", got)
	}
	if !a.overWatermark() {
		t.Fatal("not saturated at full depth")
	}
	a.leave() // depth 3
	a.leave() // depth 2: still above LowWater, hysteresis holds
	if !a.overWatermark() {
		t.Fatal("saturation cleared above LowWater (flapping)")
	}
	a.leave() // depth 1 = LowWater: recovered
	if a.overWatermark() {
		t.Fatal("saturation held at LowWater")
	}
	a.leave()
	if d := a.queueDepth(); d != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", d)
	}
	if g := reg.Snapshot().Gauges["serve_queue_depth"]; g != 0 {
		t.Fatalf("serve_queue_depth gauge = %v after drain, want 0", g)
	}
}

// TestAdmissionOverloadShedding starves the replica pool (the test leases
// the only replica and sits on it) and throws a burst at /infer: the
// bounded queue admits MaxInFlight requests — which shed 503 when their
// deadline expires leasing — and 429s the rest, every shed carrying a
// Retry-After hint.
func TestAdmissionOverloadShedding(t *testing.T) {
	bundle := mustBundle(t)
	reg := telemetry.New()
	svc, err := NewInferService(bundle, InferOptions{Replicas: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Telemetry: reg,
		Infer:     svc,
		Logf:      t.Logf,
		Admission: AdmissionConfig{MaxInFlight: 2, HighWater: 2, LowWater: 1, Deadline: 100 * time.Millisecond},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Starve the pool: hold the only replica for the duration of the burst.
	pool := svc.cur.Load()
	held := <-pool.replicas
	defer func() { pool.replicas <- held }()

	info := svc.Info()
	body := inferBody(t, info, 1)
	const burst = 10
	var wg sync.WaitGroup
	codes := make([]int, burst)
	retryAfter := make([]string, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST /infer: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var n429, n503 int
	for i, c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			n429++
		case http.StatusServiceUnavailable:
			n503++
		default:
			t.Fatalf("burst request answered %d, want 429 or 503", c)
		}
		if secs, err := strconv.Atoi(retryAfter[i]); err != nil || secs < 1 {
			t.Errorf("shed response %d Retry-After = %q, want a positive whole second", i, retryAfter[i])
		}
	}
	// Exactly MaxInFlight requests were admitted (and timed out leasing);
	// everything else was shed at the door.
	if n503 != 2 || n429 != 8 {
		t.Fatalf("burst shed %d×503 + %d×429, want 2×503 + 8×429", n503, n429)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_shed_total"]; got != burst {
		t.Errorf("serve_shed_total = %d, want %d", got, burst)
	}
	if g := snap.Gauges["serve_queue_depth"]; g != 0 {
		t.Errorf("serve_queue_depth = %v after the burst drained, want 0", g)
	}

	// The pool recovers the instant the replica comes back.
	pool.replicas <- held
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst request answered %d, want 200", resp.StatusCode)
	}
	held = <-pool.replicas // re-lease so the deferred return stays balanced
}

// TestAdmissionDeadlineClamp: the ?deadline= budget is the client's ask
// clamped to MaxDeadline, defaulting when absent or unparsable.
func TestAdmissionDeadlineClamp(t *testing.T) {
	a := newAdmission(AdmissionConfig{Deadline: time.Second, MaxDeadline: 5 * time.Second}, telemetry.New())
	for _, tc := range []struct {
		raw  string
		want time.Duration
	}{
		{"", time.Second},
		{"250ms", 250 * time.Millisecond},
		{"1m", 5 * time.Second}, // clamped
		{"-3s", time.Second},    // nonsense: default
		{"banana", time.Second},
	} {
		if got := a.budget(tc.raw); got != tc.want {
			t.Errorf("budget(%q) = %v, want %v", tc.raw, got, tc.want)
		}
	}
}

// --- Circuit breaker --------------------------------------------------------

// TestBreakerLifecycle drives the breaker through closed → open → half-open
// → closed with a deterministic clock.
func TestBreakerLifecycle(t *testing.T) {
	reg := telemetry.New()
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	b := newBreaker(AdmissionConfig{BreakerFailures: 3, BreakerCooldown: time.Second}, reg, now)

	// Interleaved successes keep resetting the consecutive count.
	b.failure()
	b.failure()
	b.success()
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatal("closed breaker blocked a request")
		}
		b.failure()
	}
	if b.currentState() != breakerClosed {
		t.Fatal("breaker tripped below the failure threshold")
	}
	b.failure() // third consecutive: trip
	if b.currentState() != breakerOpen {
		t.Fatal("breaker did not trip at the threshold")
	}
	if b.allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if g := reg.Snapshot().Gauges["serve_breaker_state"]; g != breakerOpen {
		t.Fatalf("serve_breaker_state = %v, want %d", g, breakerOpen)
	}

	// Cooldown passes: exactly one probe gets through.
	clock.Add(int64(2 * time.Second))
	if !b.allow() {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("state = %d, want half-open", b.currentState())
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// A released probe (client error: proves nothing) frees the slot.
	b.release()
	if !b.allow() {
		t.Fatal("released probe slot not reusable")
	}
	// A failed probe re-trips; a later successful probe closes.
	b.failure()
	if b.currentState() != breakerOpen {
		t.Fatal("failed probe did not re-trip the breaker")
	}
	clock.Add(int64(2 * time.Second))
	if !b.allow() {
		t.Fatal("breaker did not half-open a second time")
	}
	b.success()
	if b.currentState() != breakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if g := reg.Snapshot().Gauges["serve_breaker_state"]; g != breakerClosed {
		t.Fatalf("serve_breaker_state = %v, want %d", g, breakerClosed)
	}
}

// TestServeChaosBreakerTripsOnPanics: consecutive injected replica panics
// trip the breaker through the real HTTP path; the cooldown probe heals it.
func TestServeChaosBreakerTripsOnPanics(t *testing.T) {
	bundle := mustBundle(t)
	reg := telemetry.New()
	plan := &FaultPlan{ReplicaPanics: []uint64{1, 2}}
	svc, err := NewInferService(bundle, InferOptions{Replicas: 1, Telemetry: reg, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Telemetry: reg,
		Infer:     svc,
		Logf:      t.Logf,
		Faults:    plan,
		Admission: AdmissionConfig{BreakerFailures: 2, BreakerCooldown: time.Hour},
	}
	srv := New(cfg)
	// Deterministic clock, swapped in before any traffic exists.
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	srv.brk = newBreaker(cfg.Admission, reg, func() time.Time { return time.Unix(0, clock.Load()) })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := inferBody(t, svc.Info(), 1)
	post := func() (int, string) {
		resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	for i := 0; i < 2; i++ {
		if code, b := post(); code != http.StatusInternalServerError {
			t.Fatalf("panic request %d answered %d: %s", i+1, code, b)
		}
	}
	if code, b := post(); code != http.StatusServiceUnavailable || !strings.Contains(b, "circuit breaker open") {
		t.Fatalf("tripped breaker answered %d: %s", code, b)
	}
	if g := reg.Snapshot().Gauges["serve_breaker_state"]; g != breakerOpen {
		t.Fatalf("serve_breaker_state = %v, want open", g)
	}
	// Cooldown passes; the probe lands on a healthy (recycled) replica.
	clock.Add(int64(2 * time.Hour))
	if code, b := post(); code != http.StatusOK {
		t.Fatalf("half-open probe answered %d: %s", code, b)
	}
	if g := reg.Snapshot().Gauges["serve_breaker_state"]; g != breakerClosed {
		t.Fatalf("serve_breaker_state = %v after recovery, want closed", g)
	}
}

// --- Readiness --------------------------------------------------------------

// TestReadyzDegradedAndSaturated: /readyz carries its reasons — a pending
// boot degradation until a model lands, watermark saturation while it holds,
// and shutdown forever after.
func TestReadyzDegradedAndSaturated(t *testing.T) {
	reg := telemetry.New()
	srv := New(Config{
		Telemetry:     reg,
		Logf:          t.Logf,
		PendingReason: "model bundle boot.model unusable: gone",
		Admission:     AdmissionConfig{MaxInFlight: 4, HighWater: 2, LowWater: 1},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readyz := func() (int, readyzResponse) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body readyzResponse
		code := resp.StatusCode
		decodeTestJSON(t, resp, code, &body)
		return code, body
	}
	code, body := readyz()
	if code != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("degraded boot /readyz = %d %+v, want 503 not-ready", code, body)
	}
	if len(body.Reasons) != 1 || !strings.Contains(body.Reasons[0], "boot.model") {
		t.Fatalf("reasons = %v, want the boot degradation", body.Reasons)
	}
	// /healthz stays green the whole time: liveness is not readiness.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d on a degraded daemon, want 200", hresp.StatusCode)
	}
	hresp.Body.Close()

	// A model landing clears the degradation.
	if err := srv.Infer().Swap(mustBundle(t), 0); err != nil {
		t.Fatal(err)
	}
	if code, body = readyz(); code != http.StatusOK || !body.Ready {
		t.Fatalf("/readyz after model load = %d %+v, want ready", code, body)
	}

	// Saturation: push the queue over the watermark.
	srv.admit.enter()
	srv.admit.enter()
	code, body = readyz()
	if code != http.StatusServiceUnavailable || body.QueueDepth != 2 {
		t.Fatalf("saturated /readyz = %d %+v, want 503 with depth 2", code, body)
	}
	if len(body.Reasons) != 1 || !strings.Contains(body.Reasons[0], "watermark") {
		t.Fatalf("saturated reasons = %v", body.Reasons)
	}
	srv.admit.leave()
	srv.admit.leave()
	if code, _ = readyz(); code != http.StatusOK {
		t.Fatalf("/readyz after drain = %d, want 200", code)
	}

	// Shutdown is terminal.
	ctx, cancel := testContext(t, time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if code, body = readyz(); code != http.StatusServiceUnavailable || body.Reasons[0] != "shutting down" {
		t.Fatalf("shutdown /readyz = %d %+v", code, body)
	}
}

// --- Watchdog ---------------------------------------------------------------

// TestWatchdogCancelsHungPretrain injects a fleet episode hang: the job goes
// silent mid-run, the watchdog flags it stalled, then cancels it with the
// verdict as the job error.
func TestWatchdogCancelsHungPretrain(t *testing.T) {
	reg := telemetry.New()
	srv := New(Config{
		Telemetry: reg,
		MaxJobs:   1,
		Logf:      t.Logf,
		Watchdog:  WatchdogConfig{Deadline: 150 * time.Millisecond, Interval: 10 * time.Millisecond},
		Faults: &FaultPlan{Fleet: &fleet.FaultPlan{
			// Hang every attempt of (round 1, worker 0): without progress the
			// fleet never finishes, so only the watchdog can end this job.
			Episodes: []fleet.Fault{
				{Round: 1, Worker: 0, Attempt: 0, Kind: fleet.FaultHang},
				{Round: 1, Worker: 0, Attempt: 1, Kind: fleet.FaultHang},
				{Round: 1, Worker: 0, Attempt: 2, Kind: fleet.FaultHang},
				{Round: 1, Worker: 0, Attempt: 3, Kind: fleet.FaultHang},
			},
		}},
	})
	defer func() {
		ctx, cancel := testContext(t, time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx, nil)
	}()

	st, err := srv.Jobs().Launch(quickPretrainSpec("", 3))
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, srv.Jobs(), st.ID, 2*time.Minute)
	if done.State != StateCancelled {
		t.Fatalf("hung job ended %s (error %q), want cancelled", done.State, done.Error)
	}
	if !strings.Contains(done.Error, "watchdog") || !strings.Contains(done.Error, "no progress heartbeat") {
		t.Fatalf("job error %q does not carry the watchdog verdict", done.Error)
	}
	if !done.Stalled {
		t.Error("cancelled hung job was never flagged stalled")
	}
	if got := reg.Snapshot().Counters["job_watchdog_trips_total"]; got < 1 {
		t.Errorf("job_watchdog_trips_total = %d, want >= 1", got)
	}
}

// TestWatchdogIgnoresRunJobs: run jobs emit no heartbeats; even a draconian
// deadline must leave them alone.
func TestWatchdogIgnoresRunJobs(t *testing.T) {
	srv := New(Config{
		MaxJobs:  1,
		Logf:     t.Logf,
		Watchdog: WatchdogConfig{Deadline: 10 * time.Millisecond, Interval: 10 * time.Millisecond},
	})
	defer func() {
		ctx, cancel := testContext(t, time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx, nil)
	}()
	spec := quickRunFor("60ms") // several deadlines long
	st, err := srv.Jobs().Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, srv.Jobs(), st.ID, 2*time.Minute)
	if done.State != StateDone {
		t.Fatalf("run job under the watchdog ended %s (error %q), want done", done.State, done.Error)
	}
}

// --- Store-read faults ------------------------------------------------------

// TestServeChaosCorruptStoreRead: a bundle corrupted between the store and
// the promote path fails the end-to-end checksum with a 422, and the serving
// state is untouched.
func TestServeChaosCorruptStoreRead(t *testing.T) {
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(mustBundle(t), "test", ""); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Store:  store,
		Logf:   t.Logf,
		Faults: &FaultPlan{CorruptStoreReads: true, StoreReadDelay: 20 * time.Millisecond},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	startAt := time.Now()
	resp, err := http.Get(ts.URL + "/models/1?download=1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(b), "checksum") {
		t.Fatalf("corrupt download answered %d: %s", resp.StatusCode, b)
	}
	if elapsed := time.Since(startAt); elapsed < 20*time.Millisecond {
		t.Errorf("StoreReadDelay not applied: read returned in %v", elapsed)
	}

	resp, err = http.Post(ts.URL+"/models/1/promote", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt promote answered %d: %s", resp.StatusCode, b)
	}
	if ref := srv.Infer().Model(); ref != (ModelRef{}) {
		t.Fatalf("corrupt promotion left model %+v serving, want none", ref)
	}
	ctx, cancel := testContext(t, time.Minute)
	defer cancel()
	_ = srv.Shutdown(ctx, nil)
}

// --- Idempotent cancellation ------------------------------------------------

// TestCancelIdempotentTerminalStates: DELETE on a terminal job answers 409
// with the stable terminal status, for each of the three terminal states a
// live daemon produces.
func TestCancelIdempotentTerminalStates(t *testing.T) {
	srv := New(Config{MaxJobs: 3, Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := testContext(t, time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx, nil)
	}()

	del := func(id string) (int, JobStatus) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/experiments/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		code := resp.StatusCode
		decodeTestJSON(t, resp, code, &st)
		return code, st
	}

	// done: let a quick run finish, then DELETE twice.
	doneJob, err := srv.Jobs().Launch(quickRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, srv.Jobs(), doneJob.ID, 2*time.Minute)
	for i := 0; i < 2; i++ {
		if code, st := del(doneJob.ID); code != http.StatusConflict || st.State != StateDone {
			t.Fatalf("DELETE done job (try %d) = %d/%s, want 409/done", i+1, code, st.State)
		}
	}

	// failed: a pretrain whose bundle write lands in a nonexistent directory.
	spec := quickPretrainSpec("", 1)
	spec.Out = filepath.Join(t.TempDir(), "no", "such", "dir", "x.model")
	failJob, err := srv.Jobs().Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, srv.Jobs(), failJob.ID, 2*time.Minute); st.State != StateFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	if code, st := del(failJob.ID); code != http.StatusConflict || st.State != StateFailed {
		t.Fatalf("DELETE failed job = %d/%s, want 409/failed", code, st.State)
	}

	// cancelled: first DELETE succeeds, the repeat conflicts.
	long := quickRunFor("2s")
	cancelJob, err := srv.Jobs().Launch(long)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := del(cancelJob.ID); code != http.StatusOK {
		t.Fatalf("first DELETE = %d, want 200", code)
	}
	if st := waitTerminal(t, srv.Jobs(), cancelJob.ID, 2*time.Minute); st.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", st.State)
	}
	if code, st := del(cancelJob.ID); code != http.StatusConflict || st.State != StateCancelled {
		t.Fatalf("re-DELETE cancelled job = %d/%s, want 409/cancelled", code, st.State)
	}

	// Unknown jobs stay 404, not 409.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/experiments/exp-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}
}

// --- Telemetry presence -----------------------------------------------------

// TestServeChaosMetricsPresence: every robustness series is present (zero)
// in /metrics from boot — dashboards can alert on them before the first
// incident ever happens.
func TestServeChaosMetricsPresence(t *testing.T) {
	srv := New(Config{Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := testContext(t, time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx, nil)
	}()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	for _, series := range []string{
		"serve_shed_total",
		"serve_queue_depth",
		"serve_replica_panics_total",
		"serve_breaker_state",
		"job_watchdog_trips_total",
		"jobs_resumed_total",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics is missing the %s series", series)
		}
	}
}
