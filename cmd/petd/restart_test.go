package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pet"
)

// TestKillRestartResume is the crash-only acceptance test: SIGKILL petd in
// the middle of a checkpointing pretrain job, restart it with the same
// flags, and the job resumes from its latest checkpoint under the original
// ID and runs to completion — with the journal recording the whole story:
// running → interrupted → resumed → done.
//
// It runs petd as a real subprocess (not in-process run()) because nothing
// short of kill -9 proves the journal's crash contract.
func TestKillRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a petd subprocess")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "petd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building petd: %v\n%s", err, out)
	}

	journal := filepath.Join(dir, "jobs.journal")
	ckpt := filepath.Join(dir, "ckpt")
	args := []string{"-addr", "127.0.0.1:0", "-journal", journal, "-q"}

	start := func() (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting petd: %v", err)
		}
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			t.Fatalf("reading addr line: %v", err)
		}
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "addr=")
		if !ok {
			t.Fatalf("first stdout line = %q, want addr=...", line)
		}
		return cmd, "http://" + addr
	}

	getStatus := func(base, id string) (st struct {
		State    string `json:"state"`
		Rounds   int    `json:"rounds"`
		Resumed  bool   `json:"resumed"`
		Error    string `json:"error"`
		Pretrain *struct {
			ResumedFrom int `json:"resumed_from"`
		} `json:"pretrain"`
	}) {
		t.Helper()
		resp, err := http.Get(base + "/experiments/" + id)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		return st
	}

	cmd, base := start()
	// Enough rounds that the job cannot finish inside one poll window: the
	// kill must land mid-run, never after a natural completion.
	spec := fmt.Sprintf(`{"kind":"pretrain","scenario":{"load":0.5,"scheme":"PET","train":true,"duration":"3ms"},"workers":1,"rounds":40,"checkpoint":%q}`, ckpt)
	resp, err := http.Post(base+"/experiments", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /experiments: %v", err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("launch: status %d, job %+v", resp.StatusCode, job)
	}

	// Let at least one round land (one checkpoint on disk), then kill -9
	// mid-run.
	deadline := time.Now().Add(2 * time.Minute)
	seenRounds := 0
	for {
		st := getStatus(base, job.ID)
		if st.Rounds >= 1 {
			if st.State == "done" {
				t.Fatalf("job finished before the kill could land; raise the round count: %+v", st)
			}
			seenRounds = st.Rounds
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no completed round before deadline: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = cmd.Wait()

	// The checkpoint directory is a model store whose newest version is the
	// newest durable round. A round is reported only after its version-log
	// line is appended, so the kill cost at most the round in flight.
	store, err := pet.OpenModelStore(ckpt)
	if err != nil {
		t.Fatalf("checkpoint directory after SIGKILL does not open as a store: %v", err)
	}
	newest, ok := store.Latest()
	var durable struct {
		Round int `json:"round"`
	}
	if !ok || json.Unmarshal(newest.Meta, &durable) != nil || durable.Round < seenRounds {
		t.Fatalf("durable round %d (version %+v) after the job reported %d completed rounds", durable.Round, newest, seenRounds)
	}

	// Restart with the same flags: the journal replays, the job resumes
	// from its checkpoint under the original ID and finishes.
	cmd, base = start()
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	deadline = time.Now().Add(4 * time.Minute)
	for {
		st := getStatus(base, job.ID)
		if st.State == "done" {
			if !st.Resumed {
				t.Fatalf("finished job not marked resumed: %+v", st)
			}
			if st.Pretrain == nil || st.Pretrain.ResumedFrom < durable.Round {
				t.Fatalf("resumed from %+v, want the durable round %d", st.Pretrain, durable.Round)
			}
			break
		}
		if st.State == "failed" || st.State == "cancelled" || st.State == "interrupted" {
			t.Fatalf("resumed job ended %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not done before deadline: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The journal tells the whole story, in order.
	jl, err := pet.OpenJobJournal(journal, t.Logf)
	if err != nil {
		t.Fatalf("replaying journal: %v", err)
	}
	states, err := jl.States(job.ID)
	if err != nil {
		t.Fatalf("reading journal states: %v", err)
	}
	want := []pet.JobState{"running", "interrupted", "resumed", "done"}
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
