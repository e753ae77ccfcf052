package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sunstone/internal/server"
)

// startDaemon launches a built sunstoned binary with extra flags and waits
// for its "listening on" line, returning the process and the API base URL.
func startDaemon(t *testing.T, bin string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var base string
	for base == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("daemon exited before listening")
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				base = "http://" + strings.TrimSpace(line[i+len("listening on "):])
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never reported its address")
		}
	}
	go func() { // keep draining so the daemon never blocks on stderr
		for range lines {
		}
	}()
	return cmd, base
}

// statzCounter polls GET /statz and returns one srv.* counter.
func statzCounter(t *testing.T, base, name string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Counters map[string]uint64 `json:"counters"`
		Journal  *struct {
			Records uint64 `json:"records"`
		} `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Counters[name]
}

// TestCrashRecoverySmoke is the `make crash-smoke` gate: the durability
// story end to end against the real binary. Submit a long job, SIGKILL the
// daemon mid-search (after at least one best-so-far checkpoint reached the
// journal), restart it on the same -data-dir, and assert the job is
// re-admitted, finishes done with an audit-passing mapping no worse than
// its checkpoint, and that the restarted daemon then drains cleanly.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "sunstoned")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dataDir := filepath.Join(t.TempDir(), "wal")
	durableFlags := []string{
		"-data-dir", dataDir,
		"-fsync", "always",
		"-checkpoint-every", "1ms",
		"-stall-timeout", "-1s",
		"-drain-grace", "100ms",
	}

	cmd, base := startDaemon(t, bin, durableFlags...)

	// A top-down search with a generous budget: uninterrupted, this conv
	// takes about 7 s in a fresh daemon on a 2-core x86-64 box (a bottom-up
	// search finishes in ~100 ms, which raced the kill below), so it is
	// still searching when the process is killed after its first
	// checkpoint.
	slow := submitJob(t, base, `{"tenant":"crash","arch":"conventional","timeout_ms":120000,
		"options":{"direction":"top-down"},
		"conv":{"N":4,"K":32,"C":32,"P":14,"Q":14,"R":3,"S":3}}`)

	// Wait for a checkpoint to reach the journal, then kill without grace.
	deadline := time.Now().Add(30 * time.Second)
	for statzCounter(t, base, "srv.journal.checkpoints") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint journaled within 30s")
		}
		if st := pollStatus(t, base, slow.ID); st.State.Terminal() {
			t.Fatalf("slow job finished before the crash: %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no result record
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same journal directory.
	cmd2, base2 := startDaemon(t, bin, durableFlags...)

	if n := statzCounter(t, base2, "srv.jobs.recovered"); n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	fin := pollUntilTerminal(t, base2, slow.ID, 150*time.Second)
	if fin.State != server.JobDone {
		t.Fatalf("recovered job: state %q (error %q, cause %q)", fin.State, fin.Error, fin.Cause)
	}
	if !fin.Recovered {
		t.Fatal("recovered job not marked recovered")
	}
	if len(fin.Mapping) == 0 {
		t.Fatal("recovered job carries no mapping")
	}
	if fin.CheckpointEDP <= 0 {
		t.Fatal("recovered job lost its checkpoint")
	}
	if fin.EDP > fin.CheckpointEDP {
		t.Fatalf("resumed search finished worse than its checkpoint: EDP %g > %g",
			fin.EDP, fin.CheckpointEDP)
	}

	// Exactly the one job exists — nothing lost, nothing duplicated.
	resp, err := http.Get(base2 + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []server.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != slow.ID {
		t.Fatalf("job list after recovery: %+v", list.Jobs)
	}

	// Third life: the finished job comes back as a terminal record with
	// the same figures, without re-running.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, cmd2, "second daemon")
	cmd3, base3 := startDaemon(t, bin, durableFlags...)
	again := pollStatus(t, base3, slow.ID)
	if again.State != server.JobDone || again.EDP != fin.EDP {
		t.Fatalf("terminal record drifted across restart: %q/%g vs done/%g",
			again.State, again.EDP, fin.EDP)
	}
	if err := cmd3.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, cmd3, "third daemon")
}

func waitExit(t *testing.T, cmd *exec.Cmd, who string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s did not exit cleanly: %v", who, err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("%s never exited", who)
	}
}
