package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sunstone/internal/server"
)

// TestServerSmoke is the `make server-smoke` gate: build the real sunstoned
// binary, run it on an ephemeral port, submit a job and poll it to
// completion, then SIGTERM the daemon with a second, long-budget job
// mid-search and assert the drained process (a) hands that job a terminal
// status carrying a best-so-far mapping over its SSE stream, and (b) exits
// cleanly.
func TestServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "sunstoned")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-drain-grace", "100ms",
		"-stall-timeout", "-1s", // this test owns all timing
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs "listening on <addr>" once the socket is bound.
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
	go func() { // drain remaining log lines so the daemon never blocks on stderr
		for range lines {
		}
	}()

	// Quick job: submit, poll to done, expect a mapping.
	quick := submitJob(t, base, `{"tenant":"smoke","arch":"tiny","timeout_ms":20000,
		"conv":{"K":2,"C":2,"P":3,"Q":3,"R":2,"S":2}}`)
	fin := pollUntilTerminal(t, base, quick.ID, 30*time.Second)
	if fin.State != server.JobDone || len(fin.Mapping) == 0 {
		t.Fatalf("quick job: state %q, mapping %d bytes (error %q)", fin.State, len(fin.Mapping), fin.Error)
	}

	// Slow job: a big conv with a long budget, so it is guaranteed to be
	// mid-search when the daemon is told to drain.
	slow := submitJob(t, base, `{"tenant":"smoke","arch":"conventional","timeout_ms":120000,
		"conv":{"N":16,"K":64,"C":64,"P":28,"Q":28,"R":3,"S":3}}`)
	for st := slow; st.State != server.JobRunning; {
		st = pollStatus(t, base, slow.ID)
		if st.State.Terminal() {
			t.Fatalf("slow job finished before the drain could interrupt it: %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Subscribe to the slow job's SSE stream *before* the signal: the
	// drain keeps active handlers alive until the terminal event is sent.
	sseResp, err := http.Get(base + "/v1/jobs/" + slow.ID + "/events")
	if err != nil {
		t.Fatalf("events stream: %v", err)
	}
	defer sseResp.Body.Close()
	terminal := make(chan server.Event, 1)
	go func() {
		if ev, ok := readTerminalEvent(sseResp.Body); ok {
			terminal <- ev
		}
		close(terminal)
	}()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case ev, ok := <-terminal:
		if !ok {
			t.Fatal("SSE stream ended without a terminal event")
		}
		if ev.Job == nil || ev.Job.State != server.JobDone {
			t.Fatalf("drained job terminal event: %+v", ev.Job)
		}
		if len(ev.Job.Mapping) == 0 {
			t.Fatal("drained job carries no best-so-far mapping")
		}
		if ev.Job.Stopped == "complete" {
			t.Logf("note: slow job completed naturally before the grace cut (stopped=%s)", ev.Job.Stopped)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no terminal event after SIGTERM")
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon did not exit cleanly after drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after drain")
	}
}

func submitJob(t *testing.T, base, body string) server.JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("submit response: %v (%s)", err, b)
	}
	return st
}

func pollStatus(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("poll %s: %v", id, err)
	}
	return st
}

func pollUntilTerminal(t *testing.T, base, id string, budget time.Duration) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if st := pollStatus(t, base, id); st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return server.JobStatus{}
}

// readTerminalEvent scans an SSE stream until the "done" event and returns
// its decoded payload.
func readTerminalEvent(r io.Reader) (server.Event, bool) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event == "done":
			var ev server.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				fmt.Println("bad terminal event:", err)
				return ev, false
			}
			return ev, true
		}
	}
	return server.Event{}, false
}
