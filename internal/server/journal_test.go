package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/faults"
	"sunstone/internal/journal"
	"sunstone/internal/serde"
	"sunstone/internal/workloads"
)

func contextWithTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	jr, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	return jr
}

// drainClose drains the server and closes its journal — the clean-shutdown
// half of a restart cycle (the crash half just closes the journal).
func drainClose(t *testing.T, s *Server, jr *journal.Journal) {
	t.Helper()
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := jr.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
}

// TestJournalRestoreTerminal: a job that finished before the restart is
// served from its journaled terminal record — same state, same EDP, same
// mapping — and is never re-run.
func TestJournalRestoreTerminal(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, dir)
	s := New(Config{Journal: jr, StallTimeout: -1})
	first := submit(t, s, fmt.Sprintf(tinyConv, "durable"))
	fin := waitTerminal(t, s, first.ID)
	if fin.State != JobDone || len(fin.Mapping) == 0 {
		t.Fatalf("job before restart: %+v", fin)
	}
	drainClose(t, s, jr)

	jr2 := openJournal(t, dir)
	s2 := newTestServer(t, Config{Journal: jr2, StallTimeout: -1})
	t.Cleanup(func() { jr2.Close() })
	rec, got := do(t, s2, "GET", "/v1/jobs/"+first.ID, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("restored job GET: %d %s", rec.Code, rec.Body.String())
	}
	if got.State != JobDone || !got.Recovered {
		t.Fatalf("restored job: state %q recovered %v", got.State, got.Recovered)
	}
	if got.EDP != fin.EDP || string(got.Mapping) != string(fin.Mapping) {
		t.Fatalf("restored result drifted: EDP %g vs %g", got.EDP, fin.EDP)
	}
	if st := s2.Stats(); st.RecoveredJobs != 1 || st.Journal == nil {
		t.Fatalf("stats after recovery: recovered %d, journal %v", st.RecoveredJobs, st.Journal)
	}
	// The restored record is terminal in the counters' eyes too: no
	// double-completion — srv.jobs.done stays 0 on the new process.
	if st := s2.Stats(); st.Counters["srv.jobs.done"] != 0 {
		t.Fatalf("restored job was re-run: done = %d", st.Counters["srv.jobs.done"])
	}
}

// TestJournalReadmitsUnfinished: a submit record with no terminal result —
// what a SIGKILL mid-search leaves behind — is re-admitted at boot, runs,
// and finishes no worse than its journaled checkpoint.
func TestJournalReadmitsUnfinished(t *testing.T) {
	dir := t.TempDir()

	// Forge the crash leftovers: a submission plus a best-so-far
	// checkpoint, no result.
	w := workloads.Conv2D("conv", 1, 1, 1, 1, 1, 1, 1, 1, 1)
	a := arch.Tiny(256)
	prior, err := core.Solve(core.Problem{Workload: w, Arch: a}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := serde.EncodeCheckpoint("j000007", prior.Mapping,
		prior.Report.EDP, prior.Report.EDP, prior.Report.EnergyPJ, prior.Report.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(tinyConv, "durable")
	sub, err := json.Marshal(submitRecord{
		Tenant:      "durable",
		IdemKey:     "retry-me",
		SubmittedMS: time.Now().UnixMilli(),
		DeadlineMS:  time.Now().Add(30 * time.Second).UnixMilli(),
		Request:     json.RawMessage(body),
	})
	if err != nil {
		t.Fatal(err)
	}
	jr := openJournal(t, dir)
	if err := jr.AppendDurable(journal.Record{Kind: journal.KindSubmit, Job: "j000007", Payload: sub}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(journal.Record{Kind: journal.KindCheckpoint, Job: "j000007", Payload: ckpt}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	jr2 := openJournal(t, dir)
	s := newTestServer(t, Config{Journal: jr2, StallTimeout: -1})
	t.Cleanup(func() { jr2.Close() })
	fin := waitTerminal(t, s, "j000007")
	if fin.State != JobDone || !fin.Recovered {
		t.Fatalf("re-admitted job: state %q recovered %v (error %q)", fin.State, fin.Recovered, fin.Error)
	}
	if fin.CheckpointEDP <= 0 {
		t.Fatalf("re-admitted job lost its checkpoint: %+v", fin)
	}
	if fin.EDP > fin.CheckpointEDP {
		t.Fatalf("resumed job finished worse than its checkpoint: %g > %g", fin.EDP, fin.CheckpointEDP)
	}
	mustValidMapping(t, s, fin)

	// New submissions never reuse a recovered id.
	fresh := submit(t, s, fmt.Sprintf(tinyConv, "durable"))
	if fresh.ID == "j000007" {
		t.Fatalf("recovered id reissued to a new submission")
	}

	// The journal-backed idempotency window spans the restart: retrying
	// the original submission replays the recovered job instead of
	// double-admitting.
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	req.Header.Set("Idempotency-Key", "retry-me")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("idempotent replay after restart: %d %s", rec.Code, rec.Body.String())
	}
	var replayed JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.ID != "j000007" {
		t.Fatalf("idempotent replay returned %q, want the recovered job", replayed.ID)
	}
}

// TestJournalAbandonedNotResurrected: a submit record followed by an
// abandon marker (a post-journal shed whose client was told to retry)
// must not come back.
func TestJournalAbandonedNotResurrected(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, dir)
	sub, _ := json.Marshal(submitRecord{
		Tenant: "t", SubmittedMS: time.Now().UnixMilli(),
		DeadlineMS: time.Now().Add(time.Minute).UnixMilli(),
		Request:    json.RawMessage(fmt.Sprintf(tinyConv, "t")),
	})
	ab, _ := json.Marshal(stateRecord{State: stateAbandoned})
	if err := jr.AppendDurable(journal.Record{Kind: journal.KindSubmit, Job: "j000003", Payload: sub}); err != nil {
		t.Fatal(err)
	}
	if err := jr.AppendDurable(journal.Record{Kind: journal.KindState, Job: "j000003", Payload: ab}); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	jr2 := openJournal(t, dir)
	s := newTestServer(t, Config{Journal: jr2, StallTimeout: -1})
	t.Cleanup(func() { jr2.Close() })
	if rec, _ := do(t, s, "GET", "/v1/jobs/j000003", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("abandoned job resurrected: %d", rec.Code)
	}
	if st := s.Stats(); st.RecoveredJobs != 0 {
		t.Fatalf("abandoned job counted as recovered: %d", st.RecoveredJobs)
	}
}

// TestJournalUnbuildableSubmitFailsHonestly: a journaled submission whose
// body no longer decodes is surfaced as a terminal failed job — visible
// and classified, never silently dropped.
func TestJournalUnbuildableSubmitFailsHonestly(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, dir)
	sub, _ := json.Marshal(submitRecord{
		Tenant: "t", SubmittedMS: time.Now().UnixMilli(),
		DeadlineMS: time.Now().Add(time.Minute).UnixMilli(),
		Request:    json.RawMessage(`{"conv":{"K":0}}`), // invalid geometry
	})
	if err := jr.AppendDurable(journal.Record{Kind: journal.KindSubmit, Job: "j000001", Payload: sub}); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	jr2 := openJournal(t, dir)
	s := newTestServer(t, Config{Journal: jr2, StallTimeout: -1})
	t.Cleanup(func() { jr2.Close() })
	rec, st := do(t, s, "GET", "/v1/jobs/j000001", "")
	if rec.Code != http.StatusOK || st.State != JobFailed || !st.Recovered {
		t.Fatalf("unbuildable submit: %d %+v", rec.Code, st)
	}
	if !strings.Contains(st.Error, "crash recovery") {
		t.Fatalf("failure not attributed to recovery: %q", st.Error)
	}
}

// TestIdempotencyKeyDedupe: within one process life, a duplicate
// Idempotency-Key replays the original job with 200 + Location instead of
// admitting twice. Works with or without a journal.
func TestIdempotencyKeyDedupe(t *testing.T) {
	s := newTestServer(t, Config{})
	body := fmt.Sprintf(tinyConv, "idem")
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
		req.Header.Set("Idempotency-Key", "abc")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	first := post()
	if first.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", first.Code, first.Body.String())
	}
	var fst JobStatus
	if err := json.Unmarshal(first.Body.Bytes(), &fst); err != nil {
		t.Fatal(err)
	}
	second := post()
	if second.Code != http.StatusOK {
		t.Fatalf("duplicate submit: %d %s", second.Code, second.Body.String())
	}
	var snd JobStatus
	if err := json.Unmarshal(second.Body.Bytes(), &snd); err != nil {
		t.Fatal(err)
	}
	if snd.ID != fst.ID {
		t.Fatalf("duplicate admitted a new job: %q vs %q", snd.ID, fst.ID)
	}
	if loc := second.Header().Get("Location"); loc != "/v1/jobs/"+fst.ID {
		t.Fatalf("replay Location = %q", loc)
	}
	if st := s.Stats(); st.Counters["srv.idempotent.replayed"] != 1 {
		t.Fatalf("idempotent counter: %v", st.Counters["srv.idempotent.replayed"])
	}
	// A different key admits normally.
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	req.Header.Set("Idempotency-Key", "xyz")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("distinct key: %d", rec.Code)
	}
}

// TestDrainShedCarriesRetryAfter: the draining 503 backs clients off with
// Retry-After, exactly like the 429 shed paths.
func TestDrainShedCarriesRetryAfter(t *testing.T) {
	s := New(Config{StallTimeout: -1, DrainGrace: 2 * time.Second})
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rec, _ := do(t, s, "POST", "/v1/jobs", fmt.Sprintf(tinyConv, "late"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q", ra)
	}
}

// sseEvents parses a recorded SSE body into (id, event) pairs.
func sseEvents(body string) []struct {
	id    uint64
	event string
} {
	var out []struct {
		id    uint64
		event string
	}
	var id uint64
	var event string
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case line == "" && event != "":
			out = append(out, struct {
				id    uint64
				event string
			}{id, event})
			id, event = 0, ""
		}
	}
	return out
}

// TestSSELastEventID: frames carry SSE ids; a reconnect with Last-Event-ID
// replays only what was missed, and a client that already saw the terminal
// frame gets a clean end of stream instead of a duplicate done event.
func TestSSELastEventID(t *testing.T) {
	s := newTestServer(t, Config{})
	st := submit(t, s, fmt.Sprintf(tinyConv, "sse"))
	waitTerminal(t, s, st.ID)

	get := func(lastID string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/events", nil)
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}

	// Fresh subscribe on a terminal job: status, any buffered progress,
	// then the numbered terminal frame.
	evs := sseEvents(get("").Body.String())
	var terminalID uint64
	for _, e := range evs {
		if e.event == "done" {
			terminalID = e.id
		}
	}
	if terminalID == 0 {
		t.Fatalf("terminal frame has no id: %+v", evs)
	}

	// Reconnect having missed only the terminal frame: done is re-sent.
	evs = sseEvents(get(strconv.FormatUint(terminalID-1, 10)).Body.String())
	found := false
	for _, e := range evs {
		if e.event == "done" {
			found = true
		}
		if e.event == "progress" && e.id <= terminalID-1 {
			t.Fatalf("replayed an already-seen progress frame %d", e.id)
		}
	}
	if !found {
		t.Fatal("reconnect behind the terminal frame did not replay it")
	}

	// Reconnect having seen everything: no duplicate done.
	for _, e := range sseEvents(get(strconv.FormatUint(terminalID, 10)).Body.String()) {
		if e.event == "done" {
			t.Fatal("terminal frame duplicated for a caught-up client")
		}
	}
}

// TestJournalChaosRecovery is the acceptance invariant under chaos: with
// every fault site armed at 30% — journal writes and reads included — no
// acknowledged submission is lost across a restart, nothing completes
// twice, and every resumed search finishes no worse than its checkpoint.
func TestJournalChaosRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos loop; skipped in -short")
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			restore := faults.Activate(faults.NewUniform(seed, 0.3))
			defer restore()

			dir := t.TempDir()
			jr := openJournal(t, dir)
			s := New(Config{Journal: jr, StallTimeout: -1, CheckpointEvery: time.Millisecond})

			// Submit through the chaos: 503s (journal unavailable) are
			// client-visible retryable errors; what was ACKed must survive.
			var acked []string
			for i := 0; i < 6; i++ {
				body := fmt.Sprintf(tinyConv, fmt.Sprintf("t%d", i%2))
				for try := 0; try < 20; try++ {
					rec, st := do(t, s, "POST", "/v1/jobs", body)
					if rec.Code == http.StatusAccepted {
						acked = append(acked, st.ID)
						break
					}
					if rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusTooManyRequests {
						t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
					}
				}
			}
			if len(acked) == 0 {
				t.Fatal("chaos shed every submission; rate too high for the retry budget")
			}
			finals := make(map[string]JobStatus)
			for _, id := range acked {
				finals[id] = waitTerminal(t, s, id)
			}
			drainClose(t, s, jr)

			// Restart, chaos still armed: recovery reads replay through the
			// same injector.
			jr2 := openJournal(t, dir)
			s2 := newTestServer(t, Config{Journal: jr2, StallTimeout: -1})
			t.Cleanup(func() { jr2.Close() })

			st2 := s2.Stats()
			if st2.RecoveredJobs != uint64(len(acked)) {
				t.Fatalf("recovered %d jobs, acked %d", st2.RecoveredJobs, len(acked))
			}
			if st2.Jobs != len(acked) {
				t.Fatalf("job table holds %d records, want %d (duplicates?)", st2.Jobs, len(acked))
			}
			for _, id := range acked {
				rec, got := do(t, s2, "GET", "/v1/jobs/"+id, "")
				if rec.Code != http.StatusOK {
					t.Fatalf("acked job %s lost across restart: %d", id, rec.Code)
				}
				want := finals[id]
				if got.State != want.State || got.EDP != want.EDP {
					t.Fatalf("job %s drifted across restart: %q/%g vs %q/%g",
						id, got.State, got.EDP, want.State, want.EDP)
				}
				if got.CheckpointEDP > 0 && got.EDP > got.CheckpointEDP {
					t.Fatalf("job %s finished worse than its checkpoint: %g > %g",
						id, got.EDP, got.CheckpointEDP)
				}
			}
			// Zero double-completions: the restored records did not re-run.
			if d := s2.Stats().Counters["srv.jobs.done"]; d != 0 {
				t.Fatalf("restart re-ran %d restored jobs", d)
			}
		})
	}
}

// TestTerminalOnlyAfterDurable: a job turns visibly terminal only once its
// search-flow totals are counted, its terminal SSE frame id is stamped and
// its result record is durable. A 200 ms latency on every journal write
// widens the window between those steps, so the first poll that sees a
// terminal state must already see all three.
func TestTerminalOnlyAfterDurable(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, dir)
	s := newTestServer(t, Config{Journal: jr})
	t.Cleanup(func() { jr.Close() })
	inj, err := faults.NewInjector(1, faults.Rule{
		Site: faults.SiteJournal, Kind: faults.Latency, Rate: 1, Delay: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(inj)
	defer restore()

	st := submit(t, s, `{"tenant":"acme","arch":"tiny","conv":{"K":2,"C":2,"P":4,"Q":4,"R":2,"S":2}}`)
	fin := waitTerminal(t, s, st.ID)
	restore()
	if fin.State != JobDone {
		t.Fatalf("job ended %q: %s", fin.State, fin.Error)
	}

	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	if j.terminalFrameID() == 0 {
		t.Error("terminal job visible before its terminal frame id")
	}

	// Copy the journal as it stands; the result record must already be on
	// disk.
	replayDir := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(replayDir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jr2 := openJournal(t, replayDir)
	defer jr2.Close()
	found := false
	for _, r := range jr2.TakeReplayed() {
		found = found || (r.Kind == journal.KindResult && r.Job == st.ID)
	}
	if !found {
		t.Error("terminal job visible before its result record is durable")
	}

	// /statz last: it reads journal stats, which wait on a write in flight.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	var stz Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stz); err != nil {
		t.Fatalf("/statz: %v", err)
	}
	if stz.Counters["cand.generated"] == 0 || stz.Counters["cand.evaluated"] == 0 {
		t.Errorf("terminal job visible before its flow totals: %v", stz.Counters)
	}
}
