// Package server is sunstone's overload-protected scheduler service: an HTTP
// job-management front end over one shared core.Engine, built so that a
// misbehaving client, a stuck search, or a shutdown signal never takes the
// service down or loses an accepted job's result.
//
// The protection layers, outermost first:
//
//   - Admission control — per-tenant token buckets shed abusive submission
//     rates with 429 + Retry-After before any work is queued, and the job
//     queue itself is a bounded channel: when it is full, new submissions are
//     shed immediately instead of growing memory.
//
//   - Deadline propagation — every job carries an absolute end-to-end
//     deadline fixed at admission (queue wait included). It becomes both the
//     search context's deadline and Options.Timeout, so an expiring job
//     degrades to its best-so-far mapping via the anytime contract instead
//     of failing.
//
//   - Watchdog — a per-job goroutine watches the search's progress events; a
//     search silent for longer than the stall budget is canceled through the
//     resilient path, which still produces an audit-passing mapping
//     (fallback chain ends at innermost-fit, which needs no search).
//
//   - Panic containment — worker and handler panics are recovered into
//     structured *anytime.PanicError failures; one poisoned job cannot crash
//     its siblings or the process.
//
//   - Graceful drain — Drain stops admissions (503, /readyz flips), lets
//     in-flight and queued jobs run until the grace period, then cancels
//     them; the resilient path turns each cancel into a best-so-far result,
//     so every accepted job still ends with an audit-passing mapping.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/core"
	"sunstone/internal/journal"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/serde"
)

// Config parameterizes a Server. The zero value of every field selects a
// production-sane default.
type Config struct {
	// Engine is the shared compile-cache engine (nil: a fresh unbounded
	// engine). All tenants share it deliberately — identical problems
	// compile once across the whole service.
	Engine *core.Engine
	// Workers bounds concurrently running searches (default GOMAXPROCS,
	// capped at 8). Each job's search is itself parallel; per-job Threads
	// defaults to GOMAXPROCS/Workers so the pool does not oversubscribe.
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (default 64).
	// A full queue sheds new submissions with 429.
	QueueDepth int
	// TenantRate is the per-tenant sustained admission rate in jobs per
	// second (0 disables per-tenant shaping); TenantBurst is the bucket
	// size (default 8).
	TenantRate  float64
	TenantBurst int
	// DefaultTimeout is the end-to-end deadline for submissions that set
	// no timeout_ms (default 30s); MaxTimeout clamps client-requested
	// deadlines (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// StallTimeout is the watchdog budget: a running search that emits no
	// progress event for this long is canceled (default 30s; < 0
	// disables the watchdog). Progress events fire at phase boundaries
	// and incumbent improvements, so keep this well above a single
	// level-pass on the target hardware.
	StallTimeout time.Duration
	// DrainGrace is how long Drain lets in-flight jobs keep searching
	// before canceling them down to best-so-far (default 5s).
	DrainGrace time.Duration
	// MaxJobs bounds retained job records; oldest terminal jobs are
	// evicted past it (default 4096, floored at QueueDepth+Workers+1 so
	// live jobs are never evicted).
	MaxJobs int
	// Retry is the resilient-path policy every job runs under (nil:
	// core.DefaultRetryPolicy).
	Retry *core.RetryPolicy
	// Trace, when non-nil, receives a root span per job.
	Trace *obs.Trace
	// Journal, when non-nil, makes accepted jobs durable: every submission
	// and terminal result is journaled (durably, before the client sees
	// the acknowledgment), incumbent improvements are checkpointed while
	// running, and New replays whatever the journal holds — terminal jobs
	// come back as read-only records, unfinished ones are re-admitted with
	// their original deadline and warm-started from their latest
	// checkpoint. Nil keeps the fully in-memory behavior, bit-identical to
	// a server without durability.
	Journal *journal.Journal
	// CheckpointEvery rate-limits per-job incumbent checkpoints (default
	// 1s; meaningful only with Journal set).
	CheckpointEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Engine == nil {
		c.Engine = core.NewEngine(0)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if floor := c.QueueDepth + c.Workers + 1; c.MaxJobs < floor {
		if c.MaxJobs <= 0 {
			c.MaxJobs = 4096
		}
		if c.MaxJobs < floor {
			c.MaxJobs = floor
		}
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = time.Second
	}
	return c
}

// Server is the scheduler service. Create with New, mount as an
// http.Handler, and call Drain (or Close) exactly once on the way out.
type Server struct {
	cfg     Config
	eng     *core.Engine
	retry   core.RetryPolicy
	buckets *tenantBuckets
	metrics *metrics
	mux     *http.ServeMux

	// jobsCtx parents every job's search context; jobsCancel is the
	// drain-grace / hard-stop lever that degrades all in-flight searches
	// to best-so-far.
	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	queue    chan *job
	workerWG sync.WaitGroup

	// jr is the optional write-ahead journal (Config.Journal). The lock
	// order is journal-internal → s.mu → j.mu (the compactor snapshot runs
	// under the journal's lock), so no journal append may ever be issued
	// while holding s.mu or any job's mu.
	jr *journal.Journal

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string          // insertion order, for listing and eviction
	idem     map[string]string // tenant+NUL+Idempotency-Key → job id
	draining bool

	seq atomic.Int64

	// hookRunning, when set by a test, runs on the worker goroutine after
	// a job enters JobRunning and before its search starts — the lever
	// deterministic occupancy/stall tests block on.
	hookRunning func(ctx context.Context, j *job)
}

// New builds a Server from cfg (zero fields defaulted). The server is ready
// to serve immediately; its worker pool is running. With Config.Journal
// set, New first replays the journal: terminal jobs are restored as
// read-only records, unfinished ones are re-admitted (warm-started from
// their latest checkpoint) ahead of any new submission — the queue is
// widened past QueueDepth if the backlog needs it, so recovery can never
// shed a previously accepted job.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		retry:   core.DefaultRetryPolicy(),
		buckets: newTenantBuckets(cfg.TenantRate, cfg.TenantBurst),
		metrics: newMetrics(),
		jobs:    make(map[string]*job),
		idem:    make(map[string]string),
		jr:      cfg.Journal,
	}
	if cfg.Retry != nil {
		s.retry = *cfg.Retry
	}
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())

	pending := s.recover()
	depth := cfg.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	s.queue = make(chan *job, depth)
	for _, j := range pending {
		s.queue <- j
		s.metrics.queueDepth.Add(1)
	}
	if s.jr != nil {
		s.jr.SetCompactor(s.journalLiveSet)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.guard(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.guard(s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.guard(s.handleGet))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.guard(s.handleEvents))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.guard(s.handleCancel))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statz", s.guard(s.handleStatz))
	s.mux = mux

	for range cfg.Workers {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine exposes the shared engine (e.g. for warm-cache assertions).
func (s *Server) Engine() *core.Engine { return s.eng }

// Draining reports whether admissions have stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service down: stop admitting (submissions get
// 503, /readyz flips to 503), let queued and running jobs finish — after
// DrainGrace their searches are canceled and degrade to best-so-far
// mappings via the resilient path — and return when every worker has
// exited. Every job accepted before Drain reaches a terminal state with a
// mapping (done) or a classified failure. ctx bounds the wait: on expiry
// in-flight searches are canceled immediately and Drain still waits for the
// (now fast) workers before returning ctx's error. Safe to call more than
// once; later calls just wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // submissions are rejected before send once draining is set
	}
	s.mu.Unlock()

	grace := time.AfterFunc(s.cfg.DrainGrace, s.jobsCancel)
	defer grace.Stop()

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.jobsCancel()
		<-done
		return ctx.Err()
	}
}

// Close is the impatient Drain: cancel every in-flight search immediately
// (each still returns its best-so-far mapping) and wait for the workers.
func (s *Server) Close() error {
	s.jobsCancel()
	return s.Drain(context.Background())
}

// Stats is the /statz document.
type Stats struct {
	Engine core.EngineStats `json:"engine"`
	// Counters is the full registry snapshot: srv.* service counters plus
	// cumulative cand.* / pruned.* search-flow totals
	// accumulated across every finished job.
	Counters map[string]uint64 `json:"counters"`
	// Search is the cumulative search-flow snapshot in typed form.
	Search     obs.SearchStats `json:"search"`
	QueueDepth int64           `json:"queue_depth"`
	Running    int64           `json:"running"`
	Jobs       int             `json:"jobs"`
	Tenants    int             `json:"tenants"`
	Draining   bool            `json:"draining"`
	// Journal is the write-ahead journal's health (records, bytes, fsyncs,
	// corruption counters); nil on a server running without durability.
	Journal *journal.Stats `json:"journal,omitempty"`
	// RecoveredJobs counts jobs re-admitted or restored from the journal
	// at boot.
	RecoveredJobs uint64 `json:"recovered_jobs,omitempty"`
}

// Stats snapshots the service: engine cache, counters, gauges.
func (s *Server) Stats() Stats {
	st := Stats{
		Engine:     s.eng.Stats(),
		Counters:   make(map[string]uint64),
		Search:     obs.SnapshotSearch(s.metrics.reg),
		QueueDepth: s.metrics.queueDepth.Load(),
		Running:    s.metrics.running.Load(),
		Tenants:    s.buckets.tenants(),
		Draining:   s.Draining(),
	}
	for _, cv := range s.metrics.reg.Snapshot() {
		st.Counters[cv.Name] = cv.Value
	}
	if s.jr != nil {
		js := s.jr.Stats()
		st.Journal = &js
	}
	st.RecoveredJobs = s.metrics.recovered.Load()
	s.mu.Lock()
	st.Jobs = len(s.jobs)
	s.mu.Unlock()
	return st
}

// ---- handlers ----

// guard converts handler panics into structured 500s instead of killing the
// connection (and, under http.Server, only the goroutine — but with a
// half-written response).
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if pe := anytime.PanicErrorFrom(recover(), "http "+r.Method+" "+r.URL.Path, nil); pe != nil {
				s.metrics.panics.Inc()
				httpError(w, http.StatusInternalServerError, pe.Error())
			}
		}()
		h(w, r)
	}
}

// shedDraining rejects a submission during drain. Like the 429 shed
// paths, the 503 carries Retry-After so well-behaved clients back off
// uniformly; the hint is the drain grace — the earliest a replacement
// process could plausibly be accepting again.
func (s *Server) shedDraining(w http.ResponseWriter) {
	s.metrics.shedDrain.Inc()
	w.Header().Set("Retry-After", retryAfter(s.cfg.DrainGrace))
	httpError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.shedDraining(w)
		return
	}
	// The raw body is retained past decoding: it becomes the journal's
	// submit payload, so recovery rebuilds the job from exactly the bytes
	// the client sent.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	wl, netw, a, opt, fopt, err := req.build()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	now := time.Now()
	if ok, wait := s.buckets.allow(tenant, now); !ok {
		s.metrics.shedTenant.Inc()
		w.Header().Set("Retry-After", retryAfter(wait))
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over admission rate", tenant))
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	idemKey := r.Header.Get("Idempotency-Key")
	mapKey := ""
	if idemKey != "" {
		mapKey = tenant + "\x00" + idemKey
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.shedDraining(w)
		return
	}
	if mapKey != "" {
		if prior, ok := s.idem[mapKey]; ok {
			if jj := s.jobs[prior]; jj != nil {
				s.mu.Unlock()
				// A client retry of a submission already accepted (possibly
				// in a previous process life — the dedupe map is rebuilt
				// from the journal): answer with the existing job instead of
				// double-admitting.
				s.metrics.idemHits.Inc()
				w.Header().Set("Location", "/v1/jobs/"+prior)
				writeJSON(w, http.StatusOK, jj.status())
				return
			}
			delete(s.idem, mapKey) // the prior job was evicted; admit fresh
		}
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.metrics.shedQueue.Inc()
		w.Header().Set("Retry-After", retryAfter(time.Second))
		httpError(w, http.StatusTooManyRequests, "job queue full")
		return
	}
	id := fmt.Sprintf("j%06d", s.seq.Add(1))
	j := newJob(id, tenant, wl, a, opt, now.Add(timeout), now)
	j.idemKey = mapKey
	if netw != nil {
		j.net = netw
		j.fused = req.Network.Fused
		j.fopt = fopt
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	if mapKey != "" {
		s.idem[mapKey] = id
	}
	s.evictLocked()
	s.mu.Unlock()

	// Durability commit point: the submission is journaled (fsynced) before
	// the client sees the acknowledgment, so an accepted job can never be
	// lost to a crash. Journal failure means no ack — the registration is
	// rolled back and the client told to retry.
	if s.jr != nil {
		payload, merr := json.Marshal(submitRecord{
			Tenant: tenant, IdemKey: idemKey,
			SubmittedMS: now.UnixMilli(), DeadlineMS: j.deadline.UnixMilli(),
			Request: body,
		})
		if merr == nil {
			j.mu.Lock()
			j.submitRec = payload
			j.mu.Unlock()
			merr = s.jr.AppendDurable(journal.Record{Kind: journal.KindSubmit, Job: id, Payload: payload})
		}
		if merr != nil {
			s.rollback(j, false)
			w.Header().Set("Retry-After", retryAfter(time.Second))
			httpError(w, http.StatusServiceUnavailable, "journal unavailable: "+merr.Error())
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		// The queue channel is closed; sending would panic. The journal
		// holds a submit record for a job that was never acknowledged, so
		// an abandon marker keeps a restart from resurrecting it.
		s.mu.Unlock()
		s.rollback(j, true)
		s.shedDraining(w)
		return
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.rollback(j, true)
		s.metrics.shedQueue.Inc()
		w.Header().Set("Retry-After", retryAfter(time.Second))
		httpError(w, http.StatusTooManyRequests, "job queue full")
		return
	}
	s.metrics.admitted.Inc()
	s.metrics.queueDepth.Add(1)
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, j.status())
}

// rollback unwinds a registered-but-never-acknowledged job. With abandon
// set (the submit record already reached the journal) a durable abandon
// marker is written so recovery will not resurrect a job whose client was
// told "retry".
func (s *Server) rollback(j *job, abandon bool) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	for i, id := range s.order {
		if id == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if j.idemKey != "" && s.idem[j.idemKey] == j.id {
		delete(s.idem, j.idemKey)
	}
	s.mu.Unlock()
	if abandon && s.jr != nil {
		if payload, err := json.Marshal(stateRecord{State: stateAbandoned}); err == nil {
			_ = s.jr.AppendDurable(journal.Record{Kind: journal.KindState, Job: j.id, Payload: payload})
		}
	}
}

// evictLocked drops the oldest terminal job records past MaxJobs. Live jobs
// are never evicted (MaxJobs is floored above the live-set bound). Callers
// hold s.mu.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			jj := s.jobs[id]
			jj.mu.Lock()
			terminal := jj.state.Terminal()
			jj.mu.Unlock()
			if terminal {
				if jj.idemKey != "" && s.idem[jj.idemKey] == id {
					delete(s.idem, jj.idemKey)
				}
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

func (s *Server) jobByID(r *http.Request) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	byID := make(map[string]*job, len(ids))
	for _, id := range ids {
		byID[id] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		j := byID[id]
		if j == nil || (tenant != "" && j.tenant != tenant) {
			continue
		}
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	cancel := j.cancel
	j.mu.Unlock()
	if !terminal {
		j.userCanceled.Store(true)
		if cancel != nil {
			cancel()
		}
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// A reconnecting subscriber resumes where it left off: frames carry
	// SSE ids, the job keeps a bounded replay ring, and Last-Event-ID
	// selects the frames the client has not seen. A client that already
	// consumed the terminal frame gets a status snapshot and a clean end
	// of stream instead of a duplicate completion.
	var lastID uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			lastID = n
		}
	}
	ch, replay, off := j.subscribe(lastID)
	defer off()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if b, err := json.Marshal(j.status()); err == nil {
		writeSSE(w, "status", b)
	}
	for _, f := range replay {
		writeSSEFrame(w, f.id, "progress", f.data)
	}
	fl.Flush()
	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	for {
		select {
		case frame, live := <-ch:
			if !live {
				// Terminal: the channel close happens after finalize, so
				// the status rendered here is final — mapping included.
				tid := j.terminalFrameID()
				if tid != 0 && lastID >= tid {
					return // this client already replayed the terminal frame
				}
				st := j.status()
				if b, err := json.Marshal(Event{Kind: "terminal", Job: &st}); err == nil {
					writeSSEFrame(w, tid, "done", b)
				}
				fl.Flush()
				return
			}
			writeSSEFrame(w, frame.id, "progress", frame.data)
			fl.Flush()
		case <-ping.C:
			io.WriteString(w, ": ping\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// ---- worker pool ----

func (s *Server) runJob(j *job) {
	s.metrics.queueDepth.Add(-1)
	if j.userCanceled.Load() {
		// Canceled while queued: never ran, terminal without a result.
		s.finalize(j, core.Result{}, nil)
		return
	}
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	if s.jr != nil {
		if payload, err := json.Marshal(stateRecord{State: stateRunning, MS: time.Now().UnixMilli()}); err == nil {
			_ = s.jr.Append(journal.Record{Kind: journal.KindState, Job: j.id, Payload: payload})
		}
	}
	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)

	// The job context carries the absolute end-to-end deadline fixed at
	// admission (queue wait already consumed part of it) and descends
	// from jobsCtx so drain-grace expiry cancels every search at once.
	jctx, cancel := context.WithDeadline(s.jobsCtx, j.deadline)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()

	if s.cfg.Trace != nil {
		sp := s.cfg.Trace.StartRoot("job "+j.id).
			Arg("tenant", j.tenant).Arg("workload", j.name())
		defer sp.End()
		jctx = obs.WithSpan(jctx, sp)
	}

	j.beat()
	stopWatchdog := s.watch(j, cancel)
	defer stopWatchdog()

	opt := j.opt
	opt.Threads = s.jobThreads(opt.Threads)
	if rem := time.Until(j.deadline); rem > 0 {
		opt.Timeout = rem
	}
	// ckptLim rate-bounds checkpoint writes; only the progress callback's
	// goroutine (the search driver) touches it.
	ckptLim := obs.Limiter{MinInterval: s.cfg.CheckpointEvery}
	opt.Progress = func(ev obs.ProgressEvent) {
		j.beat()
		if s.jr != nil && j.w != nil && ev.Kind == obs.IncumbentImproved {
			if m, ok := ev.Incumbent.(*mapping.Mapping); ok && m != nil && ckptLim.Allow(time.Now()) {
				s.writeCheckpoint(j, m, ev)
			}
		}
		if f := progressFrame(ev); f != nil {
			j.publish(f)
		}
	}

	if s.hookRunning != nil {
		s.hookRunning(jctx, j)
	}

	var res core.Result
	var err error
	func() {
		defer func() {
			if pe := anytime.PanicErrorFrom(recover(), "job "+j.id, nil); pe != nil {
				err = pe
				s.metrics.panics.Inc()
			}
		}()
		// Every search — single or network member — runs through the
		// resilient path.
		retry := s.retry
		opt.Retry = &retry
		if j.net != nil {
			// Network-form job: one fusion-aware (or, with max_group 1,
			// plain per-layer) schedule of the whole chain.
			var nr core.NetworkResult
			nr, err = s.eng.SolveNetworkFused(jctx, j.net, j.a, opt, j.fopt)
			if err == nil {
				j.mu.Lock()
				j.nres = &nr
				j.mu.Unlock()
				for _, g := range nr.Groups {
					for _, m := range g.Members {
						s.metrics.addSearch(m.Stats)
					}
				}
			}
			return
		}
		res, err = s.eng.Solve(jctx, core.Problem{Workload: j.w, Arch: j.a}, opt)
	}()
	s.finalize(j, res, err)
}

// jobThreads resolves a job's search worker-pool size. Each job's fair
// share is GOMAXPROCS divided across the Workers slots (floored at 1), so
// the pool never oversubscribes the box. A submission may request fewer
// threads than its share; a larger (or zero) request gets the full share.
func (s *Server) jobThreads(requested int) int {
	share := runtime.GOMAXPROCS(0) / s.cfg.Workers
	if share < 1 {
		share = 1
	}
	if requested > 0 && requested < share {
		return requested
	}
	return share
}

// watch starts the per-job watchdog: cancel the search when it goes silent
// for longer than StallTimeout. Cancellation flows through the resilient
// path, which still returns a valid mapping (innermost-fit needs no
// search), so a stalled job ends done-with-best-so-far or failed-with-
// cause-watchdog — never hung.
func (s *Server) watch(j *job, cancel context.CancelFunc) (stop func()) {
	stall := s.cfg.StallTimeout
	if stall <= 0 {
		return func() {}
	}
	stopped := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(stall/4 + time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopped:
				return
			case <-tick.C:
				if j.sinceBeat() > stall {
					j.watchdogFired.Store(true)
					s.metrics.watchdog.Inc()
					cancel()
					return
				}
			}
		}
	}()
	return func() { once.Do(func() { close(stopped) }) }
}

// finalize ends a job. The order is what makes completion trustworthy: the
// terminal values are staged first, the search-flow totals and the durable
// result record land next, and only then does the job visibly turn
// terminal — state and terminal SSE frame id in one j.mu section — before
// waiters are released. A poller that sees a terminal state therefore also
// sees its flow totals and frame id, and a restart replays the same
// terminal status instead of re-running a job a client saw complete.
func (s *Server) finalize(j *job, res core.Result, err error) {
	// Durability contract: a job that ever journaled a checkpoint finishes
	// no worse than that checkpoint. Chaos can degrade the resilient chain
	// (or a resumed deadline can expire) past the journaled best — promote
	// the checkpoint back to the result when that happens.
	res, err = s.promoteCheckpoint(j, res, err)

	// 1. Stage the terminal values (and count the outcome).
	o := outcome{finished: time.Now(), res: res}
	if res.Mapping != nil {
		if b, eerr := serde.EncodeMapping(res.Mapping); eerr == nil {
			o.mapping = b
		}
	}
	var state JobState
	switch {
	case err != nil:
		state, o.err = JobFailed, err
		if j.watchdogFired.Load() {
			o.cause = core.CauseWatchdog
		} else {
			o.cause = core.ClassifyFailure(err, false)
		}
		s.metrics.failed.Inc()
	case j.userCanceled.Load():
		state = JobCanceled
		s.metrics.canceled.Inc()
	default:
		state = JobDone
		if j.watchdogFired.Load() {
			// Succeeded with a best-so-far mapping after the watchdog cut
			// a stalled search: record why it stopped early.
			o.cause = core.CauseWatchdog
		}
		s.metrics.done.Inc()
	}

	// 2. Build the journaled status from the staged values. resultRec is
	// set before the append so a compaction racing it keeps the result.
	var rec []byte
	if s.jr != nil {
		j.mu.Lock()
		if b, merr := json.Marshal(j.statusLocked(state, o)); merr == nil {
			rec = b
			j.resultRec = b
		}
		j.mu.Unlock()
	}

	// 3. Account the search and make the result durable. The append runs
	// outside s.mu/j.mu — see the lock-order note on Server.jr.
	s.metrics.addSearch(res.Stats)
	if rec != nil {
		_ = s.jr.AppendDurable(journal.Record{Kind: journal.KindResult, Job: j.id, Payload: rec})
	}

	// 4. Publish the terminal state and frame id together, ending every
	// SSE subscription.
	j.mu.Lock()
	j.state, j.out = state, o
	j.evseq++
	j.terminalID = j.evseq
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
	j.mu.Unlock()

	// 5. Release the waiters.
	close(j.done)
}

// ---- metrics ----

type metrics struct {
	reg *obs.Registry

	admitted, shedTenant, shedQueue, shedDrain *obs.Counter
	done, failed, canceled, watchdog, panics   *obs.Counter
	recovered, idemHits, checkpoints           *obs.Counter

	queueDepth, running obs.Gauge

	// search accumulates every finished job's Result.Stats into
	// service-lifetime flow totals, under the canonical cand.*/pruned.*
	// names so /statz, expvar, and tests key on the same strings.
	search *obs.SearchCounters
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:         reg,
		admitted:    reg.Counter(obs.CtrSrvAdmitted),
		shedTenant:  reg.Counter(obs.CtrSrvShedTenant),
		shedQueue:   reg.Counter(obs.CtrSrvShedQueue),
		shedDrain:   reg.Counter(obs.CtrSrvShedDrain),
		done:        reg.Counter(obs.CtrSrvDone),
		failed:      reg.Counter(obs.CtrSrvFailed),
		canceled:    reg.Counter(obs.CtrSrvCanceled),
		watchdog:    reg.Counter(obs.CtrSrvWatchdog),
		panics:      reg.Counter(obs.CtrSrvPanics),
		recovered:   reg.Counter(obs.CtrSrvRecovered),
		idemHits:    reg.Counter(obs.CtrSrvIdemHit),
		checkpoints: reg.Counter(obs.CtrSrvCheckpoint),
		search:      obs.NewSearchCounters(reg),
	}
}

func (m *metrics) addSearch(st obs.SearchStats) {
	m.search.Generated.Add(st.Generated)
	m.search.Evaluated.Add(st.Evaluated)
	m.search.Deduped.Add(st.Deduped)
	m.search.Skipped.Add(st.Skipped)
	m.search.PrunedOrdering.Add(st.PrunedOrdering)
	m.search.PrunedTiling.Add(st.PrunedTiling)
	m.search.PrunedUnrolling.Add(st.PrunedUnrolling)
	m.search.PrunedBound.Add(st.PrunedBound)
	m.search.PrunedBeam.Add(st.PrunedBeam)
}

// ---- wire helpers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeSSE(w io.Writer, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// writeSSEFrame renders an event with an SSE id line, the hook
// Last-Event-ID resumption hangs off. id 0 (a restored job's terminal
// frame, which predates this process's sequence) omits the line.
func writeSSEFrame(w io.Writer, id uint64, event string, data []byte) {
	if id == 0 {
		writeSSE(w, event, data)
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
}

// retryAfter renders a wait as a whole-seconds Retry-After value (min 1).
func retryAfter(d time.Duration) string {
	secs := int(d / time.Second)
	if d%time.Second != 0 || secs < 1 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
