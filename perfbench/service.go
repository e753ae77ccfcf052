package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"sunstone/internal/core"
	"sunstone/internal/journal"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/serde"
	"sunstone/internal/server"
)

// The service mix drives an in-process scheduler service with a write-ahead
// journal behind a loopback listener: closed-loop rounds, each a cold burst
// and a warm round on a fresh service, then open-loop conv jobs from two
// tenants at a low and a high fixed rate, then a drain and restarts on the
// same journal directory.
const (
	// Offered rates, jobs per second: about 1/10 and 1/4 of the warm
	// capacity (~95 jobs/s with two closed-loop clients on two cores). At
	// 2/3 of capacity the latencies swung with the shared machine's CPU
	// steal far more than the program's own variation.
	rateLow  = 10.0
	rateHigh = 25.0
	// Shares of --seconds given to the low and high phases.
	lowShare, highShare = 0.15, 0.12
	// serviceLimit is the latency a job must meet to count toward goodput
	// (about 3× the slowest cold single-thread solve in the mix).
	serviceLimit = 500 * time.Millisecond
	// restarts is how many times the drained journal is reopened.
	restarts = 3
	// roundSeconds is about how long one closed-loop round takes on two
	// cores; a run makes --seconds/roundSeconds rounds (at least three), and
	// the end-to-end figures are medians over them.
	roundSeconds = 6
)

// svcJob is one planned job and what happened to it.
type svcJob struct {
	c      convCase
	tenant string
	phase  string

	due, sent time.Time
	submit    time.Duration
	closedLat time.Duration // closed loop: send until the SSE terminal frame
	id        string
	refused   error
	status    server.JobStatus
	ok        bool // passed checkJob
}

// svcRound is one closed-loop round on a fresh service: every problem once,
// cold, from one client, then every problem once more, warm, from nproc
// clients.
type svcRound struct {
	cold, warm         []*svcJob
	coldWall, warmWall time.Duration
}

// svcInstance is one running service: journal, server, listener.
type svcInstance struct {
	jr   *journal.Journal
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startService opens the journal in dir, builds a server on it, serves it
// on a loopback port, and returns once /readyz answers.
func startService(dir string, trace *obs.Trace, spans *benchSpans, client *http.Client) (*svcInstance, error) {
	t0 := time.Now()
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("journal.Open: %w", err)
	}
	spans.add("journal.open", t0)
	t1 := time.Now()
	srv := server.New(server.Config{Journal: jr, Trace: trace})
	spans.add("server.new", t1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		jr.Close()
		return nil, err
	}
	s := &svcInstance{jr: jr, srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, fmt.Errorf("service not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server, closes the listener and the journal, and waits
// for the serving goroutine.
func (s *svcInstance) stop() error {
	ctx, cancel := context.WithTimeout(bgCtx, 60*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	err = errors.Join(err, s.hs.Shutdown(ctx))
	<-s.done
	return errors.Join(err, s.jr.Close())
}

type serviceMix struct {
	dir    string
	client *http.Client
	trace  *obs.Trace
	svc    *svcInstance
	rounds []*svcRound
	low    []*svcJob
	high   []*svcJob
}

func setupServiceMix(r *run) (workload, error) {
	s := &serviceMix{dir: filepath.Join(r.dir, "journal")}
	nLow := int(rateLow * lowShare * r.seconds.Seconds())
	nHigh := int(rateHigh * highShare * r.seconds.Seconds())
	rng := rand.New(rand.NewSource(r.seed))
	uni := serviceUniverse()
	jobs := func(idx []int, phase string) []*svcJob {
		out := make([]*svcJob, len(idx))
		for k, i := range idx {
			out[k] = &svcJob{c: uni[i], tenant: fmt.Sprintf("tenant-%d", rng.Intn(2)), phase: phase}
		}
		return out
	}
	// A round's cold burst names every problem once: all first sightings
	// on its fresh service, so the Engine's compile path runs. Its warm
	// round and the open-loop phases repeat them and exercise the hit path.
	// Each round has its own seeded orders.
	for k := 0; k < max(3, int(r.seconds.Seconds()/roundSeconds)); k++ {
		s.rounds = append(s.rounds, &svcRound{
			cold: jobs(rng.Perm(len(uni)), "cold"),
			warm: jobs(rng.Perm(len(uni)), "warm"),
		})
	}
	s.low = jobs(balancedRepeats(rng, len(uni), nLow), "low")
	s.high = jobs(balancedRepeats(rng, len(uni), nHigh), "high")
	// At most nproc client connections, so the load generator does not
	// compete with the service for more cores than the box has.
	conns := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	if r.trace {
		s.trace = obs.NewTrace()
	}
	svc, err := startService(s.dir, s.trace, r.spans, s.client)
	if err != nil {
		return nil, err
	}
	s.svc = svc
	return s, nil
}

func (s *serviceMix) close() {
	if s.svc != nil {
		s.svc.stop()
		s.svc = nil
	}
	s.client.CloseIdleConnections()
}

// submit POSTs one job and records its id, or why it was refused.
func (s *serviceMix) submit(base string, j *svcJob, spans *benchSpans) {
	sh := j.c.shape
	body, _ := json.Marshal(server.SubmitRequest{
		Tenant: j.tenant,
		Arch:   j.c.arch,
		Conv: &server.ConvSpec{N: j.c.batch, K: sh.K, C: sh.C, P: sh.P, Q: sh.Q, R: sh.R, S: sh.S,
			StrideH: sh.StrideH, StrideW: sh.StrideW},
	})
	t0 := time.Now()
	resp, err := s.client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.refused = err
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	j.submit = spans.add("http.submit", t0)
	if err != nil {
		j.refused = err
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		j.refused = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		j.refused = fmt.Errorf("submit response: %w", err)
		return
	}
	j.id = st.ID
}

// awaitTerminal follows the job's SSE stream until its terminal frame.
func (s *serviceMix) awaitTerminal(base string, j *svcJob) error {
	resp, err := s.client.Get(base + "/v1/jobs/" + j.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:") && event == "done":
			var ev server.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data:")), &ev); err != nil {
				return err
			}
			if ev.Job == nil {
				return errors.New("terminal event without a job")
			}
			j.status = *ev.Job
			io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	return fmt.Errorf("job %s: event stream ended without a terminal frame: %v", j.id, sc.Err())
}

// runClosedLoop sends jobs from closed-loop clients, each of which waits
// for its job's terminal frame before sending its next, and returns the
// wall time. The cold burst uses one client, which keeps the cold searches
// from contending with each other for the two cores: with nproc clients its
// latencies swung about half again as much between runs on a shared
// machine.
func (s *serviceMix) runClosedLoop(base string, jobs []*svcJob, clients int, spans *benchSpans) time.Duration {
	ch := make(chan *svcJob, len(jobs))
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				j.sent = time.Now()
				j.due = j.sent
				s.submit(base, j, spans)
				if j.refused == nil {
					if err := s.awaitTerminal(base, j); err != nil {
						j.refused = err
					}
				}
				j.closedLat = time.Since(j.sent)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// runOpenLoop sends jobs at rate from nproc senders, whatever the service
// does, waits until every accepted job is terminal, and fetches their
// terminal records. It returns how far the generator ran behind schedule.
func (s *serviceMix) runOpenLoop(jobs []*svcJob, rate float64, spans *benchSpans) (time.Duration, error) {
	ch := make(chan *svcJob, len(jobs)) // holds every job, so the dispatcher never blocks
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				j.sent = time.Now()
				s.submit(s.svc.base, j, spans)
			}
		}()
	}
	start := time.Now()
	for i, off := range schedule(len(jobs), rate) {
		jobs[i].due = start.Add(off)
		time.Sleep(time.Until(jobs[i].due))
		ch <- jobs[i]
	}
	close(ch)
	wg.Wait()
	due := make([]time.Time, len(jobs))
	sent := make([]time.Time, len(jobs))
	for i, j := range jobs {
		due[i], sent[i] = j.due, j.sent
	}
	if err := s.collect(jobs); err != nil {
		return 0, err
	}
	return maxLate(due, sent), nil
}

// collect waits until every accepted job is terminal and records the
// terminal records. It polls the server's in-process gauges until idle, then
// lists the jobs; it never polls job by job.
func (s *serviceMix) collect(jobs []*svcJob) error {
	for {
		if st := s.svc.srv.Stats(); st.QueueDepth > 0 || st.Running > 0 {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		all, err := s.list(s.svc.base)
		if err != nil {
			return err
		}
		pending := false
		for _, j := range jobs {
			if j.refused != nil {
				continue
			}
			st, ok := all[j.id]
			if !ok {
				return fmt.Errorf("job %s missing from the job list", j.id)
			}
			pending = pending || !st.State.Terminal()
			j.status = st
		}
		if !pending {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (s *serviceMix) list(base string) (map[string]server.JobStatus, error) {
	resp, err := s.client.Get(base + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Jobs []server.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("job list: %w", err)
	}
	out := make(map[string]server.JobStatus, len(doc.Jobs))
	for _, st := range doc.Jobs {
		out[st.ID] = st
	}
	return out, nil
}

// checkJob audits one job's terminal record against the reference and
// returns its decoded mapping.
func checkJob(ref reference, bv boundViolations, j *svcJob) (float64, *mapping.Mapping, error) {
	key := j.c.key()
	if j.refused != nil {
		return 0, nil, fmt.Errorf("%s: %w", key, j.refused)
	}
	st := j.status
	if st.State != server.JobDone || st.Stopped != core.StopComplete.String() {
		return 0, nil, fmt.Errorf("%s: job %s ended %s/%s: %s", key, j.id, st.State, st.Stopped, st.Error)
	}
	m, err := serde.DecodeMapping(st.Mapping, j.c.workload(), archPreset(j.c.arch))
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", key, err)
	}
	rep, err := auditMapping(m)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", key, err)
	}
	if math.Float64bits(rep.EDP) != math.Float64bits(st.EDP) {
		return 0, nil, fmt.Errorf("%s: job EDP %.17g != re-evaluated %.17g", key, st.EDP, rep.EDP)
	}
	bv.check(key, m, rep.EDP)
	ratio, err := ref.exact(key, st.EDP)
	return ratio, m, err
}

func (s *serviceMix) measure(r *run) error {
	j0 := s.svc.jr.Stats()
	// Every round but the last runs on a fresh untraced service; the last
	// runs on the main service, so every round but the first runs in a
	// warmed-up process.
	last := len(s.rounds) - 1
	for k, rd := range s.rounds {
		r.probeSetup(3)
		svc, spans := s.svc, r.spans
		if k < last {
			var err error
			spans = newBenchSpans()
			if svc, err = startService(filepath.Join(r.dir, fmt.Sprintf("round-%d", k)), nil, spans, s.client); err != nil {
				return err
			}
		}
		rd.coldWall = s.runClosedLoop(svc.base, rd.cold, 1, spans)
		rd.warmWall = s.runClosedLoop(svc.base, rd.warm, runtime.NumCPU(), spans)
		if k < last {
			if err := svc.stop(); err != nil {
				return err
			}
		}
	}
	lateLow, err := s.runOpenLoop(s.low, rateLow, r.spans)
	if err != nil {
		return err
	}
	lateHigh, err := s.runOpenLoop(s.high, rateHigh, r.spans)
	if err != nil {
		return err
	}
	j1 := s.svc.jr.Stats()
	stats := s.svc.srv.Stats()
	var spans []span
	if s.trace != nil {
		if spans, err = traceSpans(s.trace); err != nil {
			return err
		}
	}

	// Every job is checked; the main service's jobs also feed the
	// per-layer numbers.
	var ratios []float64
	finals := map[string]*mapping.Mapping{} // the first mapping per problem
	check := func(jobs []*svcJob) {
		for _, j := range jobs {
			ratio, m, err := checkJob(r.ref, r.bounds, j)
			r.check(err)
			j.ok = err == nil
			if ratio > 0 {
				ratios = append(ratios, ratio)
			}
			if m != nil && finals[j.c.key()] == nil {
				finals[j.c.key()] = m
			}
		}
	}
	for _, rd := range s.rounds {
		check(rd.cold)
		check(rd.warm)
	}
	check(s.low)
	check(s.high)
	var tts, p50s, p90s, goodputs []float64
	for _, rd := range s.rounds {
		var lats []float64
		for _, j := range rd.cold {
			if j.refused == nil {
				lats = append(lats, ms(j.closedLat))
			}
		}
		within := 0
		for _, j := range rd.warm {
			if j.ok && j.closedLat <= serviceLimit {
				within++
			}
		}
		tts = append(tts, rd.coldWall.Seconds())
		p50s = append(p50s, percentile(lats, 50))
		p90s = append(p90s, percentile(lats, 90))
		goodputs = append(goodputs, float64(within)/rd.warmWall.Seconds())
	}
	fin := s.rounds[last]
	all := append(append(append(append([]*svcJob(nil), fin.cold...), fin.warm...), s.low...), s.high...)
	var submits, waits, runs, attempts []float64
	lat := map[string][]float64{}
	withinHigh, shed, acked := 0, 0, 0
	for _, j := range all {
		if j.refused != nil {
			if j.id == "" {
				shed++
			}
			continue
		}
		acked++
		st := j.status
		l := latencyFromDue(j.due, st.FinishedMS)
		lat[j.phase] = append(lat[j.phase], l)
		if j.phase == "high" && j.ok && l <= ms(serviceLimit) {
			withinHigh++
		}
		if j.phase != "cold" {
			submits = append(submits, ms(j.submit))
		}
		waits = append(waits, float64(st.StartedMS-st.SubmittedMS))
		runs = append(runs, float64(st.FinishedMS-st.StartedMS))
		attempts = append(attempts, float64(st.Attempts))
	}
	// The open loop's goodput divides by the measured phase: from the first
	// job's due time to the last terminal record.
	var lastFinish int64
	for _, j := range s.high {
		lastFinish = max(lastFinish, j.status.FinishedMS)
	}
	highDur := latencyFromDue(s.high[0].due, lastFinish) / 1e3

	// Drain, then reopen the same journal directory: restart time, replay
	// time, and the recovered records must match what was acknowledged.
	before, err := s.list(s.svc.base)
	if err != nil {
		return err
	}
	if err := s.svc.stop(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	s.svc = nil
	var restartMS []float64
	var recovered uint64
	restartSpans := newBenchSpans()
	for i := 0; i < restarts; i++ {
		t0 := time.Now()
		svc, err := startService(s.dir, nil, restartSpans, s.client)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		restartMS = append(restartMS, ms(time.Since(t0)))
		recovered = svc.srv.Stats().RecoveredJobs
		after, err := s.list(svc.base)
		r.check(errors.Join(err, checkRecovered(before, after, recovered)))
		if err := svc.stop(); err != nil {
			return fmt.Errorf("restart drain: %w", err)
		}
	}

	// The operation is a cold job in a burst; each figure is the median
	// over rounds of the round's own figure. Goodput is the warm rounds'
	// closed-loop capacity. Open-loop latencies sway with the shared
	// machine's fsync and CPU steal far more than solves do (2× between
	// runs), so they are per-layer metrics.
	r.set("tts_s", median(tts))
	r.set("op_p50_ms", median(p50s))
	r.set("op_p90_ms", median(p90s))
	r.set("goodput_ops_per_s", median(goodputs))
	r.set("edp_ratio_geomean", geomean(ratios))
	fmt.Fprintf(os.Stderr, "perfbench: service-mix: %d rounds of %d cold + %d warm jobs, then %d low and %d high; cold %.1f jobs/s, warm %.1f jobs/s\n",
		len(s.rounds), len(fin.cold), len(fin.warm), len(s.low), len(s.high), float64(len(fin.cold))/median(tts), median(goodputs))
	if !r.trace {
		return nil
	}
	r.set("service.job_p50_ms.low", percentile(lat["low"], 50))
	r.set("service.job_p90_ms.low", percentile(lat["low"], 90))
	r.set("service.job_p50_ms.high", percentile(lat["high"], 50))
	r.set("service.job_p90_ms.high", percentile(lat["high"], 90))
	r.set("service.goodput_jps.high", float64(withinHigh)/highDur)
	r.set("service.restart_ms", median(restartMS))
	r.set("service.cold_share", float64(len(fin.cold))/float64(len(all)))
	r.set("loadgen.late_ms", ms(max(lateLow, lateHigh)))
	r.set("server.submit_ms", median(submits))
	// Start and finish stamps are whole milliseconds; means keep the
	// sub-millisecond signal a median of integers would round away.
	r.set("server.queue_wait_ms", mean(waits))
	r.set("server.run_ms", mean(runs))
	r.set("server.shed", float64(shed))
	r.set("server.attempts_per_job", mean(attempts))
	r.set("server.recovered_jobs", float64(recovered))
	if acked > 0 {
		r.set("journal.fsyncs_per_job", float64(j1.Fsyncs-j0.Fsyncs)/float64(acked))
		r.set("journal.bytes_per_job", float64(j1.Bytes-j0.Bytes)/float64(acked))
	}
	r.set("journal.replay_ms", median(restartSpans.durations("journal.open")))
	reportEngine(r, stats.Engine)

	acc := newLayerAcc()
	acc.stats = stats.Search
	var jobWall time.Duration
	for _, sp := range spans {
		if strings.HasPrefix(sp.name, "job ") {
			jobWall += sp.iv.end - sp.iv.start
		}
	}
	acc.self = selfTimes(spans)
	acc.wall = jobWall
	acc.tracedOp = acked
	acc.report(r, acked)
	var maps []*mapping.Mapping
	var probs []core.Problem
	for _, j := range fin.cold {
		if m := finals[j.c.key()]; m != nil {
			maps = append(maps, m)
			probs = append(probs, core.Problem{Workload: m.Workload, Arch: m.Arch})
		}
	}
	reportEvalTiming(r, maps)
	reportOverhead(r, tts[last:], tts[:last])
	return reportCompile(r, probs)
}

// checkRecovered checks a restarted service against the drained one: every
// job comes back in the same terminal state with the same EDP, and the
// server counts each as recovered.
func checkRecovered(before, after map[string]server.JobStatus, recovered uint64) error {
	if recovered != uint64(len(before)) || len(after) != len(before) {
		return fmt.Errorf("restart: %d jobs before, %d listed after, %d recovered", len(before), len(after), recovered)
	}
	for id, b := range before {
		a, ok := after[id]
		if !ok || a.State != b.State || math.Float64bits(a.EDP) != math.Float64bits(b.EDP) {
			return fmt.Errorf("restart: job %s was %s/%.17g, came back %s/%.17g (present %v)", id, b.State, b.EDP, a.State, a.EDP, ok)
		}
	}
	return nil
}
