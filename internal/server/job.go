package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/network"
	"sunstone/internal/obs"
	"sunstone/internal/serde"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// JobState is a job's lifecycle position. Transitions are strictly forward:
// queued -> running -> one of done | failed | canceled.
type JobState string

const (
	// JobQueued: admitted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is searching.
	JobRunning JobState = "running"
	// JobDone: finished with an audit-passing mapping (complete or
	// best-so-far after a deadline/drain/watchdog cancel).
	JobDone JobState = "done"
	// JobFailed: every resilient attempt failed; see Error and Cause.
	JobFailed JobState = "failed"
	// JobCanceled: the tenant canceled the job. A job canceled mid-search
	// still carries its best-so-far mapping when one was completed.
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// ConvSpec is the inline convolution form of a submission: the Conv2D
// constructor's geometry as JSON.
type ConvSpec struct {
	N, K, C, P, Q, R, S int `json:",omitempty"`
	StrideH, StrideW    int `json:",omitempty"`
}

// NetworkSpec is the network form of a submission: a whole layer chain
// scheduled in one job, optionally fusion-aware. Exactly one of Preset or
// Layers names the chain.
type NetworkSpec struct {
	// Preset: resnet18 (Batch applies, default 1) | transformer (the
	// fixed seq 512, d_model 512, d_ff 2048 block; Batch does not apply).
	Preset string `json:"preset,omitempty"`
	// Layers is an inline conv chain (scheduled in order; adjacent layers
	// whose geometries chain get producer->consumer edges).
	Layers []ConvSpec `json:"layers,omitempty"`
	Batch  int        `json:"batch,omitempty"`
	// Fused turns on fusion-aware scheduling: the search may pin a fused
	// group's intermediate tensors on chip and picks the fusion cut with
	// the lowest network EDP. Off, the job is the plain per-layer
	// schedule (still one job, still per-group reporting — all
	// singletons).
	Fused bool `json:"fused,omitempty"`
	// MaxGroup caps fused group length (0 = library default); only
	// meaningful with Fused set.
	MaxGroup int `json:"max_group,omitempty"`
}

// SubmitOptions is the optimizer-knob subset a submission may set; zero
// fields keep the server defaults (which are the library defaults).
type SubmitOptions struct {
	// Objective: edp | energy | delay | ed2p (default edp).
	Objective string `json:"objective,omitempty"`
	// Direction: bottom-up | top-down (default bottom-up).
	Direction string `json:"direction,omitempty"`
	// BeamWidth bounds the beam (0 = default).
	BeamWidth int `json:"beam_width,omitempty"`
	// NoPolish disables the final greedy refinement.
	NoPolish bool `json:"no_polish,omitempty"`
	// Threads requests a search worker-pool size. 0 keeps the server's
	// per-job fair share (GOMAXPROCS divided across Workers); a positive
	// value is honored up to that share, so one tenant cannot
	// oversubscribe the box. Results are identical at any value.
	Threads int `json:"threads,omitempty"`
	// AnalyticalSeed / AnalyticalBounds toggle the closed-form analytical
	// layer: the one-shot seed incumbent and the admissible lower-bound
	// pruning. Unset (null) keeps the library default (both on); explicit
	// false opts that half out.
	AnalyticalSeed   *bool `json:"analytical_seed,omitempty"`
	AnalyticalBounds *bool `json:"analytical_bounds,omitempty"`
}

// SubmitRequest is the POST /v1/jobs body. Exactly one workload form —
// workload (serde JSON), describe (the paper's textual syntax), conv, or
// network — must be set; arch is a preset name or arch_json a serde
// document.
type SubmitRequest struct {
	// Tenant attributes the job for admission control ("" = "default").
	Tenant string `json:"tenant,omitempty"`

	Workload json.RawMessage `json:"workload,omitempty"`
	Describe string          `json:"describe,omitempty"`
	Conv     *ConvSpec       `json:"conv,omitempty"`
	Network  *NetworkSpec    `json:"network,omitempty"`

	// Arch names a preset: conventional | simba | diannao | tiny.
	Arch     string          `json:"arch,omitempty"`
	ArchJSON json.RawMessage `json:"arch_json,omitempty"`

	Options *SubmitOptions `json:"options,omitempty"`
	// TimeoutMS is the end-to-end deadline in milliseconds, counted from
	// admission — queue wait included — and propagated into the search's
	// Options.Timeout and context deadline. On expiry the job completes
	// with its best-so-far mapping instead of an error. 0 uses the server
	// default; values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// build materializes the request into a problem: a single workload or, for
// the network form, a layer chain plus its fusion knobs. All validation
// errors are client errors (HTTP 400).
func (r *SubmitRequest) build() (*tensor.Workload, *network.Network, *arch.Arch, core.Options, core.FusionOptions, error) {
	var opt core.Options
	var fopt core.FusionOptions
	forms := 0
	var w *tensor.Workload
	var net *network.Network
	var err error
	if len(r.Workload) > 0 {
		forms++
		w, err = serde.DecodeWorkload(r.Workload)
	}
	if r.Describe != "" {
		forms++
		w, err = tensor.Parse(r.Describe)
	}
	if r.Conv != nil {
		forms++
		c := *r.Conv
		if c.N <= 0 {
			c.N = 1
		}
		if c.StrideH <= 0 {
			c.StrideH = 1
		}
		if c.StrideW <= 0 {
			c.StrideW = 1
		}
		if c.K <= 0 || c.C <= 0 || c.P <= 0 || c.Q <= 0 || c.R <= 0 || c.S <= 0 {
			return nil, nil, nil, opt, fopt, errors.New("conv: every one of K, C, P, Q, R, S must be positive")
		}
		w = workloads.Conv2D("conv", c.N, c.K, c.C, c.P, c.Q, c.R, c.S, c.StrideH, c.StrideW)
	}
	if r.Network != nil {
		forms++
		net, fopt, err = r.Network.build()
	}
	if forms == 0 {
		return nil, nil, nil, opt, fopt, errors.New("no workload: set exactly one of workload, describe, conv, or network")
	}
	if forms > 1 {
		return nil, nil, nil, opt, fopt, errors.New("ambiguous workload: set exactly one of workload, describe, conv, or network")
	}
	if err != nil {
		return nil, nil, nil, opt, fopt, fmt.Errorf("workload: %w", err)
	}

	var a *arch.Arch
	switch {
	case len(r.ArchJSON) > 0:
		if r.Arch != "" {
			return nil, nil, nil, opt, fopt, errors.New("set arch or arch_json, not both")
		}
		a, err = serde.DecodeArch(r.ArchJSON)
		if err != nil {
			return nil, nil, nil, opt, fopt, fmt.Errorf("arch_json: %w", err)
		}
	default:
		a, err = pickArchPreset(r.Arch)
		if err != nil {
			return nil, nil, nil, opt, fopt, err
		}
	}

	if o := r.Options; o != nil {
		switch strings.ToLower(o.Objective) {
		case "", "edp":
		case "energy":
			opt.Objective = core.MinEnergy
		case "delay":
			opt.Objective = core.MinDelay
		case "ed2p":
			opt.Objective = core.MinED2P
		default:
			return nil, nil, nil, opt, fopt, fmt.Errorf("unknown objective %q (edp|energy|delay|ed2p)", o.Objective)
		}
		switch strings.ToLower(o.Direction) {
		case "", "bottom-up":
		case "top-down":
			opt.Direction = core.TopDown
		default:
			return nil, nil, nil, opt, fopt, fmt.Errorf("unknown direction %q (bottom-up|top-down)", o.Direction)
		}
		if o.BeamWidth < 0 {
			return nil, nil, nil, opt, fopt, fmt.Errorf("beam_width %d must be non-negative", o.BeamWidth)
		}
		opt.BeamWidth = o.BeamWidth
		opt.NoPolish = o.NoPolish
		if o.Threads < 0 {
			return nil, nil, nil, opt, fopt, fmt.Errorf("threads %d must be non-negative", o.Threads)
		}
		if o.Threads > core.MaxThreads {
			return nil, nil, nil, opt, fopt, fmt.Errorf("threads %d exceeds the maximum %d", o.Threads, core.MaxThreads)
		}
		opt.Threads = o.Threads
		if o.AnalyticalSeed != nil || o.AnalyticalBounds != nil {
			an := core.AnalyticalOptions{Seed: true, Bounds: true}
			if o.AnalyticalSeed != nil {
				an.Seed = *o.AnalyticalSeed
			}
			if o.AnalyticalBounds != nil {
				an.Bounds = *o.AnalyticalBounds
			}
			opt.Analytical = &an
		}
	}
	if r.TimeoutMS < 0 {
		return nil, nil, nil, opt, fopt, fmt.Errorf("timeout_ms %d must be non-negative", r.TimeoutMS)
	}
	if net != nil && opt.Objective != core.MinEDP {
		return nil, nil, nil, opt, fopt, errors.New("network jobs pick their fusion cut by edp; set objective edp (or leave it unset)")
	}
	return w, net, a, opt, fopt, nil
}

// build materializes the network form into the chain IR plus its fusion
// knobs. A Fused submission schedules with the library-default group cap
// unless MaxGroup narrows it; an unfused one pins MaxGroup to 1, which is
// exactly the per-layer baseline.
func (n *NetworkSpec) build() (*network.Network, core.FusionOptions, error) {
	var fopt core.FusionOptions
	if (n.Preset == "") == (len(n.Layers) == 0) {
		return nil, fopt, errors.New("network: set exactly one of preset or layers")
	}
	if n.MaxGroup < 0 {
		return nil, fopt, fmt.Errorf("network: max_group %d must be non-negative", n.MaxGroup)
	}
	if !n.Fused && n.MaxGroup > 1 {
		return nil, fopt, errors.New("network: max_group needs fused set")
	}
	batch := n.Batch
	if batch < 0 {
		return nil, fopt, fmt.Errorf("network: batch %d must be non-negative", batch)
	}
	if batch == 0 {
		batch = 1
	}

	var net *network.Network
	var err error
	switch strings.ToLower(n.Preset) {
	case "":
		shapes := make([]workloads.ConvShape, len(n.Layers))
		for i, c := range n.Layers {
			if c.N != 0 {
				return nil, fopt, errors.New("network: layer batch comes from the network batch field, not N")
			}
			if c.StrideH <= 0 {
				c.StrideH = 1
			}
			if c.StrideW <= 0 {
				c.StrideW = 1
			}
			if c.K <= 0 || c.C <= 0 || c.P <= 0 || c.Q <= 0 || c.R <= 0 || c.S <= 0 {
				return nil, fopt, fmt.Errorf("network: layer %d: every one of K, C, P, Q, R, S must be positive", i)
			}
			shapes[i] = workloads.ConvShape{
				Name: fmt.Sprintf("conv%d", i),
				K:    c.K, C: c.C, P: c.P, Q: c.Q, R: c.R, S: c.S,
				StrideH: c.StrideH, StrideW: c.StrideW,
			}
		}
		net, err = network.FromConvShapes("network", shapes, batch, nil)
	case "resnet18":
		net, err = network.FromConvShapes("resnet18", workloads.ResNet18, batch, workloads.ResNet18Repeats())
	case "transformer":
		if n.Batch != 0 {
			return nil, fopt, errors.New("network: batch does not apply to the transformer preset")
		}
		net = network.TransformerChain(512, 512, 2048)
	default:
		return nil, fopt, fmt.Errorf("network: unknown preset %q (resnet18|transformer)", n.Preset)
	}
	if err != nil {
		return nil, fopt, fmt.Errorf("network: %w", err)
	}

	if n.Fused {
		fopt.MaxGroup = n.MaxGroup // 0 keeps the library default
	} else {
		fopt.MaxGroup = 1 // all-singleton cut: the per-layer baseline
	}
	return net, fopt, nil
}

// pickArchPreset resolves an architecture preset name ("" = conventional).
func pickArchPreset(name string) (*arch.Arch, error) {
	switch strings.ToLower(name) {
	case "", "conventional":
		return arch.Conventional(), nil
	case "simba":
		return arch.Simba(), nil
	case "diannao":
		return arch.DianNao(), nil
	case "tiny":
		return arch.Tiny(256), nil
	}
	return nil, fmt.Errorf("unknown arch preset %q (conventional|simba|diannao|tiny)", name)
}

// JobStatus is the wire view of a job (GET /v1/jobs/{id}, submit responses,
// the terminal SSE event). Result fields are present only once terminal.
type JobStatus struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	State    JobState `json:"state"`
	Workload string   `json:"workload"`
	Arch     string   `json:"arch"`

	// SubmittedMS/StartedMS/FinishedMS are Unix-epoch milliseconds (0 =
	// not yet); DeadlineMS is the job's absolute end-to-end deadline.
	SubmittedMS int64 `json:"submitted_ms"`
	StartedMS   int64 `json:"started_ms,omitempty"`
	FinishedMS  int64 `json:"finished_ms,omitempty"`
	DeadlineMS  int64 `json:"deadline_ms"`

	EDP      float64 `json:"edp,omitempty"`
	EnergyPJ float64 `json:"energy_pj,omitempty"`
	Cycles   float64 `json:"cycles,omitempty"`
	// Stopped is the search's anytime stop reason (complete | deadline |
	// canceled | budget) once terminal.
	Stopped string `json:"stopped,omitempty"`
	// Attempts counts the resilient path's tries; FallbackUsed names the
	// fallback mapper that produced the mapping ("" = primary search).
	Attempts     int    `json:"attempts,omitempty"`
	FallbackUsed string `json:"fallback_used,omitempty"`
	// Mapping is the serde-encoded best mapping (sunstone/v1 JSON).
	Mapping json.RawMessage `json:"mapping,omitempty"`

	// Network fields, set on network-form jobs only. Fused echoes the
	// submission's knob; UnfusedEDP is the all-singleton baseline solved
	// in the same run; Groups is the chosen fusion cut, one entry per
	// group in chain order (singletons report pin_level -1).
	Network    string                   `json:"network,omitempty"`
	Fused      bool                     `json:"fused,omitempty"`
	UnfusedEDP float64                  `json:"unfused_edp,omitempty"`
	Groups     []serde.NetworkGroupJSON `json:"groups,omitempty"`

	Error string            `json:"error,omitempty"`
	Cause core.FailureCause `json:"cause,omitempty"`
	// WatchdogFired records that the per-job watchdog canceled a stalled
	// search; a done job with it set carries a best-so-far mapping.
	WatchdogFired bool `json:"watchdog_fired,omitempty"`
	// Recovered marks a job replayed from the write-ahead journal after a
	// restart — either re-admitted (it was unfinished) or restored as a
	// terminal record.
	Recovered bool `json:"recovered,omitempty"`
	// CheckpointEDP is the EDP of the job's last journaled best-so-far
	// checkpoint (0 = none). A recovered job warm-starts from that
	// checkpoint, so its final EDP is ≤ CheckpointEDP.
	CheckpointEDP float64 `json:"checkpoint_edp,omitempty"`
}

// Event is one SSE frame on GET /v1/jobs/{id}/events: search progress
// (phase boundaries, incumbent improvements) while running, then a terminal
// frame carrying the full JobStatus.
type Event struct {
	Kind  string `json:"kind"`
	Phase string `json:"phase,omitempty"`
	// Score is the incumbent objective value on incumbent-improved events.
	Score     float64 `json:"score,omitempty"`
	Generated uint64  `json:"generated,omitempty"`
	Evaluated uint64  `json:"evaluated,omitempty"`
	ElapsedMS int64   `json:"elapsed_ms,omitempty"`
	// Job carries the final status on the terminal frame.
	Job *JobStatus `json:"job,omitempty"`
}

// sseFrame is one buffered SSE event: a monotonically increasing per-job
// id (rendered as the SSE "id:" field so clients can resume with
// Last-Event-ID) plus the marshaled Event payload.
type sseFrame struct {
	id   uint64
	data []byte
}

// sseHistory bounds the per-job replay ring for reconnecting subscribers;
// a client further behind than this replays from wherever the ring starts
// (progress frames are advisory — the terminal frame is never dropped).
const sseHistory = 128

// checkpoint is a job's latest journaled best-so-far: the raw journal
// payload (re-emitted verbatim by compaction) and the figures of merit at
// capture time.
type checkpoint struct {
	payload  []byte
	score    float64
	edp      float64
	energyPJ float64
	cycles   float64
}

// job is the server-side record. Mutable fields are guarded by mu; lastBeat
// and flags are atomics because the search goroutine touches them from its
// progress callback.
type job struct {
	id       string
	tenant   string
	w        *tensor.Workload // nil on network-form jobs
	net      *network.Network // nil on single-workload jobs
	fused    bool             // the network submission's fused knob
	fopt     core.FusionOptions
	a        *arch.Arch
	opt      core.Options
	deadline time.Time
	// idemKey is the full dedupe-map key (tenant + NUL + Idempotency-Key)
	// this job is registered under, "" when the client sent none.
	idemKey string
	// recovered marks a job re-admitted from the journal at boot.
	recovered bool

	mu        sync.Mutex
	state     JobState
	submitted time.Time
	started   time.Time
	out       outcome             // the terminal values, set with a terminal state
	nres      *core.NetworkResult // network-form jobs only
	cancel    func()              // cancels the running search; nil until running
	subs      map[chan sseFrame]struct{}
	// evseq numbers SSE frames; history is the bounded replay ring;
	// terminalID is the id the terminal frame carries (assigned with the
	// terminal state, 0 until then).
	evseq      uint64
	history    []sseFrame
	terminalID uint64
	// ckpt is the latest best-so-far checkpoint (zero value = none);
	// submitRec / resultRec are the job's raw journal payloads, kept so
	// compaction can rewrite the live set.
	ckpt      checkpoint
	submitRec []byte
	resultRec []byte
	// restored, when non-nil, is the terminal status replayed from the
	// journal for a job that finished in a previous process life; it is
	// served verbatim and the job never runs again.
	restored *JobStatus

	userCanceled  atomic.Bool
	watchdogFired atomic.Bool
	lastBeat      atomic.Int64 // UnixNano of the last progress sign of life
	done          chan struct{}
}

// outcome is what a job ends with. finalize stages it, makes it durable,
// and only then publishes it together with the terminal state.
type outcome struct {
	finished time.Time
	res      core.Result
	err      error
	cause    core.FailureCause
	mapping  []byte
}

func newJob(id, tenant string, w *tensor.Workload, a *arch.Arch, opt core.Options, deadline, now time.Time) *job {
	return &job{
		id: id, tenant: tenant, w: w, a: a, opt: opt, deadline: deadline,
		state: JobQueued, submitted: now,
		subs: make(map[chan sseFrame]struct{}),
		done: make(chan struct{}),
	}
}

// restoredJob builds the in-memory shell of a journal-restored terminal
// job: status is served from the snapshot, done is already closed.
func restoredJob(st JobStatus) *job {
	j := &job{
		id: st.ID, tenant: st.Tenant, state: st.State,
		subs: make(map[chan sseFrame]struct{}),
		done: make(chan struct{}),
	}
	st.Recovered = true
	j.restored = &st
	close(j.done)
	return j
}

// name is the display workload name: the single workload's, or the layer
// chain's on network-form jobs.
func (j *job) name() string {
	if j.net != nil {
		return j.net.Name
	}
	return j.w.Name
}

// beat records a sign of life for the watchdog.
func (j *job) beat() { j.lastBeat.Store(time.Now().UnixNano()) }

// sinceBeat is the time since the last sign of life.
func (j *job) sinceBeat() time.Duration {
	return time.Duration(time.Now().UnixNano() - j.lastBeat.Load())
}

// status snapshots the wire view.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.restored != nil {
		return *j.restored
	}
	return j.statusLocked(j.state, j.out)
}

// statusLocked renders the wire view the job has in state with outcome o;
// the caller holds j.mu. finalize uses it to journal a terminal status
// before publishing it.
func (j *job) statusLocked(state JobState, o outcome) JobStatus {
	st := JobStatus{
		ID: j.id, Tenant: j.tenant, State: state,
		Workload: j.name(), Arch: j.a.Name,
		SubmittedMS: j.submitted.UnixMilli(),
		DeadlineMS:  j.deadline.UnixMilli(),
	}
	if j.net != nil {
		st.Network = j.net.Name
		st.Fused = j.fused
	}
	if !j.started.IsZero() {
		st.StartedMS = j.started.UnixMilli()
	}
	if !o.finished.IsZero() {
		st.FinishedMS = o.finished.UnixMilli()
	}
	if state.Terminal() {
		if o.res.Mapping != nil {
			st.EDP = o.res.Report.EDP
			st.EnergyPJ = o.res.Report.EnergyPJ
			st.Cycles = o.res.Report.Cycles
		}
		if j.nres != nil {
			st.EDP = j.nres.EDP
			st.EnergyPJ = j.nres.TotalEnergyPJ
			st.Cycles = j.nres.TotalCycles
			st.UnfusedEDP = j.nres.UnfusedEDP
			st.Stopped = j.nres.Stopped.String()
			for _, g := range j.nres.Groups {
				st.Groups = append(st.Groups, serde.NetworkGroupJSON{
					Layers: g.Layers, Start: g.Start, End: g.End,
					PinLevel: g.PinLevel, EnergyPJ: g.EnergyPJ, Cycles: g.Cycles,
				})
			}
		} else {
			st.Stopped = o.res.Stopped.String()
		}
		st.Attempts = len(o.res.Attempts)
		st.FallbackUsed = o.res.FallbackUsed
		st.Mapping = o.mapping
		if o.err != nil {
			st.Error = o.err.Error()
		}
		st.Cause = o.cause
		st.WatchdogFired = j.watchdogFired.Load()
	}
	st.Recovered = j.recovered
	st.CheckpointEDP = j.ckpt.edp
	return st
}

// subscribe registers an SSE listener resuming after frame id lastID (0 =
// from the start). The replay slice holds the buffered frames the client
// missed — taken under the same lock that registers the channel, so the
// handler sees every frame exactly once, no gap and no duplicate. The
// channel is closed when the job reaches a terminal state (a job already
// terminal returns an immediately-closed channel plus any missed replay);
// call off to unsubscribe early.
func (j *job) subscribe(lastID uint64) (ch chan sseFrame, replay []sseFrame, off func()) {
	ch = make(chan sseFrame, 64)
	j.mu.Lock()
	for _, f := range j.history {
		if f.id > lastID {
			replay = append(replay, f)
		}
	}
	if j.state.Terminal() {
		j.mu.Unlock()
		close(ch)
		return ch, replay, func() {}
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, replay, func() {
		j.mu.Lock()
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// publish numbers one frame, records it in the replay ring, and fans it
// out to every subscriber, dropping frames for subscribers whose buffers
// are full — a slow SSE reader loses intermediate progress, never the
// terminal status (the handler renders that itself after the channel
// closes, and a reconnect replays the ring via Last-Event-ID).
func (j *job) publish(frame []byte) {
	j.mu.Lock()
	j.evseq++
	f := sseFrame{id: j.evseq, data: frame}
	if len(j.history) >= sseHistory {
		j.history = append(j.history[:0], j.history[1:]...)
	}
	j.history = append(j.history, f)
	for ch := range j.subs {
		select {
		case ch <- f:
		default:
		}
	}
	j.mu.Unlock()
}

// terminalFrameID returns the id assigned to the terminal SSE frame (0
// until the job is finalized).
func (j *job) terminalFrameID() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminalID
}

// progressFrame renders a search progress event as an SSE payload.
func progressFrame(ev obs.ProgressEvent) []byte {
	b, err := json.Marshal(Event{
		Kind:      ev.Kind.String(),
		Phase:     ev.Phase,
		Score:     ev.Score,
		Generated: ev.Generated,
		Evaluated: ev.Evaluated,
		ElapsedMS: ev.Elapsed.Milliseconds(),
	})
	if err != nil {
		return nil
	}
	return b
}
