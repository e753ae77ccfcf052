package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Trace collects completed spans for export in the Chrome trace-event
// format (the JSON consumed by chrome://tracing and ui.perfetto.dev).
// One Trace spans a whole invocation — a CLI run, a network schedule —
// and is safe for concurrent use: each root span gets its own Chrome
// "thread" row, so the concurrent jobs of the scheduler service render as
// parallel tracks.
type Trace struct {
	start   time.Time
	nextTID atomic.Int64

	mu     sync.Mutex
	events []traceEvent
}

// traceEvent is one Chrome "complete" (ph=X) or "metadata" (ph=M) event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// StartRoot opens a top-level span on a fresh Chrome thread row. Use
// Span.Child for everything nested; most callers never call StartRoot
// directly — StartSpan on a context with a Trace does.
func (t *Trace) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	tid := t.nextTID.Add(1)
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
		Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
	return &Span{t: t, name: name, tid: tid, start: time.Since(t.start)}
}

// tracePID is the synthetic process id every event carries (the trace spans
// one process).
const tracePID = 1

// Span is one timed region. A nil *Span is valid and inert, so callers can
// unconditionally Child/Arg/End whatever StartSpan returned.
type Span struct {
	t     *Trace
	name  string
	tid   int64
	start time.Duration
	mu    sync.Mutex
	args  map[string]any
	ended bool
}

// Child opens a nested span on the same thread row.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, name: name, tid: s.tid, start: time.Since(s.t.start)}
}

// Arg attaches a key/value pair shown in the trace viewer's detail pane.
// It returns s for chaining.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = value
	s.mu.Unlock()
	return s
}

// End closes the span and records it on the trace. End is idempotent; a
// second call is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	args := s.args
	s.mu.Unlock()
	end := time.Since(s.t.start)
	s.t.mu.Lock()
	s.t.events = append(s.t.events, traceEvent{
		Name: s.name, Ph: "X",
		TS:  float64(s.start.Nanoseconds()) / 1e3,
		Dur: float64((end - s.start).Nanoseconds()) / 1e3,
		PID: tracePID, TID: s.tid, Args: args,
	})
	s.t.mu.Unlock()
}

// chromeTrace is the JSON object format of the trace-event specification
// ({"traceEvents": [...]} — the array format is also legal, but the object
// form lets viewers pick a display unit).
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON renders every recorded span as Chrome trace-event JSON. Spans
// still open are not exported — End them first.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteJSON on a nil trace")
	}
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// Events returns the number of recorded events (spans plus metadata).
func (t *Trace) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Context threading. The trace and the current span ride the context, so
// the optimizer, the baselines and the network scheduler join one span tree
// without any signature changes.

type traceKey struct{}
type spanKey struct{}

// WithTrace returns a context carrying t; every StartSpan below it records
// into t. A nil t returns ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceOf returns the context's trace, or nil.
func TraceOf(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// WithSpan returns a context whose current span is sp, so StartSpan below it
// creates children of sp. Used when a span must live on its own trace thread
// row (Trace.StartRoot) yet still parent the work under a derived context —
// e.g. the scheduler service giving each concurrent job its own row. A nil
// sp returns ctx unchanged.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanOf returns the context's current span, or nil.
func SpanOf(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a span named name: a child of the context's current span
// when one exists, else a root on the context's trace. It returns the
// (possibly updated) context and the span; with no trace installed it
// returns ctx unchanged and a nil span, costing two context lookups and
// nothing else.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent := SpanOf(ctx); parent != nil {
		sp := parent.Child(name)
		return context.WithValue(ctx, spanKey{}, sp), sp
	}
	t := TraceOf(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := t.StartRoot(name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartSpanf is StartSpan with a deferred Sprintf: the name is formatted
// only when a trace is installed, so hot paths pay nothing when tracing is
// off.
func StartSpanf(ctx context.Context, format string, args ...any) (context.Context, *Span) {
	if TraceOf(ctx) == nil {
		return ctx, nil
	}
	return StartSpan(ctx, fmt.Sprintf(format, args...))
}

// Enabled reports whether ctx carries a trace (useful to skip building
// expensive span arguments).
func Enabled(ctx context.Context) bool { return TraceOf(ctx) != nil }
