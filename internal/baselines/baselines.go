// Package baselines defines the common interface implemented by the four
// prior-art mappers the paper compares against — Timeloop (random search),
// dMazeRunner (utilization-threshold directed search), Interstellar
// (CK-preset unrolling), and CoSA (one-shot linear-relaxation) — each rebuilt
// from its published search strategy (see DESIGN.md substitution table).
// Every baseline is scored by the same cost model as Sunstone.
//
// Every mapper also honors the anytime contract (internal/anytime): MapContext
// observes the context's deadline/cancellation, returns the best mapping
// found so far with Result.Stopped set, and never lets a panicking cost-model
// evaluation escape a search thread — so the slow Timeloop/dMazeRunner
// configurations respect the same wall-clock budgets as Sunstone in
// head-to-head experiments.
package baselines

import (
	"context"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/tensor"
)

// Result is the outcome of one baseline mapping run.
type Result struct {
	// Mapping is the best mapping found (may be invalid — the paper's
	// evaluation explicitly reports baselines returning invalid mappings).
	Mapping *mapping.Mapping
	Report  cost.Report
	// Valid mirrors Report.Valid; false means the tool returned a mapping
	// whose tiles do not fit, could not satisfy its own constraints, or
	// does not support the workload.
	Valid bool
	// InvalidReason explains a Valid == false result.
	InvalidReason string
	// Stopped records why the search returned: complete, deadline/canceled
	// (context), or budget (the tool's own termination budget, e.g.
	// Timeloop's MaxTime). A deadline-stopped result still carries the best
	// mapping found before the signal.
	Stopped anytime.StopReason
	// Errors holds panics recovered from the tool's search threads (each an
	// *anytime.PanicError with the offending candidate serialized); the
	// search survives them by discarding the poisoned candidate.
	Errors []error
	// Evaluated counts the candidate mappings the tool examined.
	Evaluated int
	Elapsed   time.Duration
}

// Mapper is a dataflow optimizer under comparison. Map is the legacy
// uninterruptible entry point; MapContext is the anytime form every
// implementation must provide — Map(w, a) must equal
// MapContext(context.Background(), w, a).
type Mapper interface {
	Name() string
	Map(w *tensor.Workload, a *arch.Arch) Result
	MapContext(ctx context.Context, w *tensor.Workload, a *arch.Arch) Result
}

// SessionSource supplies shared fast-path cost sessions. A core.Engine
// satisfies it structurally, so an Engine-held baseline scores candidates
// against the same compiled tables and warm evaluation memo as the main
// search instead of rebuilding both per call. A nil source — or a source
// declining the problem by returning nil — means "build your own".
type SessionSource interface {
	Session(model cost.Model, w *tensor.Workload, a *arch.Arch) *cost.Session
}

// SessionFor resolves the session a mapper should score with: the injected
// source's when available, a freshly built one otherwise. Mappers with a
// Sessions field route every session construction through this.
func SessionFor(src SessionSource, model cost.Model, w *tensor.Workload, a *arch.Arch) *cost.Session {
	if src != nil {
		if s := src.Session(model, w, a); s != nil {
			return s
		}
	}
	return model.NewSession(w, a)
}

// FinalReport materializes the full cost.Report — breakdowns, per-buffer
// accesses — for the winning mapping of a search that scored candidates on
// the scalar path (cost.Evaluator.EvaluateEDP), using an Evaluator of the
// search's own Session. The scalar path already established the mapping's
// objective and validity; this recovers the detailed report for display. A
// cost-model panic here (e.g. an injected probe fault) falls back to a
// Report synthesized from the scalars instead of losing the search's result.
func FinalReport(ev *cost.Evaluator, m *mapping.Mapping, edp, energyPJ, cycles float64, valid bool) (rep cost.Report) {
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), "final report evaluation", m.String); e != nil {
			rep = cost.Report{Valid: valid, EDP: edp, EnergyPJ: energyPJ, Cycles: cycles}
		}
	}()
	return ev.Report(m)
}

// Instrument runs one tool's search under a telemetry span named after the
// tool (a child of the context's span, or a root on its trace), stamping the
// run's outcome — candidates evaluated, validity, stop reason — as span
// arguments. With no trace on the context it is two context lookups and a
// direct call. Every Mapper implementation routes MapContext through this,
// so head-to-head experiment traces show each tool's search as one region.
func Instrument(ctx context.Context, name string, fn func(context.Context) Result) Result {
	ctx, sp := obs.StartSpan(ctx, name)
	res := fn(ctx)
	if sp != nil {
		sp.Arg("evaluated", res.Evaluated).Arg("valid", res.Valid).
			Arg("stopped", res.Stopped.String()).End()
	}
	return res
}

// RunContext adapts a fast, effectively non-interruptible search to the
// MapContext contract: a context that is already done short-circuits to an
// empty stopped result; otherwise fn runs to completion (these mappers are
// one-shot or sub-second, so mid-run polling would buy nothing) and the run
// counts as complete. A panic in fn is contained and reported as an invalid
// result rather than crashing the caller.
func RunContext(ctx context.Context, name string, fn func() Result) (out Result) {
	start := time.Now()
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), name+" search", nil); e != nil {
			out = Result{
				InvalidReason: "search panicked: " + e.Op,
				Errors:        []error{e},
				Elapsed:       time.Since(start),
			}
		}
	}()
	if r := anytime.FromContext(ctx); r != anytime.Complete {
		return Result{
			Stopped:       r,
			InvalidReason: "stopped (" + r.String() + ") before the search started",
			Elapsed:       time.Since(start),
		}
	}
	return fn()
}
