package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/innermost"
	"sunstone/internal/baselines/timeloop"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/tensor"
)

// This file implements the graceful-degradation path: bounded retries of the
// primary search with shrinking budgets, a configurable fallback-mapper
// chain ending in a guaranteed-feasible construction, and a final mapping
// audit that no result — primary or fallback — escapes without passing.

// RetryPolicy configures the graceful-degradation path (Options.Retry). The
// zero value selects the defaults (DefaultRetryPolicy); negative Retries
// disables primary retries.
type RetryPolicy struct {
	// Retries is how many times the primary Sunstone search is retried after
	// its first failed attempt, each retry with Backoff-shrunk budgets
	// (0 = default 2; negative = no retries).
	Retries int
	// Backoff multiplies BeamWidth, TilesPerStep, UnrollsPerStep and
	// TopDownVisitBudget on every primary retry (floor 1 each), so a search
	// that failed by deadline or injected fault re-runs cheaper and faster
	// (0 = default 0.5).
	Backoff float64
	// Fallbacks is the ordered chain of degraded-mode mappers (registry
	// names, see internal/baselines/registry.Fallbacks) tried after the
	// primary attempts are exhausted. The last entry is cycled until
	// MaxAttempts, so it should be a mapper that cannot fail — the default
	// chain is {"timeloop-random-lite", "innermost-fit"}. Nil selects the
	// default; an empty non-nil slice disables fallbacks.
	Fallbacks []string
	// FallbackTries is how many attempts each fallback gets before the chain
	// advances (0 = default 2).
	FallbackTries int
	// MaxAttempts caps the total attempts — primaries, retries and fallbacks
	// together — as the hard stop of the whole resilient run (0 = default 32).
	MaxAttempts int
	// NoAudit skips the final mapping audit (structural validation, full
	// cost-model evaluation, fast-path cross-check) before a result is
	// accepted. Only for benchmarking the audit's overhead; the audit is the
	// resilience guarantee.
	NoAudit bool
}

// DefaultRetryPolicy returns the default graceful-degradation policy, spelled
// out. The zero RetryPolicy is equivalent.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Retries:       2,
		Backoff:       0.5,
		Fallbacks:     []string{"timeloop-random-lite", "innermost-fit"},
		FallbackTries: 2,
		MaxAttempts:   32,
	}
}

// withDefaults fills every zero field from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.Retries == 0 {
		p.Retries = def.Retries
	} else if p.Retries < 0 {
		p.Retries = 0
	}
	if p.Backoff <= 0 || p.Backoff >= 1 {
		p.Backoff = def.Backoff
	}
	if p.Fallbacks == nil {
		p.Fallbacks = def.Fallbacks
	}
	if p.FallbackTries <= 0 {
		p.FallbackTries = def.FallbackTries
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	return p
}

// Attempt is one recorded try of the resilient path.
type Attempt struct {
	// Mapper is "sunstone" for primary attempts, otherwise the fallback
	// registry name.
	Mapper string
	// Stopped is the attempt's anytime stop reason.
	Stopped StopReason
	// Err is why the attempt was rejected — a search failure, a contained
	// panic, or an audit failure. Nil on the accepted (final) attempt.
	Err     error
	Elapsed time.Duration
}

// primaryName is the Attempt.Mapper value for the Sunstone search itself.
const primaryName = "sunstone"

// solveResilient is Engine.Solve hardened for environments where searches
// can fail — injected chaos faults, poisoned cost models, expired deadlines,
// panicking dependencies. opt is validated and defaulted, its Model resolved
// and its Retry non-nil. It never gives up while the policy has attempts
// left:
//
//  1. the primary Sunstone search runs, then up to Retries retries with
//     Backoff-shrunk budgets;
//  2. the Fallbacks chain runs in order, the last entry cycling until
//     MaxAttempts (the default chain ends in innermost-fit, which cannot
//     fail on any workload/arch pair that admits a legal mapping);
//  3. every candidate result passes the final mapping audit — structural
//     validation, a full cost-model evaluation, and a bit-exact fast-path
//     cross-check — before it is returned; an audit failure is a failed
//     attempt like any other.
//
// Every attempt is recorded in Result.Attempts (accepted attempt last, nil
// Err); Result.FallbackUsed names the fallback that produced the mapping
// ("" = primary). A panic anywhere in an attempt is contained to that
// attempt. The error return is non-nil only when every attempt failed.
func (e *Engine) solveResilient(ctx context.Context, p Problem, opt Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err // no retry or fallback can repair invalid inputs
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pol := opt.Retry.withDefaults()
	opt.Retry = nil
	w, a := p.Workload, p.Arch
	ctx, span := obs.StartSpanf(ctx, "resilient %s", w.Name)

	var attempts []Attempt
	var errs []error
	finish := func(res Result, acc Attempt, fallback string) (Result, error) {
		acc.Err = nil
		res.Attempts = append(attempts, acc)
		res.FallbackUsed = fallback
		span.Arg("attempts", len(res.Attempts)).Arg("fallback", fallback).End()
		return res, nil
	}
	reject := func(acc Attempt, err error) {
		acc.Err = err
		attempts = append(attempts, acc)
		errs = append(errs, fmt.Errorf("attempt %d (%s): %w", len(attempts), acc.Mapper, err))
	}

	// Phase 1: the primary search, with budget backoff between retries.
	curOpt := opt
	for try := 0; try <= pol.Retries && len(attempts) < pol.MaxAttempts; try++ {
		start := time.Now()
		res, err := e.attemptPrimary(ctx, p, curOpt)
		acc := Attempt{Mapper: primaryName, Stopped: res.Stopped, Elapsed: time.Since(start)}
		if err == nil {
			if pol.NoAudit {
				return finish(res, acc, "")
			}
			rep, aerr := e.audit(w, a, curOpt.Model, res.Mapping)
			if aerr == nil {
				res.Report = rep
				return finish(res, acc, "")
			}
			err = aerr
		}
		reject(acc, err)
		if ctx.Err() != nil {
			break // canceled callers get the fallback chain, not more full searches
		}
		curOpt = shrinkOptions(curOpt, pol.Backoff)
	}

	// Phase 2: the fallback chain; the last entry cycles until MaxAttempts.
	for fi := 0; len(pol.Fallbacks) > 0 && len(attempts) < pol.MaxAttempts; fi++ {
		idx := fi / pol.FallbackTries
		if idx >= len(pol.Fallbacks) {
			idx = len(pol.Fallbacks) - 1
		}
		name := pol.Fallbacks[idx]
		start := time.Now()
		res, err := e.attemptFallback(ctx, w, a, opt.Model, name)
		acc := Attempt{Mapper: name, Stopped: res.Stopped, Elapsed: time.Since(start)}
		if err == nil {
			if pol.NoAudit {
				return finish(res, acc, name)
			}
			rep, aerr := e.audit(w, a, opt.Model, res.Mapping)
			if aerr == nil {
				res.Report = rep
				return finish(res, acc, name)
			}
			err = aerr
		}
		reject(acc, err)
	}

	span.Arg("attempts", len(attempts)).Arg("fallback", "exhausted").End()
	return Result{Attempts: attempts, Stopped: anytime.FromContext(ctx)},
		fmt.Errorf("resilient optimization exhausted %d attempts: %w", len(attempts), errors.Join(errs...))
}

// attemptPrimary runs one primary search with panic containment: an injected
// expansion fault (or any other panic escaping the search driver) becomes a
// failed attempt instead of crashing the caller.
func (e *Engine) attemptPrimary(ctx context.Context, p Problem, opt Options) (res Result, err error) {
	defer func() {
		if pe := anytime.PanicErrorFrom(recover(), "resilient primary search", nil); pe != nil {
			res, err = Result{Stopped: anytime.FromContext(ctx)}, pe
		}
	}()
	res, err = e.Solve(ctx, p, opt)
	if err == nil && res.Mapping == nil {
		err = errors.New("search returned no mapping")
	}
	return res, err
}

// FallbackResolver turns a fallback registry name into a fresh mapper.
type FallbackResolver func(name string) (baselines.Mapper, bool)

// extraFallbacks is an optional installed resolver consulted before the
// built-in chain, so the root package can open the whole baseline registry
// as fallback candidates without this package importing it (the registry's
// mapper packages have tests that import core — a test import cycle).
var extraFallbacks atomic.Pointer[FallbackResolver]

// RegisterFallbackResolver installs fn as the first-consulted fallback-name
// resolver (the built-in chain remains as the fallback's fallback). Call it
// from an init function; the last registration wins.
func RegisterFallbackResolver(fn FallbackResolver) { extraFallbacks.Store(&fn) }

// fallbackMapper resolves a fallback name: the installed resolver first,
// then the built-in degraded-mode chain.
func fallbackMapper(name string) (baselines.Mapper, bool) {
	if fn := extraFallbacks.Load(); fn != nil {
		if m, ok := (*fn)(name); ok {
			return m, true
		}
	}
	switch name {
	case "timeloop-random-lite":
		return timeloop.New(timeloop.Lite()), true
	case "innermost-fit":
		return innermost.New(), true
	}
	return nil, false
}

// attemptFallback runs one degraded-mode mapper from the registry, sharing
// the Engine's compiled cost sessions, with panic containment.
func (e *Engine) attemptFallback(ctx context.Context, w *tensor.Workload, a *arch.Arch, model cost.Model, name string) (res Result, err error) {
	m, ok := fallbackMapper(name)
	if !ok {
		return Result{}, fmt.Errorf("unknown fallback mapper %q", name)
	}
	if s, ok := m.(interface {
		UseSessions(baselines.SessionSource)
	}); ok {
		s.UseSessions(e)
	}
	defer func() {
		if pe := anytime.PanicErrorFrom(recover(), "fallback mapper "+name, nil); pe != nil {
			res, err = Result{Stopped: anytime.FromContext(ctx)}, pe
		}
	}()
	bres := m.MapContext(ctx, w, a)
	res = Result{Mapping: bres.Mapping, Report: bres.Report, Stopped: bres.Stopped, SpaceSize: bres.Evaluated}
	if bres.Mapping == nil {
		reason := bres.InvalidReason
		if reason == "" {
			reason = "no mapping produced"
		}
		return res, fmt.Errorf("fallback %s: %s", name, reason)
	}
	// An invalid-flagged fallback mapping is still offered to the audit: the
	// flag may be a contained scoring panic, and the audit's own evaluation
	// is the authority on acceptance.
	return res, nil
}

// shrinkOptions applies one backoff step to the search budgets (floor 1), so
// each retry explores a smaller, faster space.
func shrinkOptions(o Options, f float64) Options {
	scale := func(v int) int {
		s := int(float64(v) * f)
		if s < 1 {
			s = 1
		}
		return s
	}
	o.BeamWidth = scale(o.BeamWidth)
	o.TilesPerStep = scale(o.TilesPerStep)
	o.UnrollsPerStep = scale(o.UnrollsPerStep)
	o.TopDownVisitBudget = scale(o.TopDownVisitBudget)
	return o
}

// audit is the final gate every resilient result must pass:
//
//  1. structural legality — mapping.Validate covers factor coverage, buffer
//     capacity (the fit check), fanout and spatial-reduction legality;
//  2. a Report on the problem's Session must succeed and report Valid.
//
// The audit's own Report becomes the result's Report, so the numbers a
// caller sees are exactly the audited ones. Any failure — including a panic
// inside the audit itself, contained by safeReport — rejects the attempt
// and the retry loop moves on.
func (e *Engine) audit(w *tensor.Workload, a *arch.Arch, model cost.Model, m *mapping.Mapping) (cost.Report, error) {
	if m == nil {
		return cost.Report{}, errors.New("audit: no mapping produced")
	}
	if err := m.Validate(); err != nil {
		return cost.Report{}, fmt.Errorf("audit: mapping fails validation: %w", err)
	}
	sess := e.Session(model, w, a)
	if sess == nil {
		// The Engine declined (an injected compile fault, say); a fresh
		// session has no chaos hook on construction and always works.
		sess = model.NewSession(w, a)
	}
	rep, err := safeReport(sess.NewEvaluator(), m)
	if err != nil {
		return cost.Report{}, fmt.Errorf("audit: full evaluation failed: %w", err)
	}
	if !rep.Valid {
		return cost.Report{}, fmt.Errorf("audit: mapping evaluates invalid: %v", rep.Invalid)
	}
	return rep, nil
}
