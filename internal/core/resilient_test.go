package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/faults"
)

// mustInjector builds an injector or fails the test.
func mustInjector(t *testing.T, seed int64, rules ...faults.Rule) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestResilientMatchesPlain is the no-fault identity: with injection
// disabled, the Options.Retry path accepts the primary search's first
// attempt and its result is bit-identical to the plain Engine path, plus the
// attempt record.
func TestResilientMatchesPlain(t *testing.T) {
	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)

	plain, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, withRetry(Options{}, RetryPolicy{}))
	if err != nil {
		t.Fatal(err)
	}

	if res.Mapping.String() != plain.Mapping.String() {
		t.Errorf("resilient mapping differs:\nplain:\n%s\nresilient:\n%s", plain.Mapping, res.Mapping)
	}
	if res.Report.EDP != plain.Report.EDP || res.Report.EnergyPJ != plain.Report.EnergyPJ || res.Report.Cycles != plain.Report.Cycles {
		t.Errorf("resilient report differs: %+v vs %+v", res.Report, plain.Report)
	}
	if res.Stopped != plain.Stopped || res.SpaceSize != plain.SpaceSize {
		t.Errorf("resilient run shape differs: stopped %v/%v, space %d/%d",
			res.Stopped, plain.Stopped, res.SpaceSize, plain.SpaceSize)
	}
	if res.FallbackUsed != "" {
		t.Errorf("FallbackUsed = %q on a clean run", res.FallbackUsed)
	}
	if len(res.Attempts) != 1 || res.Attempts[0].Mapper != "sunstone" || res.Attempts[0].Err != nil {
		t.Errorf("Attempts = %+v, want one clean sunstone attempt", res.Attempts)
	}
}

// TestResilientFallsBackOnCompileFaults forces every compile to fail: all
// primary attempts reject with the injected error and the first fallback
// (timeloop-random-lite, which builds its session without the compile path)
// produces the accepted, audited mapping.
func TestResilientFallsBackOnCompileFaults(t *testing.T) {
	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteCompile, Kind: faults.Error, Rate: 1}))
	defer restore()

	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)
	res, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, withRetry(Options{}, RetryPolicy{}))
	if err != nil {
		t.Fatalf("resilient run must survive compile faults: %v", err)
	}
	if res.FallbackUsed != "timeloop-random-lite" {
		t.Errorf("FallbackUsed = %q, want timeloop-random-lite", res.FallbackUsed)
	}
	if len(res.Attempts) != 4 { // 3 failed primaries + 1 accepted fallback
		t.Errorf("Attempts = %d, want 4: %+v", len(res.Attempts), res.Attempts)
	}
	for i, at := range res.Attempts[:len(res.Attempts)-1] {
		if at.Mapper != "sunstone" {
			t.Errorf("attempt %d: mapper %q, want sunstone", i, at.Mapper)
		}
		var inj *faults.InjectedError
		if !errors.As(at.Err, &inj) || inj.Site != faults.SiteCompile {
			t.Errorf("attempt %d: error %v is not the injected compile fault", i, at.Err)
		}
	}
	if last := res.Attempts[len(res.Attempts)-1]; last.Err != nil || last.Mapper != res.FallbackUsed {
		t.Errorf("accepted attempt = %+v", last)
	}
	if res.Mapping == nil || res.Mapping.Validate() != nil || !res.Report.Valid {
		t.Fatalf("fallback result is not an audited valid mapping: %+v", res.Report)
	}
}

// TestResilientExhaustsWhenEvaluationIsDead arms a 100% evaluation panic:
// no mapper can produce an audit-passing result (the audit's own evaluation
// always dies), so the run must exhaust its attempt budget and report every
// attempt, not hang or crash.
func TestResilientExhaustsWhenEvaluationIsDead(t *testing.T) {
	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteEvaluate, Kind: faults.Panic, Rate: 1}))
	defer restore()

	w := conv1D(t, 4, 4, 8, 3)
	a := arch.Tiny(256)
	pol := RetryPolicy{Retries: -1, FallbackTries: 1, MaxAttempts: 4}
	res, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, withRetry(Options{}, pol))
	if err == nil {
		t.Fatal("a dead cost model cannot yield an audited mapping")
	}
	if len(res.Attempts) != 4 {
		t.Errorf("Attempts = %d, want the MaxAttempts cap 4: %+v", len(res.Attempts), res.Attempts)
	}
	for i, at := range res.Attempts {
		if at.Err == nil {
			t.Errorf("attempt %d recorded no error on an exhausted run", i)
		}
	}
	if res.FallbackUsed != "" || res.Mapping != nil {
		t.Errorf("exhausted run must not claim a result: fallback %q, mapping %v", res.FallbackUsed, res.Mapping)
	}
}

// TestResilientSurvivesExpansionPanics arms a 100% expansion fault: the
// primary search dies by panic on every attempt (contained to the attempt),
// and the fallback chain still delivers an audited mapping.
func TestResilientSurvivesExpansionPanics(t *testing.T) {
	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, Rate: 1}))
	defer restore()

	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)
	res, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, withRetry(Options{}, RetryPolicy{}))
	if err != nil {
		t.Fatalf("resilient run must survive expansion panics: %v", err)
	}
	if res.FallbackUsed == "" {
		t.Error("a dead primary search must be served by a fallback")
	}
	for _, at := range res.Attempts {
		if at.Mapper != "sunstone" {
			continue
		}
		var pe *anytime.PanicError
		if !errors.As(at.Err, &pe) {
			t.Errorf("primary attempt error %v should be a contained panic", at.Err)
		}
	}
	if res.Mapping == nil || res.Mapping.Validate() != nil {
		t.Fatal("fallback mapping missing or invalid")
	}
}

// TestResilientUnknownFallback: a policy naming a nonexistent mapper burns
// its fallback attempts with clear errors instead of panicking.
func TestResilientUnknownFallback(t *testing.T) {
	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteCompile, Kind: faults.Error, Rate: 1}))
	defer restore()

	w := conv1D(t, 4, 4, 8, 3)
	a := arch.Tiny(256)
	pol := RetryPolicy{Retries: -1, Fallbacks: []string{"no-such-mapper"}, FallbackTries: 1, MaxAttempts: 2}
	_, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, withRetry(Options{}, pol))
	if err == nil || !strings.Contains(err.Error(), `unknown fallback mapper "no-such-mapper"`) {
		t.Fatalf("want unknown-fallback error, got %v", err)
	}
}

// TestShrinkOptions pins the backoff arithmetic: halved budgets, floor 1.
func TestShrinkOptions(t *testing.T) {
	o := shrinkOptions(Options{BeamWidth: 24, TilesPerStep: 8, UnrollsPerStep: 1, TopDownVisitBudget: 9}, 0.5)
	if o.BeamWidth != 12 || o.TilesPerStep != 4 || o.UnrollsPerStep != 1 || o.TopDownVisitBudget != 4 {
		t.Errorf("shrunk options = %+v", o)
	}
}

// withRetry returns opt with pol installed as its Options.Retry.
func withRetry(opt Options, pol RetryPolicy) Options {
	opt.Retry = &pol
	return opt
}
