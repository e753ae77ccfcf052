package sunstone_test

import (
	"context"
	"errors"
	"testing"

	"sunstone"
	"sunstone/internal/faults"
)

// TestScheduleNetworkClassifiesInjectedFailures: without resilience, a 100%
// compile fault fails every layer, and each LayerError classifies as
// CauseInjected with the *InjectedFault reachable through errors.As.
func TestScheduleNetworkClassifiesInjectedFailures(t *testing.T) {
	inj, err := faults.NewInjector(7,
		faults.Rule{Site: faults.SiteCompile, Kind: faults.Error, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(inj)
	defer restore()

	sched, err := scheduleShapes(t, context.Background(), smallNet(), sunstone.Tiny(256), sunstone.NetworkOptions{ContinueOnError: true})
	if err == nil || sched.Failed != len(sched.Layers) {
		t.Fatalf("every layer must fail on a dead compiler: err=%v failed=%d", err, sched.Failed)
	}
	for _, l := range sched.Layers {
		if got := sunstone.CauseOf(l.Err); got != sunstone.CauseInjected {
			t.Errorf("layer %s: cause %q, want %q (err: %v)", l.Layer, got, sunstone.CauseInjected, l.Err)
		}
		var ie *sunstone.InjectedFault
		if !errors.As(l.Err, &ie) || ie.Site != faults.SiteCompile {
			t.Errorf("layer %s: injected fault not reachable via errors.As: %v", l.Layer, l.Err)
		}
	}
}

// TestScheduleNetworkClassifiesPanicFailures: a poisoned cost model (not an
// injected chaos fault) classifies as CausePanic.
func TestScheduleNetworkClassifiesPanicFailures(t *testing.T) {
	sched, err := scheduleShapes(t, context.Background(), smallNet(), sunstone.Tiny(256), sunstone.NetworkOptions{Options: poisonedOptions("b"), ContinueOnError: true})
	if err == nil {
		t.Fatal("poisoned layer must surface as an error")
	}
	for _, l := range sched.Layers {
		if l.Layer != "b" {
			continue
		}
		if got := sunstone.CauseOf(l.Err); got != sunstone.CausePanic {
			t.Errorf("poisoned layer: cause %q, want %q (err: %v)", got, sunstone.CausePanic, l.Err)
		}
	}
}

// TestScheduleNetworkResilientSurvivesInjectedFailures is the degraded-mode
// counterpart: the same 100% compile fault, but with Options.Retry set the
// schedule succeeds — every layer degrades to the first fallback (which
// builds its cost session without the engine's compile path) and records its
// failed primary attempts.
func TestScheduleNetworkResilientSurvivesInjectedFailures(t *testing.T) {
	inj, err := faults.NewInjector(7,
		faults.Rule{Site: faults.SiteCompile, Kind: faults.Error, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(inj)
	defer restore()

	sched, err := scheduleShapes(t, context.Background(), smallNet(), sunstone.Tiny(256), sunstone.NetworkOptions{Options: sunstone.Options{Retry: &sunstone.RetryPolicy{}}})
	if err != nil {
		t.Fatalf("resilient schedule must survive compile faults: %v", err)
	}
	if sched.Failed != 0 {
		t.Fatalf("Failed = %d, want 0", sched.Failed)
	}
	for _, l := range sched.Layers {
		res := l.Result
		if res.FallbackUsed != "timeloop-random-lite" {
			t.Errorf("layer %s: FallbackUsed = %q, want timeloop-random-lite", l.Layer, res.FallbackUsed)
		}
		if res.Mapping == nil || res.Mapping.Validate() != nil || !res.Report.Valid {
			t.Errorf("layer %s: fallback did not deliver an audited valid mapping", l.Layer)
		}
		if len(res.Attempts) < 2 {
			t.Errorf("layer %s: Attempts = %+v, want failed primaries then the fallback", l.Layer, res.Attempts)
		}
	}
	if sched.TotalEnergyPJ <= 0 || sched.EDP <= 0 {
		t.Error("degraded schedule should still report network totals")
	}
}
