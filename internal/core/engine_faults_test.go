package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/faults"
)

// TestEngineFailedCompileNotCached: a compile that fails with an injected
// error must not be retained — the same problem compiles cleanly once the
// fault clears, on the same Engine.
func TestEngineFailedCompileNotCached(t *testing.T) {
	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)
	e := NewEngine(0)

	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteCompile, Kind: faults.Error, Rate: 1}))
	_, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{})
	var inj *faults.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("want the injected compile error, got %v", err)
	}
	if n := e.Stats().Entries; n != 0 {
		t.Fatalf("failed compile retained in cache: %d entries", n)
	}
	restore()

	if _, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{}); err != nil {
		t.Fatalf("same Engine must recover once the fault clears: %v", err)
	}
	if n := e.Stats().Entries; n != 1 {
		t.Errorf("recovered compile not cached: %d entries", n)
	}
}

// TestEnginePanickedCompileNotPoisoned is the poisoned-sync.Once regression:
// sync.Once marks itself done even when f panics, so without the recover
// inside the once body a panicking compile would cache a (nil, nil) entry
// and every later caller would crash on the nil artifacts. The panic must
// surface as an error, leave no entry behind, and the problem must compile
// cleanly afterwards.
func TestEnginePanickedCompileNotPoisoned(t *testing.T) {
	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)
	e := NewEngine(0)

	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteCompile, Kind: faults.Panic, Rate: 1}))
	_, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{})
	var pe *anytime.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking compile must surface as a contained PanicError, got %v", err)
	}
	if n := e.Stats().Entries; n != 0 {
		t.Fatalf("panicked compile retained in cache: %d entries", n)
	}
	restore()

	res, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{})
	if err != nil || res.Mapping == nil {
		t.Fatalf("Engine poisoned by an earlier compile panic: %v", err)
	}
}

// TestEngineConcurrentFailedCompile drives many same-key callers into an
// always-failing compile (run under -race via `make race`): every caller
// must see an error, none may crash on nil artifacts, the cache must stay
// empty, and the Engine must recover afterwards.
func TestEngineConcurrentFailedCompile(t *testing.T) {
	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)
	e := NewEngine(0)

	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteCompile, Kind: faults.Panic, Rate: 1}))
	const callers = 16
	errCh := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{})
			errCh <- err
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err == nil {
			t.Error("a caller got a nil error from a compile that always panics")
		}
	}
	if n := e.Stats().Entries; n != 0 {
		t.Fatalf("concurrent failed compiles left %d cache entries", n)
	}
	restore()

	if _, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{}); err != nil {
		t.Fatalf("Engine must recover after concurrent failures: %v", err)
	}
}
