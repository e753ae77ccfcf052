package sunstone

import (
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/registry"
	"sunstone/internal/core"
	"sunstone/internal/faults"
)

// Graceful degradation: re-exports of the resilient optimization path (see
// internal/core/resilient.go and DESIGN.md "Fault tolerance & graceful
// degradation").

type (
	// RetryPolicy configures the graceful-degradation path a search takes
	// when Options.Retry is set: primary retries with budget backoff, the
	// fallback-mapper chain, and the attempt cap. The zero value selects
	// DefaultRetryPolicy.
	RetryPolicy = core.RetryPolicy
	// Attempt is one recorded try of the resilient path (Result.Attempts).
	Attempt = core.Attempt
	// InjectedFault is the error produced by a deterministic chaos fault
	// (internal/faults); CauseOf classifies errors carrying one as
	// CauseInjected.
	InjectedFault = faults.InjectedError
)

// DefaultRetryPolicy returns the default graceful-degradation policy: two
// primary retries at half budgets each, then the
// timeloop-random-lite -> innermost-fit fallback chain, at most 32 attempts.
func DefaultRetryPolicy() RetryPolicy { return core.DefaultRetryPolicy() }

// Open the whole baseline registry — comparison mappers and the degraded-
// mode fallbacks — as RetryPolicy.Fallbacks candidates. The core package
// only knows its built-in chain (its mapper dependencies must stay acyclic
// with the baseline packages' tests); this root package sees everything.
func init() {
	core.RegisterFallbackResolver(func(name string) (baselines.Mapper, bool) {
		ent, ok := registry.Lookup(name)
		if !ok {
			return nil, false
		}
		return ent.New(), true
	})
}
