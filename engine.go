package sunstone

import (
	"context"

	"sunstone/internal/baselines"
	"sunstone/internal/baselines/registry"
	"sunstone/internal/core"
)

// Engine is a long-lived, goroutine-safe optimizer front end that caches the
// expensive per-(workload, architecture, cost model) compilation artifacts —
// the pruned ordering trie, the factor/divisor ladder tables, the fit-check
// capacity skeleton, the fast-path cost session's tables, and the memoized
// level expansions — across calls. The first Solve for a problem shape
// compiles it; every later call on the same shape (same Engine) reuses the
// compiled artifacts, which is the common case when scheduling a network
// whose layers repeat or when sweeping options over one layer.
//
// The zero-cost alternative remains: the package-level Solve builds the
// same artifacts per call. An Engine never changes *what* is found — results
// are identical to the per-call path, only faster when shapes repeat.
//
// Engines are safe for concurrent use; calls from many goroutines share one
// bounded (LRU-evicted) compilation cache. Searches with Options.Model.Probe
// set bypass the cache (a probe is per-call observation state).
type Engine struct {
	core *core.Engine
}

// NewEngine returns an Engine with the default compilation-cache bound
// (256 problem shapes, evicted least-recently-used).
func NewEngine() *Engine { return &Engine{core: core.NewEngine(0)} }

// NewEngineSize returns an Engine whose compilation cache holds at most
// maxEntries problem shapes; maxEntries <= 0 selects the default bound.
func NewEngineSize(maxEntries int) *Engine { return &Engine{core: core.NewEngine(maxEntries)} }

// EngineStats is a snapshot of an Engine's compilation-cache activity.
type EngineStats = core.EngineStats

// Stats returns a snapshot of the compilation cache: compiles (misses),
// hits, LRU evictions, and the current entry count.
func (e *Engine) Stats() EngineStats { return e.core.Stats() }

// Solve runs the Sunstone optimizer on a Problem under ctx through the
// Engine's compilation cache, with the same anytime contract (and the same
// Options.Retry handling) as the package-level Solve. The cache key is
// derived from the Problem's content (workload, arch, cost model), never
// from pointer identity.
func (e *Engine) Solve(ctx context.Context, p Problem, opt Options) (Result, error) {
	return e.core.Solve(ctx, p, opt)
}

// Baselines returns the same ordered prior-art registry as the package-level
// Baselines, with every mapper that supports it wired to share the Engine's
// cached cost sessions (see BaselineMapper implementations' UseSessions), so
// a head-to-head comparison against an Engine-driven Sunstone run reuses one
// set of per-problem tables instead of rebuilding them per tool.
func (e *Engine) Baselines() []NamedBaseline {
	all := registry.All()
	out := make([]NamedBaseline, len(all))
	for i, ent := range all {
		m := ent.New()
		if s, ok := m.(interface {
			UseSessions(baselines.SessionSource)
		}); ok {
			s.UseSessions(e.core)
		}
		out[i] = NamedBaseline{Name: ent.Name, Mapper: m}
	}
	return out
}
