// Package registry is the ordered catalog of the prior-art mappers this
// repository rebuilds for the paper's comparison (Section V). It exists so
// the CLIs and the experiment drivers iterate one list instead of each
// hand-maintaining constructor calls; the per-mapper constructors in the
// root package remain as thin wrappers over the same implementations.
//
// It lives below internal/baselines (not inside it) because the mapper
// implementations import their parent package for the Result/Mapper types —
// a registry in internal/baselines itself would be an import cycle.
package registry

import (
	"sunstone/internal/baselines"
	"sunstone/internal/baselines/cosa"
	"sunstone/internal/baselines/dmaze"
	"sunstone/internal/baselines/fixed"
	"sunstone/internal/baselines/innermost"
	"sunstone/internal/baselines/interstellar"
	"sunstone/internal/baselines/marvel"
	"sunstone/internal/baselines/timeloop"
)

// Entry is one catalog row.
type Entry struct {
	// Name is the stable registry key: lowercase, flag-friendly (what
	// cmd/sunstone -baselines accepts).
	Name string
	// New constructs a fresh mapper in its paper-default configuration.
	// Mappers are cheap to build; callers wanting a non-default budget
	// (e.g. the experiment drivers' scaled Timeloop wall-clocks) construct
	// one and adjust its exported configuration.
	New func() baselines.Mapper
}

// All returns the catalog in canonical comparison order: the search-based
// tools first (Table V fast/slow pairs), then the one-shot analytic tools,
// then the fixed-dataflow reference points. The returned slice is fresh on
// every call; callers may reorder or filter it freely.
func All() []Entry {
	return []Entry{
		{"timeloop-fast", func() baselines.Mapper { return timeloop.New(timeloop.Fast()) }},
		{"timeloop-slow", func() baselines.Mapper { return timeloop.New(timeloop.Slow()) }},
		{"dmaze-fast", func() baselines.Mapper { return dmaze.New(dmaze.Fast()) }},
		{"dmaze-slow", func() baselines.Mapper { return dmaze.New(dmaze.Slow()) }},
		{"interstellar", func() baselines.Mapper { return interstellar.New() }},
		{"cosa", func() baselines.Mapper { return cosa.New() }},
		{"marvel", func() baselines.Mapper { return marvel.New() }},
		{"weight-stationary", func() baselines.Mapper { return fixed.New(fixed.WeightStationary) }},
		{"output-stationary", func() baselines.Mapper { return fixed.New(fixed.OutputStationary) }},
		{"input-stationary", func() baselines.Mapper { return fixed.New(fixed.InputStationary) }},
	}
}

// Fallbacks returns the degraded-mode mappers the resilient scheduling path
// (core.Options.Retry) falls back to when the primary search keeps
// failing: a deliberately short Timeloop-style random sweep, then the
// guaranteed-feasible innermost-fit construction. They are not part of the
// paper's comparison set, so All() excludes them — experiment drivers and
// the -baselines CLI iterate the comparison unchanged — but Lookup resolves
// both catalogs.
func Fallbacks() []Entry {
	return []Entry{
		{"timeloop-random-lite", func() baselines.Mapper { return timeloop.New(timeloop.Lite()) }},
		{"innermost-fit", func() baselines.Mapper { return innermost.New() }},
	}
}

// Lookup finds an entry by registry name in the comparison catalog (All) or
// the degraded-mode fallback catalog (Fallbacks).
func Lookup(name string) (Entry, bool) {
	for _, e := range append(All(), Fallbacks()...) {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names returns every registry name in catalog order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.Name
	}
	return out
}
