package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"sunstone/internal/obs"
)

// Layer self time. The program already records spans through
// sunstone.WithTrace (optimize, orderings, level N, enumerate, evaluate,
// polish, fuse, and a root per service job); the benchmark only reads them.
// A span's self time is its duration minus the union of its children's
// intervals, so parallel children (fused member searches) count once.

// Span kinds, one per layer the benchmark reports.
const (
	kindOrder     = "order"     // "orderings": internal/order trie walk
	kindEnumerate = "enumerate" // internal/tile + internal/unroll inside a level step
	kindEvaluate  = "evaluate"  // internal/cost scoring of a level's candidates
	kindPolish    = "polish"    // internal/core greedy refinement
	kindFuse      = "fuse"      // internal/core fusion DP (member searches are children)
	kindOther     = "other"     // optimize/level/resilient/job bookkeeping, compile, seed
)

// spanKind maps a program span name to the layer it times.
func spanKind(name string) string {
	switch {
	case name == "orderings":
		return kindOrder
	case name == "enumerate":
		return kindEnumerate
	case name == "evaluate":
		return kindEvaluate
	case name == "polish":
		return kindPolish
	case strings.HasPrefix(name, "fuse "):
		return kindFuse
	}
	return kindOther
}

// parentRank orders span names by nesting depth, so a span can only be
// parented by a span of strictly lower rank. Spans on one trace row carry no
// parent ids, and the fused solver runs member searches in parallel on its
// row, so time containment alone could parent a member's level under a
// sibling member; the rank rule keeps the attribution to the right layer.
func parentRank(name string) int {
	switch {
	case name == "bench-op":
		return 0
	case strings.HasPrefix(name, "job "):
		return 1
	case strings.HasPrefix(name, "fuse "):
		return 2
	case strings.HasPrefix(name, "resilient "):
		return 3
	case strings.HasPrefix(name, "optimize "):
		return 4
	case name == "orderings", name == "polish", strings.HasPrefix(name, "level "):
		return 5
	}
	return 6
}

// span is one completed span on one trace row.
type span struct {
	name string
	row  int64
	iv   interval
}

// traceSpans decodes the completed spans of t.
func traceSpans(t *obs.Trace) ([]span, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	out := make([]span, 0, len(doc.TraceEvents))
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		// Microsecond floats carry whole nanoseconds; round them back so a
		// child ending with its parent stays contained.
		start := time.Duration(math.Round(ev.TS * 1e3))
		out = append(out, span{name: ev.Name, row: ev.TID, iv: interval{start, start + time.Duration(math.Round(ev.Dur*1e3))}})
	}
	return out, nil
}

// selfTimes attributes the spans' self time to layer kinds. Each span's
// parent is the innermost span on its row that contains it in time and has
// a lower parentRank; a "bench-op" span parents spans on every row.
func selfTimes(spans []span) map[string]time.Duration {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.iv.start != sb.iv.start {
			return sa.iv.start < sb.iv.start
		}
		return parentRank(sa.name) < parentRank(sb.name)
	})
	children := make([][]interval, len(spans))
	for n, i := range idx {
		s := spans[i]
		rank := parentRank(s.name)
		for m := n - 1; m >= 0; m-- {
			p := spans[idx[m]]
			if (p.row == s.row || parentRank(p.name) == 0) && parentRank(p.name) < rank && p.iv.start <= s.iv.start && s.iv.end <= p.iv.end {
				children[idx[m]] = append(children[idx[m]], s.iv)
				break
			}
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[spanKind(s.name)] += s.iv.end - s.iv.start - unionLength(children[i], s.iv.start, s.iv.end)
	}
	return out
}

// opSelfTimes attributes one benchmark operation traced into its own t:
// the op (wall, from just before t started) is the root of every row, so
// whatever no program span covers lands in kindOther, and the kinds sum to
// the wall time when the program's spans do not overlap.
func opSelfTimes(t *obs.Trace, wall time.Duration) (map[string]time.Duration, error) {
	spans, err := traceSpans(t)
	if err != nil {
		return nil, err
	}
	return selfTimes(append(spans, span{name: "bench-op", row: -1, iv: interval{0, wall}})), nil
}

// benchSpans records the spans the benchmark itself opens around each call
// into a layer (compile, solve, fused schedule, HTTP submit, journal open,
// server construction). Spans stay in memory and are written out when the
// run ends.
type benchSpans struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newBenchSpans() *benchSpans { return &benchSpans{t0: time.Now()} }

// add records a span that started at start and ends now; it returns the
// duration.
func (b *benchSpans) add(name string, start time.Time) time.Duration {
	end := time.Now()
	b.mu.Lock()
	b.spans = append(b.spans, span{name: name, iv: interval{start.Sub(b.t0), end.Sub(b.t0)}})
	b.mu.Unlock()
	return end.Sub(start)
}

// durations returns every recorded duration of the named span, in ms.
func (b *benchSpans) durations(name string) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []float64
	for _, s := range b.spans {
		if s.name == name {
			out = append(out, ms(s.iv.end-s.iv.start))
		}
	}
	return out
}

// writeChrome writes the recorded spans as Chrome trace-event JSON.
func (b *benchSpans) writeChrome(path string) error {
	type ev struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	b.mu.Lock()
	evs := make([]ev, 0, len(b.spans))
	for _, s := range b.spans {
		evs = append(evs, ev{s.name, "X", float64(s.iv.start.Nanoseconds()) / 1e3, float64((s.iv.end - s.iv.start).Nanoseconds()) / 1e3, 1, 1})
	}
	b.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
