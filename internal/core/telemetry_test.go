package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/obs"
)

// TestCounterIdentity pins the candidate-flow accounting on the three preset
// architectures: every generated unit ends in exactly one bucket, so for an
// uncancelled run Generated == Pruned() + Deduped + Evaluated and nothing is
// skipped. The post-evaluation cuts (bound, beam) must stay within Evaluated.
func TestCounterIdentity(t *testing.T) {
	archs := []struct {
		name string
		a    *arch.Arch
	}{
		{"conventional", arch.Conventional()},
		{"simba", arch.Simba()},
		{"diannao", arch.DianNao()},
	}
	for _, tc := range archs {
		for _, dir := range []Direction{BottomUp, TopDown} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, dir), func(t *testing.T) {
				w := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
				res, err := Solve(Problem{Workload: w, Arch: tc.a}, Options{Direction: dir})
				if err != nil {
					t.Fatal(err)
				}
				s := res.Stats
				if s.Generated == 0 || s.Evaluated == 0 {
					t.Fatalf("counters did not move: %+v", s)
				}
				if s.Skipped != 0 {
					t.Errorf("uncancelled run skipped %d candidates", s.Skipped)
				}
				if got, want := s.Pruned()+s.Deduped+s.Evaluated+s.Skipped, s.Generated; got != want {
					t.Errorf("flow identity broken: pruned %d + deduped %d + evaluated %d + skipped %d = %d, generated = %d",
						s.Pruned(), s.Deduped, s.Evaluated, s.Skipped, got, want)
				}
				if s.PrunedBound+s.PrunedBeam > s.Evaluated {
					t.Errorf("post-evaluation cuts (%d bound + %d beam) exceed evaluations (%d)",
						s.PrunedBound, s.PrunedBeam, s.Evaluated)
				}
				if sum := s.PrunedOrdering + s.PrunedTiling + s.PrunedUnrolling + s.BoundPruned; sum != s.Pruned() {
					t.Errorf("Pruned() = %d does not partition into its components (%d)", s.Pruned(), sum)
				}
				// With the analytical layer off, the bound bucket must stay
				// empty and the identity must still close.
				off, err := Solve(Problem{Workload: w, Arch: tc.a}, Options{Direction: dir, Analytical: &AnalyticalOptions{}})
				if err != nil {
					t.Fatal(err)
				}
				so := off.Stats
				if so.BoundPruned != 0 {
					t.Errorf("analytical layer off but BoundPruned = %d", so.BoundPruned)
				}
				if off.SeedEDP != 0 {
					t.Errorf("analytical layer off but SeedEDP = %g", off.SeedEDP)
				}
				if got, want := so.Pruned()+so.Deduped+so.Evaluated+so.Skipped, so.Generated; got != want {
					t.Errorf("flow identity broken with analytics off: %d != generated %d", got, want)
				}
			})
		}
	}
}

// TestProgressEvents checks the streaming contract on a completed search:
// the optimize phase brackets everything, at least one incumbent improvement
// fires, improvements are monotone, and counter snapshots never run
// backwards. Run under -race this also proves the callback never races with
// the evaluation fan-out.
func TestProgressEvents(t *testing.T) {
	w := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	var events []obs.ProgressEvent
	var returned atomic.Bool
	opt := Options{
		Threads: 4,
		Progress: func(ev obs.ProgressEvent) {
			if returned.Load() {
				t.Error("progress event delivered after SolveContext returned")
			}
			events = append(events, ev)
		},
	}
	res, err := Solve(Problem{Workload: w, Arch: arch.Conventional()}, opt)
	returned.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 4 {
		t.Fatalf("expected a full event stream, got %d events", len(events))
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != obs.PhaseStarted || first.Phase != "optimize" {
		t.Errorf("first event = %v %q, want phase-started optimize", first.Kind, first.Phase)
	}
	if last.Kind != obs.PhaseFinished || last.Phase != "optimize" {
		t.Errorf("last event = %v %q, want phase-finished optimize", last.Kind, last.Phase)
	}
	improvements := 0
	bestScore := 0.0
	var prevGen uint64
	for i, ev := range events {
		if ev.Generated < prevGen {
			t.Errorf("event %d: Generated went backwards (%d -> %d)", i, prevGen, ev.Generated)
		}
		prevGen = ev.Generated
		if ev.Kind != obs.IncumbentImproved {
			continue
		}
		if improvements > 0 && ev.Score >= bestScore {
			t.Errorf("event %d: incumbent got worse (%g -> %g)", i, bestScore, ev.Score)
		}
		bestScore = ev.Score
		improvements++
	}
	if improvements == 0 {
		t.Error("no incumbent-improved events on a successful search")
	}
	if last.Generated != res.Stats.Generated {
		t.Errorf("final event snapshot Generated = %d, Result.Stats.Generated = %d",
			last.Generated, res.Stats.Generated)
	}
}

// TestProgressNoEventsAfterCancel cancels mid-search from inside the
// callback and verifies the synchronous-delivery guarantee: once
// SolveContext returns, the stream is over.
func TestProgressNoEventsAfterCancel(t *testing.T) {
	w := conv2D(t, 4, 64, 64, 28, 28, 3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var returned atomic.Bool
	var n atomic.Int64
	opt := Options{
		Progress: func(ev obs.ProgressEvent) {
			if returned.Load() {
				t.Error("progress event delivered after SolveContext returned")
			}
			if n.Add(1) == 3 {
				cancel()
			}
		},
	}
	res, err := SolveContext(ctx, Problem{Workload: w, Arch: arch.Simba()}, opt)
	returned.Store(true)
	if err != nil && res.Mapping == nil {
		t.Fatalf("cancel before any incumbent: err=%v", err)
	}
	if res.Stopped != StopCanceled && res.Stopped != StopComplete {
		t.Errorf("Stopped = %v, want canceled (or complete on a fast machine)", res.Stopped)
	}
	// Give any stray goroutine a beat to misfire before the test ends.
	time.Sleep(20 * time.Millisecond)
}

// TestProgressCallbackPanic proves a panicking callback is contained like a
// panicking candidate: the search completes, the emitter shuts itself off
// after the first panic, and the failure surfaces in CandidateErrors.
func TestProgressCallbackPanic(t *testing.T) {
	w := conv1D(t, 16, 16, 28, 3)
	var calls atomic.Int64
	opt := Options{
		Progress: func(ev obs.ProgressEvent) {
			calls.Add(1)
			panic("broken progress sink")
		},
	}
	res, err := Solve(Problem{Workload: w, Arch: arch.Tiny(256)}, opt)
	if err != nil {
		t.Fatalf("a panicking callback must not fail the search: %v", err)
	}
	if res.Mapping == nil || !res.Report.Valid {
		t.Fatal("search result lost to a callback panic")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("callback ran %d times, want exactly 1 (emitter must disable itself)", got)
	}
	found := false
	for _, cerr := range res.CandidateErrors {
		if strings.Contains(cerr.Error(), "broken progress sink") {
			found = true
		}
	}
	if !found {
		t.Errorf("callback panic not reported in CandidateErrors: %v", res.CandidateErrors)
	}
}

// chromeEvent mirrors the trace-event JSON schema the exporter emits.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TestTraceSpansPerPhasePerLevel runs a traced search and checks the span
// taxonomy: one root optimize span, an orderings span, and per memory level
// one level span containing an enumerate and an evaluate child, plus the
// final polish span — all exported as well-formed Chrome trace JSON.
func TestTraceSpansPerPhasePerLevel(t *testing.T) {
	w := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	a := arch.Conventional()
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := SolveContext(ctx, Problem{Workload: w, Arch: a}, Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	counts := map[string]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur < 0 || ev.Ts < 0 {
			t.Errorf("span %q has negative timing (ts=%v dur=%v)", ev.Name, ev.Ts, ev.Dur)
		}
		switch {
		case strings.HasPrefix(ev.Name, "optimize "):
			counts["optimize"]++
		case strings.HasPrefix(ev.Name, "level "):
			counts["level"]++
		default:
			counts[ev.Name]++
		}
	}
	// The bottom-up pass runs one phase per level below the top: the
	// unbounded top level absorbs whatever the lower levels left behind and
	// gets no pass of its own.
	passes := len(a.Levels) - 1
	want := map[string]int{
		"optimize":  1,
		"orderings": 1,
		"level":     passes,
		"enumerate": passes,
		"evaluate":  passes,
		"polish":    1,
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("trace has %d %q spans, want %d (all spans: %v)", counts[name], name, n, counts)
		}
	}
}
