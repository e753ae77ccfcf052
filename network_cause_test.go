package sunstone

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sunstone/internal/cost"
	"sunstone/internal/faults"
)

// panicProbe panics on every evaluation of the named layer's workload: a
// poisoned cost model confined to one layer.
type panicProbe struct{ layer string }

func (p panicProbe) BeforeEvaluate(m *Mapping) {
	if m.Workload.Name == p.layer {
		panic("poisoned cost model in layer " + p.layer)
	}
}

// TestLayerCauseClassificationEndToEnd drives every FailureCause through the
// public API: real ScheduleNetwork runs whose layers fail for each of the
// five classified reasons, asserted via CauseOf on the per-layer errors.
//
//   - injected: a deterministic compile fault (internal/faults) fails the
//     layer's problem compilation;
//   - panic: the layer's cost-model Probe panics, contained as an
//     *anytime.PanicError;
//   - deadline: every evaluation is poisoned (so no valid mapping can ever
//     complete) and a nanosecond timeout expires first;
//   - sibling-cancel: a tiny poisoned layer fails fast and cancels a larger
//     sibling before it can complete anything;
//   - search: the layer's architecture admits no feasible mapping at all.
func TestLayerCauseClassificationEndToEnd(t *testing.T) {
	a := Tiny(256)
	tiny := ConvShape{Name: "tiny", K: 1, C: 1, P: 1, Q: 1, R: 1, S: 1, StrideH: 1, StrideW: 1}
	mid := ConvShape{Name: "mid", K: 8, C: 8, P: 7, Q: 7, R: 3, S: 3, StrideH: 1, StrideW: 1}
	big := ConvShape{Name: "big", K: 64, C: 64, P: 28, Q: 28, R: 3, S: 3, StrideH: 1, StrideW: 1}
	poisoned := cost.Default
	poisoned.Probe = panicProbe{layer: "mid"}

	cases := []struct {
		name   string
		spec   string // fault spec armed for the run ("" = none)
		arch   *Arch  // nil = Tiny(256)
		shapes []ConvShape
		opt    NetworkOptions
		layer  string // the layer whose cause is asserted
		want   FailureCause
	}{
		{
			name: "injected", spec: "compile:error:1,seed=1",
			shapes: []ConvShape{tiny}, layer: "tiny", want: CauseInjected,
		},
		{
			name:   "panic",
			shapes: []ConvShape{mid},
			opt:    NetworkOptions{Options: Options{Model: poisoned}},
			layer:  "mid", want: CausePanic,
		},
		{
			name: "deadline", spec: "evaluate:panic:1,seed=1",
			shapes: []ConvShape{mid},
			opt:    NetworkOptions{Options: Options{Timeout: time.Nanosecond}},
			layer:  "mid", want: CauseDeadline,
		},
		{
			// The tiny layer exhausts its poisoned search first (cause:
			// search) and the fail-fast policy cancels the big sibling,
			// which cannot have completed anything valid either.
			name: "sibling-cancel", spec: "evaluate:panic:1,seed=1",
			shapes: []ConvShape{tiny, big}, layer: "big", want: CauseSiblingCancel,
		},
		{
			// An ordinary search failure: an L1 too small for even a unit
			// tile leaves no feasible candidate — a plain error with no
			// injected fault, panic, or context signal in its chain.
			name: "search", arch: Tiny(2),
			shapes: []ConvShape{mid}, layer: "mid", want: CauseSearch,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spec != "" {
				inj, err := faults.ParseSpec(tc.spec)
				if err != nil {
					t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
				}
				defer faults.Activate(inj)()
			}
			net, err := FromConvShapes(tc.name, tc.shapes, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.arch == nil {
				tc.arch = a
			}
			tc.opt.MaxGroup = 1
			sched, err := ScheduleNetwork(context.Background(), net, tc.arch, tc.opt)
			if err == nil {
				t.Fatalf("schedule succeeded; wanted layer %q to fail with cause %q", tc.layer, tc.want)
			}
			var found bool
			for _, l := range sched.Layers {
				if l.Layer != tc.layer {
					continue
				}
				found = true
				if l.Err == nil {
					t.Fatalf("layer %q has no error (schedule error: %v)", tc.layer, err)
				}
				if got := CauseOf(l.Err); got != tc.want {
					t.Errorf("layer %q: CauseOf = %q, want %q (err: %v)", tc.layer, got, tc.want, l.Err)
				}
				var le *LayerError
				if !errors.As(l.Err, &le) {
					t.Errorf("layer %q error is not a *LayerError: %v", tc.layer, l.Err)
				}
			}
			if !found {
				t.Fatalf("layer %q missing from schedule", tc.layer)
			}
		})
	}
}

// TestCauseOf covers the public accessor: nil has no cause, a LayerError's
// recorded cause is authoritative even deep in a joined chain, and bare
// errors fall back to direct classification.
func TestCauseOf(t *testing.T) {
	if got := CauseOf(nil); got != "" {
		t.Errorf("CauseOf(nil) = %q", got)
	}
	le := &LayerError{Layer: "conv1", Cause: CauseDeadline, Err: context.DeadlineExceeded}
	if got := CauseOf(fmt.Errorf("schedule: %w", le)); got != CauseDeadline {
		t.Errorf("wrapped LayerError: CauseOf = %q, want %q", got, CauseDeadline)
	}
	if got := CauseOf(errors.Join(errors.New("other"), le)); got != CauseDeadline {
		t.Errorf("joined LayerError: CauseOf = %q, want %q", got, CauseDeadline)
	}
	inj := &faults.InjectedError{Site: faults.SiteExpand, Kind: faults.Panic, Seq: 3}
	if got := CauseOf(fmt.Errorf("bare: %w", inj)); got != CauseInjected {
		t.Errorf("bare injected: CauseOf = %q, want %q", got, CauseInjected)
	}
	if got := CauseOf(errors.New("anything else")); got != CauseSearch {
		t.Errorf("bare error: CauseOf = %q, want %q", got, CauseSearch)
	}
}

// TestLayerErrorRendering pins the log format ("<layer>: [<cause>] <err>",
// keeping the layer prefix older tooling greps for) and Unwrap.
func TestLayerErrorRendering(t *testing.T) {
	base := errors.New("boom")
	le := &LayerError{Layer: "conv2_x", Cause: CausePanic, Err: base}
	if got, want := le.Error(), "conv2_x: [panic] boom"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if !errors.Is(le, base) {
		t.Error("LayerError must unwrap to the underlying failure")
	}
}
