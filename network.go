package sunstone

import (
	"context"
	"time"

	"sunstone/internal/core"
	"sunstone/internal/network"
	"sunstone/internal/workloads"
)

// Fusion IR surface (internal/network): the typed Network of Layer nodes
// with explicit producer→consumer tensor Edges that ScheduleNetwork
// consumes.
type (
	// Network is an ordered chain of layers with the edges along which
	// fusion is legal.
	Network = network.Network
	// Layer is one node of a Network: a workload plus its consecutive
	// occurrence count.
	Layer = network.Layer
	// Edge is one producer→consumer tensor handoff between chain neighbors.
	Edge = network.Edge
	// Position is one executed layer occurrence in chain order.
	Position = network.Position
)

// IR constructors.
var (
	// TransformerChain is the MHA-flavored GEMM→GEMM chain preset: the four
	// back-to-back projections of one transformer block, fully fusible.
	TransformerChain = network.TransformerChain
)

// FromConvShapes builds the conv-chain IR of a layer table: one layer per
// shape at the given batch, weighted by repeats (nil = one occurrence
// each); see internal/network for the edge-construction rules (channel
// chaining plus the pooling-geometry cut). A non-positive batch, loop bound
// or stride is an error naming the offending layer.
func FromConvShapes(name string, shapes []ConvShape, batch int, repeats []int) (*Network, error) {
	return network.FromConvShapes(name, shapes, batch, repeats)
}

// LayerSchedule is one executed layer occurrence within a network schedule.
type LayerSchedule struct {
	Layer  string
	Result Result
	// Repeats is 1 for every ScheduleNetwork entry (repeats are expanded
	// into chain positions); only schedules decoded from the legacy
	// headerless form carry larger counts.
	Repeats int
	// Err is this layer's failure, if any (nil for a mapped layer). Failed
	// layers are excluded from the network totals.
	Err error
}

// GroupSchedule is one segment of a network schedule: the contiguous chain
// positions [Start, End) whose intermediate tensors stayed resident on-chip
// at PinLevel. Singleton groups (End-Start == 1) are unfused layer
// occurrences with PinLevel -1.
type GroupSchedule struct {
	Layers     []string
	Start, End int
	PinLevel   int
	EnergyPJ   float64
	Cycles     float64
}

// NetworkSchedule aggregates a whole network's mapping results.
type NetworkSchedule struct {
	Network string
	// Layers holds one entry per executed chain position (repeats
	// expanded), in chain order.
	Layers        []LayerSchedule
	TotalEnergyPJ float64
	TotalCycles   float64
	// EDP is the network-level energy-delay product (total energy x total
	// cycles, layers executed back to back).
	EDP float64
	// Failed counts layer entries that carry an error; when it is non-zero
	// the totals cover only the entries that succeeded.
	Failed  int
	Elapsed time.Duration
	// Fused marks a schedule from ScheduleNetwork, whose Groups record the
	// chosen fusion cut and UnfusedEDP the all-singleton baseline from the
	// same run. It is false only for a schedule decoded from the legacy
	// headerless layer-per-entry form.
	Fused      bool
	Groups     []GroupSchedule
	UnfusedEDP float64
}

// NetworkOptions configures ScheduleNetwork: the per-layer search Options
// (Options.Retry included) plus network-level policy.
type NetworkOptions struct {
	Options
	// MaxGroup bounds the chain positions per fused group (0 = default 4).
	// MaxGroup 1 disables fusion: the schedule is the per-layer one.
	MaxGroup int
	// ContinueOnError keeps optimizing the remaining layers after one
	// fails, collecting every per-layer error (joined in the returned
	// error) and still returning the layers that succeeded. The default
	// (false) is errgroup-style fail-fast: the first failure cancels the
	// sibling layer searches, which then return their best-so-far mappings
	// with Result.Stopped = StopCanceled.
	ContinueOnError bool
}

// FailureCause classifies why a layer's search failed (LayerError.Cause).
// The taxonomy lives in internal/core so the network scheduler and the
// scheduler service (internal/server) share one classifier.
type FailureCause = core.FailureCause

const (
	// CauseInjected: a deterministic chaos fault (internal/faults) was the
	// root cause, directly or inside a contained panic.
	CauseInjected = core.CauseInjected
	// CausePanic: a contained panic (poisoned cost model, broken callback)
	// not attributable to an injected fault.
	CausePanic = core.CausePanic
	// CauseDeadline: a wall-clock deadline expired before any valid mapping
	// was completed.
	CauseDeadline = core.CauseDeadline
	// CauseSiblingCancel: the layer was canceled by the fail-fast policy
	// after a sibling layer failed first.
	CauseSiblingCancel = core.CauseSiblingCancel
	// CauseSearch: an ordinary search failure (invalid inputs, no feasible
	// candidates, exhausted resilient attempts).
	CauseSearch = core.CauseSearch
	// CauseWatchdog: the scheduler service's per-job watchdog canceled a
	// search that stopped reporting progress.
	CauseWatchdog = core.CauseWatchdog
)

// LayerError is a per-layer scheduling failure with its classified cause.
// Error renders as "<layer>: [<cause>] <err>" so logs keep the layer prefix
// older tooling greps for; Unwrap exposes the underlying failure for
// errors.Is/As.
type LayerError = core.LayerError

// CauseOf extracts the classified failure cause from an error chain:
// LayerError's recorded cause when present, otherwise a direct
// classification of err itself. A nil error has no cause ("").
func CauseOf(err error) FailureCause { return core.CauseOf(err) }

// ScheduleNetwork is (*Engine).ScheduleNetwork on a transient Engine: the
// layers of one call still share a compilation cache, so a network's
// repeated shapes compile once, but nothing is retained across calls. Hold
// an Engine to reuse compiled artifacts between networks.
func ScheduleNetwork(ctx context.Context, net *Network, a *Arch, opt NetworkOptions) (NetworkSchedule, error) {
	return NewEngine().ScheduleNetwork(ctx, net, a, opt)
}

// ScheduleNetwork maps every layer of net onto the architecture under ctx
// through the Engine's compilation cache. Each distinct layer is first
// solved on its own, concurrently; then contiguous chain segments connected
// by IR edges may execute as one fused group whose intermediate tensors stay
// resident on-chip instead of round-tripping DRAM, and an exact DP over the
// cut space picks the grouping with the lowest total EDP. The all-singleton
// cut is always a candidate, so the schedule never scores worse than the
// unfused baseline (returned alongside in UnfusedEDP); MaxGroup 1 returns
// exactly that baseline.
//
// Layers holds one entry per executed chain position, and Groups the chosen
// cut over those positions. Canceling ctx degrades every in-flight search to
// its best-so-far mapping. A failed layer is a *LayerError on its entries:
// by default the first failure cancels the sibling searches
// (ContinueOnError lets them finish), the fusion sweep is skipped, and the
// partial per-layer schedule comes back with the errors.Join of the layer
// errors. A panic in one layer's search is isolated to that layer.
func (e *Engine) ScheduleNetwork(ctx context.Context, net *Network, a *Arch, opt NetworkOptions) (NetworkSchedule, error) {
	res, err := e.core.SolveNetworkFused(ctx, net, a, opt.Options,
		core.FusionOptions{MaxGroup: opt.MaxGroup, ContinueOnError: opt.ContinueOnError})
	out := NetworkSchedule{
		Network:       res.Network,
		Fused:         true,
		TotalEnergyPJ: res.TotalEnergyPJ,
		TotalCycles:   res.TotalCycles,
		EDP:           res.EDP,
		UnfusedEDP:    res.UnfusedEDP,
		Failed:        res.Failed,
		Elapsed:       res.Elapsed,
	}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, GroupSchedule{
			Layers:   append([]string(nil), g.Layers...),
			Start:    g.Start,
			End:      g.End,
			PinLevel: g.PinLevel,
			EnergyPJ: g.EnergyPJ,
			Cycles:   g.Cycles,
		})
		for i, m := range g.Members {
			out.Layers = append(out.Layers, LayerSchedule{Layer: g.Layers[i], Result: m, Repeats: 1, Err: g.Err})
		}
	}
	return out, err
}

// ResNet18Repeats gives the occurrence count of each ResNet18Layers shape in
// the full 18-layer network (the per-shape tables list distinct shapes once).
func ResNet18Repeats() []int { return workloads.ResNet18Repeats() }
