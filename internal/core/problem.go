package core

import (
	"context"
	"crypto/sha256"
	"errors"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/serde"
	"sunstone/internal/tensor"
)

// Problem bundles everything that identifies one optimization problem: the
// workload to map, the architecture to map it onto, and the cost model that
// scores mappings (zero value = cost.Default, exactly like Options.Model).
// It is the canonical input of Solve and Engine.Solve, and the single source
// of the content-addressed cache key an Engine stores compiled artifacts
// under — two Problems with equal serialized content share one compilation
// no matter how many distinct pointers describe them.
type Problem struct {
	Workload *tensor.Workload
	Arch     *arch.Arch
	// Model overrides Options.Model when non-zero; the zero Model defers to
	// the Options (and ultimately to cost.Default).
	Model cost.Model
}

// Validate checks the problem's structural soundness — the same workload and
// arch validation every optimize entry point performs.
func (p Problem) Validate() error {
	if p.Workload == nil {
		return errors.New("problem: nil workload")
	}
	if p.Arch == nil {
		return errors.New("problem: nil arch")
	}
	if err := p.Workload.Validate(); err != nil {
		return err
	}
	return p.Arch.Validate()
}

// model resolves the effective cost model: the Problem's when set, the
// (already defaulted) Options' otherwise.
func (p Problem) model(opt Options) cost.Model {
	if p.Model != (cost.Model{}) {
		return p.Model
	}
	return opt.Model
}

// Key content-addresses the problem via its canonical JSON serialization
// (map keys sort deterministically under encoding/json) — the cache identity
// an Engine uses. ok is false for problems outside the cacheable domain: a
// model carrying a fault-injection Probe is opaque state the key cannot
// capture (and probe semantics — "fires on every evaluation" — forbid
// serving memoized results anyway), and inputs that fail to serialize
// cannot be content-addressed at all.
func (p Problem) Key() (key string, ok bool) {
	if p.Model.Probe != nil {
		return "", false
	}
	wj, err := serde.EncodeWorkload(p.Workload)
	if err != nil {
		return "", false
	}
	aj, err := serde.EncodeArch(p.Arch)
	if err != nil {
		return "", false
	}
	h := sha256.New()
	h.Write(wj)
	h.Write([]byte{0})
	h.Write(aj)
	if p.Model.SlidingReuse {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{2})
	}
	// Residency changes the flow structure, so resident problems must never
	// share a compiled entry with the DRAM-backed ones. Pins hash in
	// canonical order; levels fit a byte for any realistic hierarchy.
	for _, pin := range p.Model.Resident.CanonicalPins() {
		h.Write([]byte{3, byte(pin.Level)})
		h.Write([]byte(pin.Tensor))
		h.Write([]byte{0})
	}
	return string(h.Sum(nil)), true
}

// Compile builds the problem's immutable artifact bundle under the effective
// model (the Problem's when set, cost.Default otherwise).
func (p Problem) Compile() (*Compiled, error) {
	return Compile(p.Workload, p.Arch, p.Model)
}

// Solve is SolveContext with a background context.
func Solve(p Problem, opt Options) (Result, error) {
	return SolveContext(context.Background(), p, opt)
}

// SolveContext searches for the best mapping of the problem under ctx,
// compiling it afresh. The search is an anytime algorithm: on cancellation
// or deadline it returns the best completed mapping seen so far with
// Result.Stopped set. With Options.Retry set it runs Engine.Solve's
// graceful-degradation path on a transient Engine.
func SolveContext(ctx context.Context, p Problem, opt Options) (Result, error) {
	if opt.Retry != nil {
		return NewEngine(0).Solve(ctx, p, opt)
	}
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	opt = opt.withDefaults()
	opt.Model = p.model(opt)
	comp, err := Compile(p.Workload, p.Arch, opt.Model)
	if err != nil {
		return Result{}, err
	}
	return optimizeCompiled(ctx, comp, opt)
}

// Solve runs SolveContext over the Engine's compiled-artifact cache: the
// canonical Engine entry point. Results are identical to a cold SolveContext
// call — the search replays the compiled enumeration into its own counters
// and spans — only faster, because the per-problem precomputation and the
// evaluation memo carry over across calls with the same Problem.Key.
//
// With Options.Retry set the search runs on the graceful-degradation path
// (see resilient.go): primary retries at backed-off budgets, then the
// policy's fallback chain, every accepted mapping passing the final audit.
// Result.Attempts records every try and Result.FallbackUsed names the
// fallback that produced the mapping; the error is non-nil only when every
// attempt failed.
func (e *Engine) Solve(ctx context.Context, p Problem, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	opt = opt.withDefaults()
	opt.Model = p.model(opt)
	p.Model = opt.Model
	if opt.Retry != nil {
		return e.solveResilient(ctx, p, opt)
	}
	comp, err := e.compiled(p)
	if err != nil {
		return Result{}, err
	}
	return optimizeCompiled(ctx, comp, opt)
}
