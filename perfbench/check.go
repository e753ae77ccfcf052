package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"sunstone/internal/core"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
)

// reference.json maps every problem any workload can draw to the EDP the
// search found for it when the benchmark was defined (written by
// -write-reference). Results are deterministic and thread-count invariant,
// so a run that finds a different EDP has changed what the search returns.
//
//go:embed reference.json
var referenceJSON []byte

type reference map[string]float64

func loadReference() (reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// ratio returns edp ÷ the reference EDP for key. A missing key is an error
// (every drawable problem must be in the table), and so is an EDP worse than
// the reference. A better EDP is not: it is a gain edp_ratio_geomean shows.
func (r reference) ratio(key string, edp float64) (float64, error) {
	want, ok := r[key]
	if !ok {
		return 0, fmt.Errorf("%s: not in reference table", key)
	}
	if edp > want {
		return edp / want, fmt.Errorf("%s: EDP %.17g worse than the reference %.17g", key, edp, want)
	}
	return edp / want, nil
}

// exact is ratio for results that must reproduce the reference bit for bit
// (service jobs): any other EDP is an error.
func (r reference) exact(key string, edp float64) (float64, error) {
	ratio, err := r.ratio(key, edp)
	if err == nil && edp != r[key] {
		err = fmt.Errorf("%s: EDP %.17g, reference %.17g", key, edp, r[key])
	}
	return ratio, err
}

// auditMapping is the resilient path's final audit run from outside: the
// mapping is structurally valid, its full evaluation is valid, and the
// fast-path evaluator reproduces the full evaluation bit for bit. It returns
// the full report.
func auditMapping(m *mapping.Mapping) (cost.Report, error) {
	if m == nil {
		return cost.Report{}, errors.New("no mapping")
	}
	if err := m.Validate(); err != nil {
		return cost.Report{}, fmt.Errorf("invalid mapping: %w", err)
	}
	rep := cost.Evaluate(m)
	if !rep.Valid {
		return rep, fmt.Errorf("full evaluation invalid: %s", rep.Invalid)
	}
	edp, e, c, valid := cost.Default.NewSession(m.Workload, m.Arch).NewEvaluator().EvaluateEDPUncached(m)
	if !valid || math.Float64bits(edp) != math.Float64bits(rep.EDP) ||
		math.Float64bits(e) != math.Float64bits(rep.EnergyPJ) || math.Float64bits(c) != math.Float64bits(rep.Cycles) {
		return rep, fmt.Errorf("fast path (%.17g, %.17g, %.17g, %v) != full evaluation (%.17g, %.17g, %.17g)",
			edp, e, c, valid, rep.EDP, rep.EnergyPJ, rep.Cycles)
	}
	return rep, nil
}

// boundViolations records the problems whose returned EDP is below the
// admissible lower bound the program computes for them (energy floor ×
// cycle floor, cost.Session.LowerBound). Such an EDP is still a correctly
// evaluated, valid mapping, so it does not fail the operation: it shows the
// bound is not admissible there, which also lets the bound prune mappings it
// should keep. The count is reported as analytic.bound_violations and each
// problem is named on stderr once.
type boundViolations map[string]bool

func (b boundViolations) check(key string, m *mapping.Mapping, edp float64) {
	lbE, lbC := cost.Default.NewSession(m.Workload, m.Arch).LowerBound(0)
	if edp < lbE*lbC && !b[key] {
		b[key] = true
		fmt.Fprintf(os.Stderr, "perfbench: BOUND VIOLATION: %s: EDP %.17g below the admissible lower bound %.17g\n", key, edp, lbE*lbC)
	}
}

// checkResult audits one single-problem search result and returns its EDP
// ratio to the reference.
func checkResult(ref reference, bv boundViolations, key string, r core.Result) (float64, error) {
	if r.Stopped != core.StopComplete {
		return 0, fmt.Errorf("%s: search stopped early (%v)", key, r.Stopped)
	}
	rep, err := auditMapping(r.Mapping)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	if math.Float64bits(rep.EDP) != math.Float64bits(r.Report.EDP) {
		return 0, fmt.Errorf("%s: result EDP %.17g != re-evaluated %.17g", key, r.Report.EDP, rep.EDP)
	}
	bv.check(key, r.Mapping, rep.EDP)
	if r.SeedEDP > 0 && rep.EDP > r.SeedEDP {
		return 0, fmt.Errorf("%s: EDP %.17g worse than the analytical seed %.17g", key, rep.EDP, r.SeedEDP)
	}
	return ref.ratio(key, rep.EDP)
}

// checkNetwork audits a fused network schedule: every member mapping passes
// the audit and does not lose to its seed, the totals are consistent, fused
// EDP ≤ unfused EDP, and neither is worse than the reference. It returns
// the fused EDP's ratio to the reference.
func checkNetwork(ref reference, key string, r core.NetworkResult) (float64, error) {
	if r.Stopped != core.StopComplete {
		return 0, fmt.Errorf("%s: stopped early (%v)", key, r.Stopped)
	}
	var energy, cycles float64
	for _, g := range r.Groups {
		for i, m := range g.Members {
			if _, err := auditMapping(m.Mapping); err != nil {
				return 0, fmt.Errorf("%s: member %s: %w", key, g.Layers[i], err)
			}
			if m.SeedEDP > 0 && m.Report.EDP > m.SeedEDP {
				return 0, fmt.Errorf("%s: member %s: EDP %.17g worse than its seed %.17g", key, g.Layers[i], m.Report.EDP, m.SeedEDP)
			}
		}
		energy += g.EnergyPJ
		cycles += g.Cycles
	}
	if energy != r.TotalEnergyPJ || cycles != r.TotalCycles || r.EDP != r.TotalEnergyPJ*r.TotalCycles {
		return 0, fmt.Errorf("%s: group totals (%.17g pJ, %.17g cycles) do not add up to the schedule's (%.17g, %.17g, EDP %.17g)",
			key, energy, cycles, r.TotalEnergyPJ, r.TotalCycles, r.EDP)
	}
	if r.EDP > r.UnfusedEDP {
		return 0, fmt.Errorf("%s: fused EDP %.17g worse than unfused %.17g", key, r.EDP, r.UnfusedEDP)
	}
	if _, err := ref.ratio(key+"/unfused", r.UnfusedEDP); err != nil {
		return 0, err
	}
	return ref.ratio(key, r.EDP)
}

// writeReference solves every problem any workload can draw and writes the
// reference table to path. Run it only when the search is meant to change
// what it returns, and say so where the change is recorded.
func writeReference(path string) error {
	out := reference{}
	for _, c := range solveColdPool() {
		r, err := core.Solve(core.Problem{Workload: c.build(), Arch: archPreset(c.arch)}, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		out[c.key] = r.Report.EDP
	}
	for _, c := range serviceUniverse() {
		if _, ok := out[c.key()]; ok {
			continue
		}
		r, err := core.Solve(core.Problem{Workload: c.workload(), Arch: archPreset(c.arch)}, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(), err)
		}
		out[c.key()] = r.Report.EDP
	}
	for _, c := range networkPool() {
		net, err := c.build()
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		r, err := core.NewEngine(0).SolveNetworkFused(bgCtx, net, archPreset(c.arch), core.Options{}, core.FusionOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		out[c.key] = r.EDP
		out[c.key+"/unfused"] = r.UnfusedEDP
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
