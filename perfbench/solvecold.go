package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sunstone/internal/core"
	"sunstone/internal/mapping"
)

// solveCold solves seeded draws of the single-problem presets one after
// another, each a first sighting on a fresh Engine per pass: the CLI user's
// path, compile included.
type solveCold struct {
	rng   *rand.Rand
	cases []solveCase
	probs []core.Problem
}

func setupSolveCold(r *run) (workload, error) {
	s := &solveCold{rng: rand.New(rand.NewSource(r.seed)), cases: solveColdPool()}
	for _, c := range s.cases {
		p := core.Problem{Workload: c.build(), Arch: archPreset(c.arch)}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", c.key, err)
		}
		s.probs = append(s.probs, p)
	}
	return s, nil
}

func (s *solveCold) close() {}

func (s *solveCold) measure(r *run) error {
	out, err := runBatch(r, batchSpec[core.Result]{
		span: "engine.solve",
		// About 3× the slowest preset on two cores.
		limit: 500 * time.Millisecond,
		draw:  func() []int { return drawSolveCold(s.rng, len(s.cases)) },
		op: func(ctx context.Context, eng *core.Engine, i int) (core.Result, error) {
			return eng.Solve(ctx, s.probs[i], core.Options{})
		},
		check: func(i int, res core.Result) (float64, error) {
			return checkResult(r.ref, r.bounds, s.cases[i].key, res)
		},
		record: func(_ int, res core.Result, acc *layerAcc) { acc.addSearch(res) },
	})
	if err != nil || !r.trace {
		return err
	}
	out.report(r)
	var finals []*mapping.Mapping
	for _, res := range out.first {
		if res.Mapping != nil {
			finals = append(finals, res.Mapping)
		}
	}
	reportEvalTiming(r, finals)
	return reportCompile(r, s.probs)
}
