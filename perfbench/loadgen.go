package main

import (
	"math/rand"
	"time"
)

// Open-loop load generation. Jobs are due on a fixed schedule whatever the
// service does, each job's latency is timed from when it was due (so a
// stalled sender charges its wait to every job behind it), and the most the
// generator ran behind schedule is reported so a slow client is not
// mistaken for a slow server.

// schedule returns the due offsets of n jobs sent at rate per second.
func schedule(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// maxLate returns the most any send started after it was due (0 when none
// was late).
func maxLate(due, sent []time.Time) time.Duration {
	var worst time.Duration
	for i := range due {
		if d := sent[i].Sub(due[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// latencyFromDue is a job's submit→terminal latency in ms, timed from when
// it was due to be sent to the service's terminal record (FinishedMS, Unix
// milliseconds).
func latencyFromDue(due time.Time, finishedMS int64) float64 {
	return float64(finishedMS) - float64(due.UnixNano())/1e6
}

// balancedRepeats returns n draws over a universe of u problems in which
// every problem appears ⌊n/u⌋ or ⌈n/u⌉ times, in a seeded order. Every seed
// then offers the same mix of work, so its latency distribution does not
// depend on which problems a skewed draw happened to favour.
func balancedRepeats(rng *rand.Rand, u, n int) []int {
	out := make([]int, 0, n+u)
	for len(out) < n {
		out = append(out, rng.Perm(u)...)
	}
	out = out[:n]
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
