package main

import (
	"net/http"
	"time"
)

const (
	// mixRate is serve-mix's fixed offered rate (requests per second),
	// far below the server's capacity for this mix on two cores (about
	// a tenth of it). It yields about 2,900 samples in a 30-s run, some
	// 145 of them beyond the p95. The tail is mostly fresh LP solves and
	// the requests queued behind them; a higher rate gives more samples
	// but more queueing, which makes the tail swing more than the
	// host's speed does (on a 2-vCPU VM at 300 req/s, the tail rose 39%
	// between runs whose goodput fell 19%).
	mixRate = 150.0
	// mixLimit is the latency limit for max_rate_rps: an answer slower
	// than it does not count. It sits well above the slowest LP solves'
	// own time (under 60 ms seen), so answers miss it only when the
	// server falls behind.
	mixLimit = 100 * time.Millisecond
	// The measured phase is mixCycles cycles. Each runs the open loop at
	// mixRate, then spends mixSatShare of the cycle on a saturation
	// slice: both connections send the next request as soon as the
	// previous one is answered, so the server is offered more than it
	// can take and the rate it answers at is its capacity for the mix,
	// the highest offered rate that does not grow a backlog.
	// max_rate_rps is the saturation slices' goodput: valid answers
	// within mixLimit per second. It averages over some 18,000 requests,
	// where a search of short open-loop trials for that rate decides
	// each step on a few slow requests. The slices are spread over the
	// run, rather than one block at its end, so that the latencies and
	// max_rate_rps average over the same stretch of time, and a change
	// of the host's speed during a run moves both alike.
	mixCycles   = 6
	mixSatShare = 0.35
	// mixPool is the number of pool instances; with about half the
	// requests inserting new keys, a pool entry is re-hit long before
	// 256 newer keys evict it from the server's cache.
	mixPool = 32
	// mixPlan is the number of planned requests. A run that needs more
	// starts over from the first; every key the plan inserted has long
	// been evicted by then, so the requests behave as they did before.
	mixPlan = 40000
	// mixRecent is how many of the latest nested instances a delta may
	// start from.
	mixRecent = 16
)

// mixEntry is one serve-mix request and, for checking, its instance.
type mixEntry struct {
	in   *inst
	body []byte
	lb   int64
}

// buildServeMix makes a pool of small instances (laminar 8–48 jobs,
// unit laminar, crossing windows) and a plan in which about half the
// requests are permuted exact hits on the pool, a quarter near-miss
// deltas (raised g, or new jobs in a root window) of recently sent
// nested instances, and a quarter fresh instances.
func buildServeMix(r *run) *inputs {
	rng := r.freshRNG(3)
	fresh := func() *inst {
		switch u := rng.Float64(); {
		case u < 0.4:
			return genLaminar(rng, 8+rng.IntN(41), false)
		case u < 0.7:
			return genLaminar(rng, 8+rng.IntN(41), true)
		default:
			return genCrossing(rng, 8+rng.IntN(25))
		}
	}
	// Pool sizes are spread evenly over each kind's range rather than
	// drawn, so the pool's total work varies less from seed to seed.
	pool := make([]*inst, mixPool)
	var nested []*inst
	for i := range pool {
		switch {
		case i < 13:
			pool[i] = genLaminar(rng, 8+i*40/12, false)
		case i < 23:
			pool[i] = genLaminar(rng, 8+(i-13)*40/9, true)
		default:
			pool[i] = genCrossing(rng, 8+(i-23)*24/8)
		}
		if i < 23 {
			nested = append(nested, pool[i])
		}
	}
	entry := func(in *inst) mixEntry { return mixEntry{in: in, body: body(in), lb: lowerBound(in)} }
	primes := make([]mixEntry, mixPool)
	for i, in := range pool {
		primes[i] = entry(in)
	}
	// Deltas are near misses of instances sent shortly before (the pool's
	// nested entries at first, then the most recent fresh nested ones),
	// so each one is new to the cache while its base is still cached
	// with warm state. g is raised by 1–3 only: the LP path solves a
	// delta cold when its base has been evicted, and raising g far
	// beyond the original makes some cold LP solves run for minutes.
	recent := append([]*inst(nil), nested...)
	plan := make([]mixEntry, mixPlan)
	for k := range plan {
		var in *inst
		switch u := rng.Float64(); {
		case u < 0.5:
			in = permuted(rng, pool[rng.IntN(mixPool)])
		case u < 0.75:
			// Mostly raised g, which the LP path resumes from retained
			// state; new root-window jobs, which it solves cold, are rarer.
			base := recent[len(recent)-1-rng.IntN(mixRecent)]
			if rng.IntN(5) > 0 {
				in = raiseG(rng, base, 1+rng.Int64N(3))
			} else if in = growRoot(rng, base, 1+rng.IntN(3)); in == nil {
				in = raiseG(rng, base, 1+rng.Int64N(3))
			}
		default:
			in = fresh()
			if in.roots != nil {
				recent = append(recent, in)
			}
		}
		plan[k] = entry(in)
	}
	at := func(k int) *mixEntry {
		if k < 0 {
			return &primes[k+mixPool]
		}
		return &plan[k%mixPlan]
	}
	prime := make([]int, mixPool)
	for i := range prime {
		prime[i] = i - mixPool
	}
	arrRNG := r.freshRNG(4)
	bodyOf := func(k int) []byte { return at(k).body }
	steady := func(c *http.Client, url string, first int, d time.Duration, rate float64) []sample {
		return openLoop(c, url, 2, arrivals(arrRNG, d, rate), first, bodyOf)
	}
	return &inputs{
		instOf: func(k int) *inst { return at(k).in },
		bodyOf: bodyOf,
		lbOf:   func(k int) int64 { return at(k).lb },
		prime:  prime,
		warm: func(c *http.Client, url string, first int) []sample {
			return steady(c, url, first, warmDur, mixRate)
		},
		fixed: func(c *http.Client, url string, first int, d time.Duration) []sample {
			return steady(c, url, first, d, mixRate)
		},
		measure: func(c *http.Client, url string, first int) phase {
			cycle := r.dur / mixCycles
			satDur := time.Duration(mixSatShare * float64(cycle))
			var open, sat []sample
			var satWall time.Duration
			next := first
			for i := 0; i < mixCycles; i++ {
				s := steady(c, url, next, cycle-satDur, mixRate)
				t, wall := closedLoop(c, url, 2, satDur, next+len(s), bodyOf)
				next += len(s) + len(t)
				open, sat = append(open, s...), append(sat, t...)
				satWall += wall
			}
			return phase{all: append(open, sat...), nLat: len(open),
				rateFrom: len(open), rateWall: satWall, rateLimit: mixLimit}
		},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = ms(x.lat)
	}
	return out
}
