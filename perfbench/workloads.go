package main

import (
	"net/http"
	"sync"
	"time"
)

// workload is one traffic mix: its inputs are a pure function of the
// seed, and its phases drive a running server.
type workload struct {
	name string
	// tailPct is the percentile latency_tail_ms reports, fixed per
	// workload: a percentile picked per run from the sample count would
	// jump between runs whose counts straddle a threshold. It is the
	// highest of p85, p90, p95 and p99 that leaves at least ten samples
	// beyond it in every run, fast or slow, except on serve-mix: there
	// p99 has some 29 beyond it, but its tail is the fresh LP solves
	// and the requests queued behind them, which stretch more than the
	// host slows, and ten runs spread p99 by 0.26 to 0.37 of its median,
	// over any bound the benchmark may set.
	tailPct float64
	build   func(r *run) *inputs
}

// inputs are one run's pre-built requests and how to drive them.
type inputs struct {
	// instOf returns the instance behind request k; bodyOf its body.
	instOf func(k int) *inst
	bodyOf func(k int) []byte
	// lbOf returns lowerBound(instOf(k)), cached where requests repeat
	// an instance.
	lbOf func(k int) int64
	// prime lists requests sent one at a time before the warm-up, so
	// the pool the workload reuses is in the server's cache.
	prime []int
	// warm runs the warm-up phase and measure the measured phase, each
	// from request first on.
	warm    func(c *http.Client, url string, first int) []sample
	measure func(c *http.Client, url string, first int) phase
	// fixed, where set, runs only the fixed-rate open loop for d; the
	// traced run uses it in place of measure.
	fixed func(c *http.Client, url string, first int, d time.Duration) []sample
}

// phase is what a measured phase produced.
type phase struct {
	// all holds every measured request (each one is checked); the first
	// nLat of them are the ones whose latencies are reported.
	all  []sample
	nLat int
	// The requests from rateFrom on, sent over rateWall, are the ones
	// jobs_per_s and max_rate_rps are measured on. On the forests that
	// is the whole closed loop, and max_rate_rps its answered requests
	// per second. On serve-mix it is the saturation slices that alternate
	// with the fixed-rate open loop, and max_rate_rps counts only the
	// valid answers within rateLimit (0 means no limit).
	rateFrom  int
	rateWall  time.Duration
	rateLimit time.Duration
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records
// why each was chosen.
var workloads = map[string]*workload{
	"cold-forest": {
		name:    "cold-forest",
		tailPct: 85, // 90–200 samples per run; p90 needs 100
		build:   buildColdForest,
	},
	"hot-forest": {
		name:    "hot-forest",
		tailPct: 95, // 430–1100 samples per run; p99 needs 1000
		build:   buildHotForest,
	},
	"serve-mix": {
		name:    "serve-mix",
		tailPct: 95, // about 2,900 samples per run
		build:   buildServeMix,
	},
}

const (
	warmDur = 2 * time.Second
	// coldStream and hotStream are the first rng streams of
	// cold-forest's forests and hot-forest's permutations, one stream per
	// forest or request; the other streams are small numbers.
	coldStream = 1 << 32
	hotStream  = 2 << 32
	// coldForests is how many distinct forests cold-forest builds. It is
	// above the server's 256-entry cache, so when a run cycles through
	// them every request still misses.
	coldForests = 300
)

func buildColdForest(r *run) *inputs {
	forests := make([]*inst, coldForests)
	bodies := make([][]byte, coldForests)
	lbs := make([]int64, coldForests)
	// Each forest has its own rng stream, so two goroutines can build
	// them and the result still depends on the seed alone.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < coldForests; i += 2 {
				forests[i] = genForest(r.freshRNG(coldStream+uint64(i)), forestJobs)
				bodies[i] = body(forests[i])
				lbs[i] = lowerBound(forests[i])
			}
		}(w)
	}
	wg.Wait()
	closed := func(c *http.Client, url string, first int, d time.Duration) ([]sample, time.Duration) {
		return closedLoop(c, url, 1, d, first, func(k int) []byte { return bodies[k%coldForests] })
	}
	return &inputs{
		instOf: func(k int) *inst { return forests[k%coldForests] },
		bodyOf: func(k int) []byte { return bodies[k%coldForests] },
		lbOf:   func(k int) int64 { return lbs[k%coldForests] },
		warm: func(c *http.Client, url string, first int) []sample {
			s, _ := closed(c, url, first, warmDur)
			return s
		},
		measure: func(c *http.Client, url string, first int) phase {
			s, wall := closed(c, url, first, r.dur)
			return phase{all: s, nLat: len(s), rateWall: wall}
		},
	}
}

// hotPool is the number of forests hot-forest primes; hotPerms is how
// many job-order permutations of each it builds up front. Requests cycle
// through the hotPool×hotPerms bodies; the server caches by canonical
// key and keeps nothing per body, so a repeated body costs it the same
// work as a fresh permutation.
const (
	hotPool  = 4
	hotPerms = 16
)

func buildHotForest(r *run) *inputs {
	rng := r.freshRNG(2)
	pool := make([]*inst, hotPool)
	lbs := make([]int64, hotPool)
	for i := range pool {
		pool[i] = genForest(rng, forestJobs)
		lbs[i] = lowerBound(pool[i])
	}
	// Request k < 0 is the pool instance itself (priming); request k ≥ 0
	// is permutation k%len(perms), an order of pool[k%hotPool].
	perms := make([]*inst, hotPool*hotPerms)
	bodies := make([][]byte, len(perms))
	for i := range perms {
		perms[i] = permuted(r.freshRNG(hotStream+uint64(i)), pool[i%hotPool])
		bodies[i] = body(perms[i])
	}
	instOf := func(k int) *inst {
		if k < 0 {
			return pool[k+hotPool]
		}
		return perms[k%len(perms)]
	}
	bodyOf := func(k int) []byte {
		if k < 0 {
			return body(pool[k+hotPool])
		}
		return bodies[k%len(bodies)]
	}
	closed := func(c *http.Client, url string, first int, d time.Duration) ([]sample, time.Duration) {
		return closedLoop(c, url, 2, d, first, bodyOf)
	}
	prime := make([]int, hotPool)
	for i := range prime {
		prime[i] = i - hotPool
	}
	return &inputs{
		instOf: instOf,
		bodyOf: bodyOf,
		lbOf:   func(k int) int64 { return lbs[(k+hotPool)%hotPool] },
		prime:  prime,
		warm: func(c *http.Client, url string, first int) []sample {
			s, _ := closed(c, url, first, warmDur)
			return s
		},
		measure: func(c *http.Client, url string, first int) phase {
			s, wall := closed(c, url, first, r.dur)
			return phase{all: s, nLat: len(s), rateWall: wall}
		},
	}
}
