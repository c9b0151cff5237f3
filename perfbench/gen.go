package main

import (
	"math/rand/v2"
	"strconv"
)

// The generators below belong to the benchmark on purpose: a change to
// the repository's own generators (internal/gen, internal/loadgen) must
// not change what the benchmark measures. Every generator is a pure
// function of its rng, so one seed always yields byte-identical bodies.

// job is one job of a generated instance: p units inside [r, d).
type job struct{ p, r, d int64 }

// inst is a generated instance in the wire job order.
type inst struct {
	g    int64
	jobs []job
	// roots are the top-level windows of a generated nested instance,
	// each with the spare capacity the generator left in its own pad
	// slots (g·pad minus the volume of the root's own jobs).
	roots []rootWindow
}

type rootWindow struct {
	r, d, pad, spare int64
}

// forestJobs is the single size class of the forest workloads. One size
// keeps the latency distribution unimodal, so its median and tail do not
// jump between size modes from one seed to the next.
const forestJobs = 20000

// genForest builds a nested forest of exactly n jobs. The shape (trees,
// depth, fan-out, jobs per node), g, processing times and the job order
// all vary with rng. Processing times are 1 or 2 in every forest: jobs
// longer than one slot are the general case, and one fixed range keeps
// the solve cost, and so the latency distribution, unimodal.
func genForest(rng *rand.Rand, n int) *inst {
	g := 2 + rng.Int64N(7)
	nodes := n / (2 + rng.IntN(7))
	return genNested(rng, n, nodes, 4+rng.IntN(13), 6+rng.IntN(10), g, 2, 2)
}

// genLaminar builds a small nested instance of n jobs with nesting
// depth at most 4 (so auto routes it to the nested95 LP); unit makes
// every processing time 1.
func genLaminar(rng *rand.Rand, n int, unit bool) *inst {
	maxP := int64(4)
	if unit {
		maxP = 1
	}
	return genNested(rng, n, 1+rng.IntN(n/2), 1+rng.IntN(2), 4, 1+rng.Int64N(4), maxP, 3)
}

// genNested spreads n jobs over a random forest of nodes windows with
// the given number of trees and depth limit. Every node owns pad slots
// of its own that fit its jobs at capacity g (plus up to slack-1 spare
// slots), so the instance is feasible by construction; a solver still
// saves slots by moving jobs into descendants' slots.
func genNested(rng *rand.Rand, n, nodes, trees, maxDepth int, g, maxP, slack int64) *inst {
	if nodes < 1 {
		nodes = 1
	}
	if trees > nodes {
		trees = nodes
	}
	parent := make([]int, nodes)
	depth := make([]int, nodes)
	children := make([][]int, nodes)
	for i := 0; i < nodes; i++ {
		parent[i] = -1
		if i < trees {
			continue
		}
		p := rng.IntN(i)
		for depth[p]+1 >= maxDepth {
			p = parent[p]
		}
		parent[i] = p
		depth[i] = depth[p] + 1
		children[p] = append(children[p], i)
	}
	count := make([]int, nodes)
	for i := range count {
		count[i] = 1
	}
	for k := nodes; k < n; k++ {
		count[rng.IntN(nodes)]++
	}
	out := &inst{g: g, jobs: make([]job, 0, n)}
	var emit func(v int, lo int64) int64
	emit = func(v int, lo int64) int64 {
		own := make([]int64, count[v])
		var vol, pmax int64
		for j := range own {
			own[j] = 1 + rng.Int64N(maxP)
			vol += own[j]
			pmax = max(pmax, own[j])
		}
		pad := max((vol+g-1)/g, pmax) + rng.Int64N(slack)
		left := rng.Int64N(pad + 1)
		hi := lo + left
		for _, c := range children[v] {
			hi = emit(c, hi)
		}
		hi += pad - left
		for _, p := range own {
			out.jobs = append(out.jobs, job{p: p, r: lo, d: hi})
		}
		if parent[v] < 0 {
			out.roots = append(out.roots, rootWindow{r: lo, d: hi, pad: pad, spare: g*pad - vol})
		}
		return hi
	}
	lo := rng.Int64N(5)
	for t := 0; t < trees; t++ {
		lo = emit(t, lo) + 1 + rng.Int64N(3)
	}
	shuffleJobs(rng, out.jobs)
	return out
}

// genCrossing builds a small instance whose windows cross (so auto
// routes it to greedy-minimal). Jobs are placed one by one into a
// witness schedule that respects capacity g, which makes the instance
// feasible by construction.
func genCrossing(rng *rand.Rand, n int) *inst {
	g := 1 + rng.Int64N(3)
	horizon := int64(4*n + 8)
	load := make([]int64, horizon)
	out := &inst{g: g}
	place := func(r, d, p int64) bool {
		free := int64(0)
		for t := r; t < d; t++ {
			if load[t] < g {
				free++
			}
		}
		if free < p {
			return false
		}
		for t, left := r, p; t < d && left > 0; t++ {
			if load[t] < g {
				load[t]++
				left--
			}
		}
		out.jobs = append(out.jobs, job{p: p, r: r, d: d})
		return true
	}
	// Two windows that cross guarantee the instance is not laminar.
	a := rng.Int64N(horizon - 8)
	place(a, a+4, 1)
	place(a+2, a+6, 1)
	for len(out.jobs) < n {
		p := 1 + rng.Int64N(3)
		w := p + rng.Int64N(6)
		r := rng.Int64N(horizon - w)
		place(r, r+w, p)
	}
	shuffleJobs(rng, out.jobs)
	return out
}

// raiseG is a near-miss delta that keeps the jobs and raises g by k.
func raiseG(rng *rand.Rand, base *inst, k int64) *inst {
	out := &inst{g: base.g + k, jobs: append([]job(nil), base.jobs...), roots: base.roots}
	shuffleJobs(rng, out.jobs)
	return out
}

// growRoot is a near-miss delta that adds up to extra new jobs whose
// window is one of base's root windows, within the spare capacity the
// generator left there, so the delta stays nested and feasible. It
// returns nil when no root has spare capacity.
func growRoot(rng *rand.Rand, base *inst, extra int) *inst {
	var open []rootWindow
	for _, rw := range base.roots {
		if rw.spare > 0 {
			open = append(open, rw)
		}
	}
	if len(open) == 0 {
		return nil
	}
	rw := open[rng.IntN(len(open))]
	out := &inst{g: base.g, jobs: append([]job(nil), base.jobs...)}
	spare := rw.spare
	for k := 0; k < extra && spare > 0; k++ {
		p := 1 + rng.Int64N(2)
		if p > spare {
			p = spare
		}
		if p > rw.pad {
			p = rw.pad
		}
		spare -= p
		out.jobs = append(out.jobs, job{p: p, r: rw.r, d: rw.d})
	}
	shuffleJobs(rng, out.jobs)
	return out
}

// permuted returns base with its jobs in a fresh random order: the same
// instance for the solve cache, different bytes on the wire.
func permuted(rng *rand.Rand, base *inst) *inst {
	out := &inst{g: base.g, jobs: append([]job(nil), base.jobs...), roots: base.roots}
	shuffleJobs(rng, out.jobs)
	return out
}

func shuffleJobs(rng *rand.Rand, js []job) {
	rng.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
}

// body encodes a /solve request for in: algorithm unset (so the server
// routes it), schedule requested (so the answer can be checked).
func body(in *inst) []byte {
	b := make([]byte, 0, 32+len(in.jobs)*28)
	b = append(b, `{"instance":{"g":`...)
	b = strconv.AppendInt(b, in.g, 10)
	b = append(b, `,"jobs":[`...)
	for i, j := range in.jobs {
		if i > 0 {
			b = append(b, ',')
		}
		b = jobJSON(b, j)
	}
	b = append(b, `]},"include_schedule":true}`...)
	return b
}

func jobJSON(b []byte, j job) []byte {
	b = append(b, `{"p":`...)
	b = strconv.AppendInt(b, j.p, 10)
	b = append(b, `,"r":`...)
	b = strconv.AppendInt(b, j.r, 10)
	b = append(b, `,"d":`...)
	b = strconv.AppendInt(b, j.d, 10)
	return append(b, '}')
}
