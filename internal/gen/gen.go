// Package gen produces random active-time instances with
// deterministic seeding: laminar (nested) families built by recursive
// window splitting, tight laminar forests whose windows own just
// enough slots for their jobs, unit-job variants, and general
// instances with arbitrary (possibly crossing) windows. Generators
// retry until the instance is feasible (or are feasible by
// construction), so callers always receive solvable inputs.
package gen

import (
	"math/rand"

	"repro/internal/flowfeas"
	"repro/internal/instance"
)

// LaminarParams controls RandomLaminar.
type LaminarParams struct {
	// MaxJobs caps the number of jobs (at least 1 is produced).
	MaxJobs int
	// Horizon is the length of the base window.
	Horizon int64
	// G is the machine capacity.
	G int64
	// MaxDepth bounds the window nesting depth.
	MaxDepth int
	// SplitProb is the per-node probability (in [0,1]) of splitting a
	// window into sub-windows.
	SplitProb float64
	// JobsPerWindow is the maximum number of jobs sharing one window.
	JobsPerWindow int
	// MaxProcessing caps job processing times (clamped to window
	// length). Zero means no cap beyond the window.
	MaxProcessing int64
	// Tight switches to the tight forest shape (see RandomLaminar);
	// Horizon and SplitProb are then unused.
	Tight bool
}

// TightLaminar returns tight-mode parameters for n jobs: p ∈ {1,2},
// nesting depth at most 4, about four jobs per window.
func TightLaminar(n int, g int64) LaminarParams {
	p := DefaultLaminar(n, g)
	p.JobsPerWindow = 4
	p.MaxProcessing = 2
	p.Tight = true
	return p
}

// DefaultLaminar returns sensible parameters for n jobs.
func DefaultLaminar(n int, g int64) LaminarParams {
	return LaminarParams{
		MaxJobs:       n,
		Horizon:       int64(3*n) + 4,
		G:             g,
		MaxDepth:      4,
		SplitProb:     0.7,
		JobsPerWindow: 2,
		MaxProcessing: 4,
	}
}

// RandomLaminar generates a feasible nested instance. The window
// family is built by recursively splitting the horizon, so it is
// laminar by construction.
//
// In tight mode it instead grows a random forest of windows (depth at
// most MaxDepth, about JobsPerWindow jobs each, processing times in
// {1, 2} capped by MaxProcessing) in which every window owns
// max(⌈vol/g⌉, max p) slots of its own beside its children: just
// enough for its own jobs, so the instance is feasible by
// construction and has no slack to spare. These are the shapes on
// which a greedy that fills windows innermost-first runs out of room
// and must shift nested jobs to place an outer one.
func RandomLaminar(rng *rand.Rand, p LaminarParams) *instance.Instance {
	if p.Tight {
		return tightLaminar(rng, p)
	}
	for {
		in := tryLaminar(rng, p)
		if in != nil && feasible(in) {
			return in
		}
	}
}

func tryLaminar(rng *rand.Rand, p LaminarParams) *instance.Instance {
	// Phase 1: grow a random laminar window family by recursive
	// splitting of the horizon.
	type win struct{ lo, hi int64 }
	windows := []win{{0, p.Horizon}}
	var split func(lo, hi int64, depth int)
	split = func(lo, hi int64, depth int) {
		if depth >= p.MaxDepth || hi-lo < 2 || rng.Float64() > p.SplitProb {
			return
		}
		mid := lo + 1 + rng.Int63n(hi-lo-1)
		// Each half becomes a window with some probability, so gaps
		// (parent-exclusive regions) occur naturally.
		if rng.Intn(4) > 0 {
			windows = append(windows, win{lo, mid})
			split(lo, mid, depth+1)
		}
		if rng.Intn(4) > 0 {
			windows = append(windows, win{mid, hi})
			split(mid, hi, depth+1)
		}
	}
	split(0, p.Horizon, 0)

	// Phase 2: place jobs on randomly chosen windows until the cap.
	jobs := make([]instance.Job, 0, p.MaxJobs)
	for len(jobs) < p.MaxJobs {
		w := windows[rng.Intn(len(windows))]
		maxP := w.hi - w.lo
		if p.MaxProcessing > 0 && p.MaxProcessing < maxP {
			maxP = p.MaxProcessing
		}
		jobs = append(jobs, instance.Job{
			Processing: 1 + rng.Int63n(maxP),
			Release:    w.lo,
			Deadline:   w.hi,
		})
	}
	in, err := instance.New(p.G, jobs)
	if err != nil {
		return nil
	}
	return in
}

func tightLaminar(rng *rand.Rand, p LaminarParams) *instance.Instance {
	n := maxInt(p.MaxJobs, 1)
	per := maxInt(p.JobsPerWindow, 1)
	maxP := p.MaxProcessing
	if maxP < 1 || maxP > 2 {
		maxP = 2
	}
	// A random recursive forest: the first trees nodes are roots, every
	// later node hangs below a random earlier one within the depth cap.
	nodes := (n + per - 1) / per
	trees := 1 + nodes/64
	if p.MaxDepth <= 1 {
		trees = nodes
	}
	parent := make([]int, nodes)
	depth := make([]int, nodes)
	children := make([][]int, nodes)
	for i := range parent {
		parent[i] = -1
		if i < trees {
			continue
		}
		q := rng.Intn(i)
		for depth[q]+1 >= p.MaxDepth {
			q = parent[q]
		}
		parent[i], depth[i] = q, depth[q]+1
		children[q] = append(children[q], i)
	}
	count := make([]int, nodes)
	for i := range count {
		count[i] = 1
	}
	for k := nodes; k < n; k++ {
		count[rng.Intn(nodes)]++
	}
	jobs := make([]instance.Job, 0, n)
	// emit lays out node v from slot lo: a random share of its own pad,
	// then its children back to back, then the rest of the pad.
	var emit func(v int, lo int64) int64
	emit = func(v int, lo int64) int64 {
		own := make([]int64, count[v])
		var vol, pmax int64
		for j := range own {
			own[j] = 1 + rng.Int63n(maxP)
			vol += own[j]
			pmax = max(pmax, own[j])
		}
		pad := max((vol+p.G-1)/p.G, pmax)
		left := rng.Int63n(pad + 1)
		hi := lo + left
		for _, c := range children[v] {
			hi = emit(c, hi)
		}
		hi += pad - left
		for _, q := range own {
			jobs = append(jobs, instance.Job{Processing: q, Release: lo, Deadline: hi})
		}
		return hi
	}
	lo := int64(0)
	for t := 0; t < trees; t++ {
		lo = emit(t, lo) + 1
	}
	return instance.MustNew(p.G, jobs)
}

// GeneralParams controls RandomGeneral.
type GeneralParams struct {
	Jobs          int
	Horizon       int64
	G             int64
	MaxWindow     int64
	MaxProcessing int64
}

// DefaultGeneral returns sensible parameters for n jobs.
func DefaultGeneral(n int, g int64) GeneralParams {
	return GeneralParams{
		Jobs:          n,
		Horizon:       int64(2*n) + 4,
		G:             g,
		MaxWindow:     8,
		MaxProcessing: 4,
	}
}

// RandomGeneral generates a feasible instance whose windows may cross,
// exercising the general-problem baselines.
func RandomGeneral(rng *rand.Rand, p GeneralParams) *instance.Instance {
	for {
		jobs := make([]instance.Job, p.Jobs)
		ok := true
		for i := range jobs {
			w := 1 + rng.Int63n(p.MaxWindow)
			if w > p.Horizon {
				w = p.Horizon
			}
			r := rng.Int63n(p.Horizon - w + 1)
			maxP := w
			if p.MaxProcessing > 0 && p.MaxProcessing < maxP {
				maxP = p.MaxProcessing
			}
			jobs[i] = instance.Job{
				Processing: 1 + rng.Int63n(maxP),
				Release:    r,
				Deadline:   r + w,
			}
		}
		if !ok {
			continue
		}
		in, err := instance.New(p.G, jobs)
		if err != nil {
			continue
		}
		if feasible(in) {
			return in
		}
	}
}

// RandomUnitLaminar generates a feasible nested instance with unit
// processing times (the polynomial-time special case of Chang, Gabow
// and Khuller).
func RandomUnitLaminar(rng *rand.Rand, p LaminarParams) *instance.Instance {
	p.MaxProcessing = 1
	return RandomLaminar(rng, p)
}

func feasible(in *instance.Instance) bool {
	return flowfeas.CheckSlots(in, in.SortedSlots())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
