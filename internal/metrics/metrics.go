// Package metrics is the instrumentation layer for the solver
// pipeline: stage wall-clock timers, monotonic operation counters and
// latency histograms, all safe for concurrent use. A single Recorder
// is threaded through every stage of a solve — simplex and ratsimplex
// pivots, Dinic and push-relabel operations, branch-and-bound node
// expansion, the Lemma 3.1 push-down moves — so a Report can explain
// where the work went, not just what came out.
//
// Counters are plain atomics. Hot loops (a simplex pivot, a Dinic
// augmentation) accumulate into stack-local integers and publish once
// per solve/run, so instrumentation adds no per-operation atomic
// traffic and no allocations. All Recorder methods tolerate being
// called on the shared discard recorder returned by OrNop(nil), which
// lets call sites skip nil checks.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stage identifies one stage of the core solve pipeline (DESIGN.md §3).
type Stage int

// Pipeline stages, in execution order.
const (
	StageTreeBuild    Stage = iota // lamtree.Build
	StageCanonicalize              // tree canonicalization (binary + rigid leaves)
	StageFeasGate                  // all-open feasibility gate
	StageLPBuild                   // LP model construction (incl. OPT_i oracles)
	StageLPSolve                   // simplex / ratsimplex optimization
	StageTransform                 // Lemma 3.1 push-down transformation
	StageRound                     // Algorithm 1 rounding
	StageFeasCheck                 // post-rounding flow verification
	StageRepair                    // numeric repair (expected: never runs)
	StageMinimalize                // optional minimalization post-pass
	StagePlace                     // slot placement + column packing
	StageValidate                  // whole-schedule validation
	// Combinatorial-path stages (internal/comb); appended after the LP
	// pipeline stages so existing indices stay stable.
	StageCombActivate   // lazy activation + placement walk
	StageCombDeactivate // lazy deactivation sweep
	numStages
)

// String returns the stage's stable snake_case name, used as the JSON
// key in Stats.
func (s Stage) String() string {
	switch s {
	case StageTreeBuild:
		return "tree_build"
	case StageCanonicalize:
		return "canonicalize"
	case StageFeasGate:
		return "feas_gate"
	case StageLPBuild:
		return "lp_build"
	case StageLPSolve:
		return "lp_solve"
	case StageTransform:
		return "transform"
	case StageRound:
		return "round"
	case StageFeasCheck:
		return "feas_check"
	case StageRepair:
		return "repair"
	case StageMinimalize:
		return "minimalize"
	case StagePlace:
		return "place"
	case StageValidate:
		return "validate"
	case StageCombActivate:
		return "comb_activate"
	case StageCombDeactivate:
		return "comb_deactivate"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Stages lists every pipeline stage in execution order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Counter is a monotonic, race-safe event counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be the result of a stack-local accumulation).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// histBuckets is the number of power-of-two histogram buckets; bucket
// k counts observations v with 2^k ≤ v < 2^(k+1) (bucket 0 also takes
// v ≤ 1, the last bucket takes everything larger).
const histBuckets = 40

// Histogram is a race-safe histogram over int64 observations with
// fixed power-of-two buckets — no allocation per observation.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

func bucketOf(v int64) int {
	b := 0
	for v > 1 && b < histBuckets-1 {
		v >>= 1
		b++
	}
	return b
}

// HistogramStats is an immutable snapshot of a Histogram.
type HistogramStats struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty histogram bucket covering [Lo, Hi).
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Mean returns the average observation, or 0 when empty.
func (h HistogramStats) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

func (h *Histogram) snapshot() HistogramStats {
	out := HistogramStats{Count: h.count.Load(), Sum: h.sum.Load()}
	for k := 0; k < histBuckets; k++ {
		n := h.buckets[k].Load()
		if n == 0 {
			continue
		}
		lo := int64(0)
		if k > 0 {
			lo = int64(1) << uint(k)
		}
		out.Buckets = append(out.Buckets, HistBucket{Lo: lo, Hi: int64(1) << uint(k+1), Count: n})
	}
	return out
}

// stageAcc accumulates wall time and call count for one stage.
type stageAcc struct {
	ns    atomic.Int64
	calls atomic.Int64
}

// Recorder collects everything one solve (or one experiment sweep)
// does. The zero value is ready to use; share a single Recorder across
// goroutines freely — every field is atomic.
type Recorder struct {
	// Float simplex (internal/simplex).
	SimplexSolves       Counter
	SimplexPivots       Counter
	SimplexPhase1Pivots Counter
	// Exact rational simplex (internal/ratsimplex).
	RatSolves Counter
	RatPivots Counter
	// Dinic max-flow (internal/maxflow.Run).
	DinicRuns      Counter
	DinicBFSRounds Counter
	DinicAugPaths  Counter
	// Push-relabel max-flow (internal/maxflow.RunPushRelabel).
	PushRelabelRuns     Counter
	PushRelabelPushes   Counter
	PushRelabelRelabels Counter
	// Exact branch & bound (internal/exact).
	BBNodesExpanded Counter
	BBNodesPruned   Counter
	// Lemma 3.1 transformation push-down moves (internal/nestlp).
	TransformMoves Counter
	// Independent laminar forests solved (internal/core components).
	ForestsSolved Counter
	// Combinatorial solver (internal/comb): slots opened by lazy
	// activation, job units placed into already-active slots, slots
	// closed by the deactivation sweep, and augmenting paths taken to
	// repair a job the greedy left short.
	CombActivations   Counter
	CombReused        Counter
	CombDeactivations Counter
	CombRepairs       Counter

	// ForestSolveNS is the latency distribution of one forest solve in
	// nanoseconds; with Workers > 1 these overlap in wall time.
	ForestSolveNS Histogram

	stages [numStages]stageAcc
}

// nop is the shared discard recorder; see OrNop.
var nop = &Recorder{}

// OrNop returns r, or a shared discard Recorder when r is nil, so call
// sites can instrument unconditionally. Never snapshot the discard
// recorder — it mixes counts from every uninstrumented caller.
func OrNop(r *Recorder) *Recorder {
	if r == nil {
		return nop
	}
	return r
}

// Active reports whether r actually records: false for nil and for the
// shared discard recorder returned by OrNop(nil). Hot paths guard
// their counter publishes and stage timers behind it, so an absent
// recorder costs one predictable branch instead of atomic traffic on
// the shared discard recorder's cache lines (or a time.Now call).
func Active(r *Recorder) bool { return r != nil && r != nop }

// ObserveStage adds one timed call to stage s. A nil or discard
// recorder drops the observation after a branch.
func (r *Recorder) ObserveStage(s Stage, d time.Duration) {
	if !Active(r) || s < 0 || s >= numStages {
		return
	}
	r.stages[s].ns.Add(int64(d))
	r.stages[s].calls.Add(1)
}

// nopStop is the shared no-op returned by StartStage on an inactive
// recorder, so the disabled path allocates no closure.
var nopStop = func() {}

// StartStage starts timing stage s and returns the function that stops
// the clock:
//
//	stop := rec.StartStage(metrics.StageLPSolve)
//	... work ...
//	stop()
//
// On a nil or discard recorder it skips the clock reads entirely and
// returns a shared no-op stop.
func (r *Recorder) StartStage(s Stage) func() {
	if !Active(r) {
		return nopStop
	}
	start := time.Now()
	return func() { r.ObserveStage(s, time.Since(start)) }
}

// StageNanos returns the accumulated wall time of stage s in
// nanoseconds.
func (r *Recorder) StageNanos(s Stage) int64 {
	if s < 0 || s >= numStages {
		return 0
	}
	return r.stages[s].ns.Load()
}

// CounterStats is the deterministic part of a Stats snapshot: pure
// operation counts, independent of wall clock and (for a fixed
// instance) of worker-pool size.
type CounterStats struct {
	SimplexSolves       int64 `json:"simplex_solves"`
	SimplexPivots       int64 `json:"simplex_pivots"`
	SimplexPhase1Pivots int64 `json:"simplex_phase1_pivots"`
	RatSolves           int64 `json:"ratsimplex_solves"`
	RatPivots           int64 `json:"ratsimplex_pivots"`
	DinicRuns           int64 `json:"dinic_runs"`
	DinicBFSRounds      int64 `json:"dinic_bfs_rounds"`
	DinicAugPaths       int64 `json:"dinic_augmenting_paths"`
	PushRelabelRuns     int64 `json:"push_relabel_runs"`
	PushRelabelPushes   int64 `json:"push_relabel_pushes"`
	PushRelabelRelabels int64 `json:"push_relabel_relabels"`
	BBNodesExpanded     int64 `json:"bb_nodes_expanded"`
	BBNodesPruned       int64 `json:"bb_nodes_pruned"`
	TransformMoves      int64 `json:"transform_moves"`
	ForestsSolved       int64 `json:"forests_solved"`
	CombActivations     int64 `json:"comb_activations"`
	CombReused          int64 `json:"comb_reused"`
	CombDeactivations   int64 `json:"comb_deactivations"`
	CombRepairs         int64 `json:"comb_repairs"`
}

// StageStats is one stage's aggregate timing.
type StageStats struct {
	Stage string `json:"stage"`
	Calls int64  `json:"calls"`
	Nanos int64  `json:"nanos"`
}

// Stats is an immutable snapshot of a Recorder, JSON-marshalable for
// the CLI's -stats output. Counters are deterministic for a fixed
// instance; Stages and ForestSolveNS carry wall-clock measurements and
// are not.
type Stats struct {
	Counters      CounterStats   `json:"counters"`
	Stages        []StageStats   `json:"stages,omitempty"`
	ForestSolveNS HistogramStats `json:"forest_solve_ns"`
}

// Snapshot captures the recorder's current totals.
func (r *Recorder) Snapshot() *Stats {
	s := &Stats{
		Counters: CounterStats{
			SimplexSolves:       r.SimplexSolves.Load(),
			SimplexPivots:       r.SimplexPivots.Load(),
			SimplexPhase1Pivots: r.SimplexPhase1Pivots.Load(),
			RatSolves:           r.RatSolves.Load(),
			RatPivots:           r.RatPivots.Load(),
			DinicRuns:           r.DinicRuns.Load(),
			DinicBFSRounds:      r.DinicBFSRounds.Load(),
			DinicAugPaths:       r.DinicAugPaths.Load(),
			PushRelabelRuns:     r.PushRelabelRuns.Load(),
			PushRelabelPushes:   r.PushRelabelPushes.Load(),
			PushRelabelRelabels: r.PushRelabelRelabels.Load(),
			BBNodesExpanded:     r.BBNodesExpanded.Load(),
			BBNodesPruned:       r.BBNodesPruned.Load(),
			TransformMoves:      r.TransformMoves.Load(),
			ForestsSolved:       r.ForestsSolved.Load(),
			CombActivations:     r.CombActivations.Load(),
			CombReused:          r.CombReused.Load(),
			CombDeactivations:   r.CombDeactivations.Load(),
			CombRepairs:         r.CombRepairs.Load(),
		},
		ForestSolveNS: r.ForestSolveNS.snapshot(),
	}
	for i := 0; i < int(numStages); i++ {
		calls := r.stages[i].calls.Load()
		if calls == 0 {
			continue
		}
		s.Stages = append(s.Stages, StageStats{
			Stage: Stage(i).String(),
			Calls: calls,
			Nanos: r.stages[i].ns.Load(),
		})
	}
	return s
}

// StageNS returns the snapshot's accumulated nanoseconds for the named
// stages (missing names contribute zero).
func (s *Stats) StageNS(names ...string) int64 {
	var total int64
	for _, st := range s.Stages {
		for _, n := range names {
			if st.Stage == n {
				total += st.Nanos
			}
		}
	}
	return total
}
