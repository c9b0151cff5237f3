// Package comb is the production combinatorial solver for nested
// active-time instances: a Chang–Gabow–Khuller / Kumar–Khuller style
// lazy-activation / lazy-deactivation algorithm over the laminar
// forest, running in O(n log n + P·α) for P total processing units —
// and, crucially, in O(n + horizon) memory. It is the fast path for
// the deep or huge instances whose strengthened-LP tableau (~depth⁴
// cells on a single chain) cannot be materialized; `AlgAuto` in the
// root package routes such instances here.
//
// The algorithm processes jobs innermost-first (deadline ascending,
// release descending), which by laminarity means every job placed
// earlier whose window overlaps the current one is nested inside it.
// Each job first reuses active non-full slots of its window latest
// first (a predecessor-bitset walk), then lazily activates the latest
// inactive slots (a union-find walk) for any deficit. When a job's
// window is exhausted before it is placed in full (every slot full or
// already its own — common once jobs are longer than one slot), each
// missing unit is repaired by a shortest augmenting path in the
// residual job×slot graph: nested jobs shift within their own windows
// until a slot with spare capacity absorbs the last move (counted in
// the comb_repairs metric). When no path exists, max-flow duality
// says the instance is infeasible, and that is reported without a
// flow solve. A final lazy deactivation sweep tries to drain
// lightly-loaded slots into the residual capacity of other active
// slots and close them. The schedule is validated by sched.Validate
// before it is returned.
package comb

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/lamtree"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// maxSlots bounds the slot universe (sum of root-window lengths) so
// per-slot arrays stay indexable by int32 and allocations bounded.
const maxSlots = 1 << 31

// Options tunes SolveContext.
type Options struct {
	// Metrics optionally supplies an external recorder; when nil the
	// solve gets a fresh one and Report.Stats covers exactly this
	// solve.
	Metrics *metrics.Recorder
	// Trace optionally receives the solve's spans; nil disables
	// tracing.
	Trace *trace.Tracer
	// CaptureWarm retains the final placement state on Report.Warm so
	// the solve cache can warm-start later near-miss requests.
	CaptureWarm bool
}

// Report describes what one combinatorial solve did.
type Report struct {
	// ActiveSlots is the objective value achieved.
	ActiveSlots int64
	// Activated counts slots opened by lazy activation (before the
	// deactivation sweep).
	Activated int64
	// Reused counts job units placed into already-active slots.
	Reused int64
	// Deactivated counts slots closed by the lazy-deactivation sweep.
	Deactivated int64
	// Repairs counts augmenting paths taken to place units the greedy
	// left short (mirrored by the comb_repairs counter).
	Repairs int64
	// Depth is the laminar forest's maximum nesting depth.
	Depth int
	// Stats is the instrumentation snapshot when Options.Metrics was
	// nil.
	Stats *metrics.Stats
	// Warm is the retained placement snapshot when Options.CaptureWarm
	// was set.
	Warm *WarmState
}

// Solve runs the combinatorial solver with default options.
func Solve(in *instance.Instance) (*sched.Schedule, *Report, error) {
	return SolveContext(context.Background(), in, Options{})
}

// SolveContext runs the combinatorial solver. It requires nested
// (laminar) windows and returns a feasible validated schedule, an
// error for non-laminar input, an error wrapping ErrInfeasible for
// infeasible input, or ctx.Err() on cancellation (checked every
// placement block and inside each augmenting-path search).
func SolveContext(ctx context.Context, in *instance.Instance, opts Options) (*sched.Schedule, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	rec := opts.Metrics
	ownRec := rec == nil
	if ownRec {
		rec = new(metrics.Recorder)
	}
	rep := &Report{Depth: 1}
	if in.N() == 0 {
		if ownRec {
			rep.Stats = rec.Snapshot()
		}
		return sched.New(in.G), rep, nil
	}

	sp := opts.Trace.StartSpan("solve",
		trace.String("algorithm", "comb"), trace.Int("jobs", int64(in.N())))
	defer sp.End()

	stop := rec.StartStage(metrics.StageTreeBuild)
	tsp := sp.StartChild("tree_build")
	t, err := lamtree.Build(in)
	tsp.End()
	stop()
	if err != nil {
		return nil, nil, err
	}
	for _, nd := range t.Nodes {
		if nd.Depth+1 > rep.Depth {
			rep.Depth = nd.Depth + 1
		}
	}
	sp.SetAttr(trace.Int("depth", int64(rep.Depth)), trace.Int("roots", int64(len(t.Roots))))

	st, err := newState(in, t)
	if err != nil {
		return nil, nil, err
	}

	stop = rec.StartStage(metrics.StageCombActivate)
	asp := sp.StartChild("comb_activate")
	err = st.place(ctx)
	asp.End()
	stop()
	if err != nil {
		return nil, nil, err
	}
	rep.Activated, rep.Reused, rep.Repairs = st.activated, st.reused, st.repairs

	stop = rec.StartStage(metrics.StageCombDeactivate)
	dsp := sp.StartChild("comb_deactivate")
	err = st.deactivate(ctx)
	dsp.End()
	stop()
	if err != nil {
		return nil, nil, err
	}
	rep.Deactivated = st.deactivated

	stop = rec.StartStage(metrics.StageValidate)
	vsp := sp.StartChild("validate")
	out := st.schedule()
	err = out.Validate(in)
	vsp.End()
	stop()
	if err != nil {
		return nil, nil, fmt.Errorf("comb: internal: schedule invalid: %w", err)
	}

	rec.CombActivations.Add(st.activated)
	rec.CombReused.Add(st.reused)
	rec.CombDeactivations.Add(st.deactivated)
	rec.CombRepairs.Add(st.repairs)
	rep.ActiveSlots = out.NumActive()
	if opts.CaptureWarm {
		rep.Warm = st.captureWarm()
	}
	if ownRec {
		rep.Stats = rec.Snapshot()
	}
	return out, rep, nil
}

// state is the mutable placement state over the compressed slot
// universe: the concatenation of the laminar forest's root windows,
// which every job window is contained in.
type state struct {
	in    *instance.Instance
	roots []interval.Interval
	off   []int64 // off[i] = index of roots[i].Start; off[len] = total

	load     []int64   // jobs assigned per slot
	slotJobs [][]int32 // job IDs per slot (only active slots non-nil)
	jobLo    []int32   // per job, first slot index of its window
	jobHi    []int32   // per job, one past the last slot index
	jobSlots [][]int32 // per job, the slot indices it occupies

	inact *leftDSU    // latest still-inactive slot ≤ t
	avail *predSet    // active slots with load < g
	aug   *augScratch // augmenting-path scratch, made on first repair

	activated, reused, deactivated, repairs int64
}

func newState(in *instance.Instance, t *lamtree.Tree) (*state, error) {
	st := &state{in: in}
	st.roots = make([]interval.Interval, len(t.Roots))
	st.off = make([]int64, len(t.Roots)+1)
	for i, id := range t.Roots {
		st.roots[i] = t.Nodes[id].K
		st.off[i+1] = st.off[i] + st.roots[i].Len()
	}
	total := st.off[len(st.roots)]
	if total > maxSlots {
		return nil, fmt.Errorf("comb: slot universe too large (%d slots under the root windows)", total)
	}
	n := int(total)
	st.load = make([]int64, n)
	st.slotJobs = make([][]int32, n)
	st.inact = newLeftDSU(n)
	st.avail = newPredSet(n)
	st.jobLo = make([]int32, in.N())
	st.jobHi = make([]int32, in.N())
	st.jobSlots = make([][]int32, in.N())
	for i, j := range in.Jobs {
		r := sort.Search(len(st.roots), func(k int) bool { return st.roots[k].End > j.Release })
		lo := st.off[r] + (j.Release - st.roots[r].Start)
		st.jobLo[i] = int32(lo)
		st.jobHi[i] = int32(lo + (j.Deadline - j.Release))
	}
	return st, nil
}

// timeOf maps a slot index back to its time coordinate.
func (st *state) timeOf(idx int) int64 {
	r := sort.Search(len(st.off)-1, func(k int) bool { return st.off[k+1] > int64(idx) })
	return st.roots[r].Start + (int64(idx) - st.off[r])
}

// innermostOrder sorts the given job indices innermost-first: by
// laminarity, at the moment a job is placed every earlier job whose
// window overlaps it is nested inside it, so reusing their active
// slots is always legal and never blocks a later (outer) job from
// slots only it can use.
func innermostOrder(in *instance.Instance, order []int) {
	sort.Slice(order, func(a, b int) bool {
		ja, jb := in.Jobs[order[a]], in.Jobs[order[b]]
		if ja.Deadline != jb.Deadline {
			return ja.Deadline < jb.Deadline
		}
		if ja.Release != jb.Release {
			return ja.Release > jb.Release
		}
		if ja.Processing != jb.Processing {
			return ja.Processing > jb.Processing
		}
		return order[a] < order[b]
	})
}

// place runs the lazy-activation pass over all jobs innermost-first.
func (st *state) place(ctx context.Context) error {
	order := make([]int, st.in.N())
	for i := range order {
		order[i] = i
	}
	innermostOrder(st.in, order)
	return st.placeOrder(ctx, order)
}

// placeOrder runs the lazy-activation pass over the given jobs in the
// given order, repairing any unit the greedy cannot place by an
// augmenting path. The warm-start resume path reuses it to place only
// the delta's new jobs on top of a restored placement.
func (st *state) placeOrder(ctx context.Context, order []int) error {
	in := st.in
	chosen := make([]int32, 0, 64)
	for k, ji := range order {
		if k&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		j := in.Jobs[ji]
		lo, hi := int(st.jobLo[ji]), int(st.jobHi[ji])
		need := int(j.Processing)
		chosen = chosen[:0]
		// Reuse active non-full slots, latest first. The walk is
		// strictly decreasing, so the slots are distinct.
		for s := st.avail.pred(hi - 1); s >= lo && need > 0; s = st.avail.pred(s - 1) {
			chosen = append(chosen, int32(s))
			need--
		}
		st.reused += int64(len(chosen))
		// Lazily activate the latest inactive slots for the deficit.
		for s := st.inact.find(hi - 1); s >= lo && need > 0; {
			chosen = append(chosen, int32(s))
			need--
			st.inact.remove(s)
			st.avail.set(s)
			st.activated++
			s = st.inact.find(s - 1)
		}
		slots := make([]int32, len(chosen), len(chosen)+need)
		copy(slots, chosen)
		st.jobSlots[ji] = slots
		for _, s := range chosen {
			si := int(s)
			st.load[si]++
			st.slotJobs[si] = append(st.slotJobs[si], int32(ji))
			if st.load[si] == in.G {
				st.avail.clear(si)
			}
		}
		// Every slot of the window is now full or already this job's:
		// place each missing unit by an augmenting path.
		for ; need > 0; need-- {
			ok, err := st.augment(ctx, ji)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("%w: job %d (p=%d, window [%d,%d)) has no augmenting path",
					ErrInfeasible, ji, j.Processing, j.Release, j.Deadline)
			}
			st.repairs++
		}
	}
	return nil
}

// maxProbes bounds the predecessor-walk length when hunting a
// relocation target for one job unit, keeping the deactivation sweep
// O(n·maxProbes·log) while still catching the common case (the spare
// capacity is in a nearby slot of the same subtree).
const maxProbes = 32

// deactivate is the lazy-deactivation sweep: visit active slots
// lightest first and try to relocate all of their units into residual
// capacity of other active slots (within each job's window); a slot
// whose units all find homes is closed. Moves are committed only when
// the whole slot drains, so the sweep never increases the objective
// and preserves feasibility move by move.
func (st *state) deactivate(ctx context.Context) error {
	type cand struct {
		load int64
		slot int32
	}
	var cands []cand
	for si, l := range st.load {
		if l > 0 {
			cands = append(cands, cand{l, int32(si)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].load != cands[b].load {
			return cands[a].load < cands[b].load
		}
		return cands[a].slot < cands[b].slot
	})

	type move struct {
		job int32
		to  int32
	}
	var moves []move
	pendAt := func(slot int32) int64 {
		var n int64
		for _, m := range moves {
			if m.to == slot {
				n++
			}
		}
		return n
	}
	jobHolds := func(ji, slot int32) bool {
		for _, s := range st.jobSlots[ji] {
			if s == slot {
				return true
			}
		}
		for _, m := range moves {
			if m.job == ji && m.to == slot {
				return true
			}
		}
		return false
	}

	for k, c := range cands {
		if k&255 == 255 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		si := int(c.slot)
		// Earlier closures may have raised this slot's load; recheck.
		if st.load[si] == 0 {
			continue
		}
		jobsHere := append([]int32(nil), st.slotJobs[si]...)
		sort.Slice(jobsHere, func(a, b int) bool { return jobsHere[a] < jobsHere[b] })
		moves = moves[:0]
		ok := true
		for _, ji := range jobsHere {
			hi, lo := int(st.jobHi[ji]), int(st.jobLo[ji])
			target := -1
			probes := 0
			for s := st.avail.pred(hi - 1); s >= lo && probes < maxProbes; s = st.avail.pred(s - 1) {
				probes++
				if s == si || jobHolds(ji, int32(s)) {
					continue
				}
				if st.load[s]+pendAt(int32(s)) < st.in.G {
					target = s
					break
				}
			}
			if target < 0 {
				ok = false
				break
			}
			moves = append(moves, move{ji, int32(target)})
		}
		if !ok {
			continue
		}
		for _, m := range moves {
			ti := int(m.to)
			st.load[ti]++
			st.slotJobs[ti] = append(st.slotJobs[ti], m.job)
			if st.load[ti] == st.in.G {
				st.avail.clear(ti)
			}
			for x, s := range st.jobSlots[m.job] {
				if s == c.slot {
					st.jobSlots[m.job][x] = m.to
					break
				}
			}
		}
		st.load[si] = 0
		st.slotJobs[si] = nil
		st.avail.clear(si)
		st.deactivated++
	}
	return nil
}

// schedule materializes the final assignment.
func (st *state) schedule() *sched.Schedule {
	out := sched.New(st.in.G)
	for si, jobs := range st.slotJobs {
		if len(jobs) == 0 {
			continue
		}
		js := append([]int32(nil), jobs...)
		sort.Slice(js, func(a, b int) bool { return js[a] < js[b] })
		tm := st.timeOf(si)
		for _, ji := range js {
			out.Assign(tm, int(ji))
		}
	}
	return out
}
