package comb

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ErrWarmMismatch reports that a retained WarmState cannot be resumed
// for the given instance: structural drift between the snapshot and
// the instance, or a delta that is infeasible (some new job has no
// augmenting path on top of the base placement). Callers treat it as
// "solve cold".
var ErrWarmMismatch = errors.New("comb: warm state does not match instance")

// WarmState is a compact snapshot of a finished placement, retained by
// the solve cache so a later near-miss request (raised g, or a job
// superset nested in the same forest) can resume instead of solving
// cold. All slices are owned by the snapshot and treated as read-only;
// resuming deep-copies the mutable parts, so one snapshot can warm any
// number of concurrent requests.
type WarmState struct {
	// G and Jobs identify the placement's instance shape.
	G    int64
	Jobs int
	// Roots/Off describe the compressed slot universe (the laminar
	// forest's root windows and their prefix offsets).
	Roots []interval.Interval
	Off   []int64
	// Load, SlotJobs and JobSlots are the final assignment: jobs per
	// slot and slots per job, indexed over the compressed universe.
	Load     []int64
	SlotJobs [][]int32
	JobSlots [][]int32
}

// SizeBytes estimates the retained heap footprint, used by the solve
// cache's warm-state byte budget.
func (w *WarmState) SizeBytes() int64 {
	b := int64(len(w.Roots))*16 + int64(len(w.Off))*8 + int64(len(w.Load))*8
	b += int64(len(w.SlotJobs)) * 24
	for _, s := range w.SlotJobs {
		b += int64(len(s)) * 4
	}
	b += int64(len(w.JobSlots)) * 24
	for _, s := range w.JobSlots {
		b += int64(len(s)) * 4
	}
	return b
}

// captureWarm freezes the final placement state as a WarmState. Called
// only after the schedule is extracted and validated, when the state is
// about to be discarded, so taking ownership of the slices is free.
func (st *state) captureWarm() *WarmState {
	return &WarmState{
		G:        st.in.G,
		Jobs:     st.in.N(),
		Roots:    st.roots,
		Off:      st.off,
		Load:     st.load,
		SlotJobs: st.slotJobs,
		JobSlots: st.jobSlots,
	}
}

// restore rebuilds a mutable placement state for the new instance from
// a retained snapshot. mapping translates old job indices to new ones
// (nil = identity, for raised-g deltas where the job set is unchanged).
func (w *WarmState) restore(in *instance.Instance, mapping []int32) (*state, error) {
	st := &state{in: in}
	st.roots = w.Roots // read-only: shared with the snapshot
	st.off = w.Off     // read-only: shared with the snapshot
	n := len(w.Load)
	st.load = append([]int64(nil), w.Load...)
	st.slotJobs = make([][]int32, n)
	st.inact = newLeftDSU(n)
	st.avail = newPredSet(n)
	for si, l := range st.load {
		if int64(len(w.SlotJobs[si])) != l {
			return nil, fmt.Errorf("%w: slot %d load/assignment drift", ErrWarmMismatch, si)
		}
		if l == 0 {
			continue
		}
		st.inact.remove(si)
		if l < in.G {
			st.avail.set(si)
		}
		js := make([]int32, len(w.SlotJobs[si]))
		for k, ji := range w.SlotJobs[si] {
			nj := ji
			if mapping != nil {
				nj = mapping[ji]
			}
			js[k] = nj
		}
		st.slotJobs[si] = js
	}
	st.jobLo = make([]int32, in.N())
	st.jobHi = make([]int32, in.N())
	st.jobSlots = make([][]int32, in.N())
	for i, j := range in.Jobs {
		r := sort.Search(len(st.roots), func(k int) bool { return st.roots[k].End > j.Release })
		if r >= len(st.roots) || j.Release < st.roots[r].Start || j.Deadline > st.roots[r].End {
			return nil, fmt.Errorf("%w: job %d window outside the retained forest", ErrWarmMismatch, i)
		}
		lo := st.off[r] + (j.Release - st.roots[r].Start)
		st.jobLo[i] = int32(lo)
		st.jobHi[i] = int32(lo + (j.Deadline - j.Release))
	}
	for oi := 0; oi < w.Jobs; oi++ {
		ni := oi
		if mapping != nil {
			ni = int(mapping[oi])
		}
		st.jobSlots[ni] = append([]int32(nil), w.JobSlots[oi]...)
	}
	return st, nil
}

// ResumeRaiseG resumes a retained placement for the same job set at a
// capacity in.G ≥ the snapshot's. The old placement stays feasible
// verbatim (capacities only grew), so the whole solve reduces to the
// lazy-deactivation sweep exploiting the new slack. The result's
// active-slot count never exceeds the snapshot's.
func ResumeRaiseG(ctx context.Context, in *instance.Instance, w *WarmState, opts Options) (*sched.Schedule, *Report, error) {
	if in.N() != w.Jobs || in.G < w.G {
		return nil, nil, fmt.Errorf("%w: raise-g shape (jobs %d vs %d, g %d vs %d)",
			ErrWarmMismatch, in.N(), w.Jobs, in.G, w.G)
	}
	return resume(ctx, in, w, nil, nil, opts)
}

// ResumeSuperset resumes a retained placement after new jobs were
// added, all with windows nested inside the retained forest, at the
// same capacity. mapping[oldIdx] gives each retained job's index in
// the new instance (same window and processing, per the caller's
// classification); newJobs lists the added jobs' indices. Only the new
// jobs are replayed through lazy activation, then the deactivation
// sweep runs over the combined placement. The result's active-slot
// count never exceeds the snapshot's plus the new jobs' total
// processing. A new job the greedy cannot place in full is repaired by
// the same augmenting-path search as a cold solve; a base job may
// enclose the new one here, so the search follows every moved job over
// its own window, and the result is still exact: the resume fails only
// when the delta is infeasible.
func ResumeSuperset(ctx context.Context, in *instance.Instance, w *WarmState, mapping []int32, newJobs []int, opts Options) (*sched.Schedule, *Report, error) {
	if in.G != w.G || len(mapping) != w.Jobs || w.Jobs+len(newJobs) != in.N() {
		return nil, nil, fmt.Errorf("%w: superset shape (jobs %d+%d vs %d, g %d vs %d)",
			ErrWarmMismatch, len(mapping), len(newJobs), in.N(), in.G, w.G)
	}
	return resume(ctx, in, w, mapping, newJobs, opts)
}

func resume(ctx context.Context, in *instance.Instance, w *WarmState, mapping []int32, newJobs []int, opts Options) (*sched.Schedule, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rec := opts.Metrics
	ownRec := rec == nil
	if ownRec {
		rec = new(metrics.Recorder)
	}
	rep := &Report{}

	sp := opts.Trace.StartSpan("solve_warm",
		trace.String("algorithm", "comb"),
		trace.Int("jobs", int64(in.N())), trace.Int("new_jobs", int64(len(newJobs))))
	defer sp.End()

	stop := rec.StartStage(metrics.StageCombActivate)
	asp := sp.StartChild("warm_restore")
	st, err := w.restore(in, mapping)
	asp.End()
	if err != nil {
		stop()
		return nil, nil, err
	}
	if len(newJobs) > 0 {
		psp := sp.StartChild("warm_place_new")
		order := append([]int(nil), newJobs...)
		innermostOrder(in, order)
		perr := st.placeOrder(ctx, order)
		psp.End()
		if errors.Is(perr, ErrInfeasible) {
			perr = fmt.Errorf("%w: %v", ErrWarmMismatch, perr)
		}
		if perr != nil {
			stop()
			return nil, nil, perr
		}
	}
	stop()
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
		return nil, nil, fmt.Errorf("%w: resumed schedule invalid: %v", ErrWarmMismatch, err)
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
