package comb

import (
	"context"
	"errors"
)

// ErrInfeasible reports that some job cannot be placed: the
// augmenting-path search from its missing unit found no slot with
// spare capacity, so by max-flow duality no feasible schedule exists.
var ErrInfeasible = errors.New("comb: instance infeasible")

// augScratch is the reusable scratch of the augmenting-path search
// over the residual job×slot graph. Every per-search mark is stamped
// with the search's epoch instead of being cleared, so a search costs
// only what it visits and allocates nothing once the queue has grown.
type augScratch struct {
	epoch uint32
	// Per slot, valid while seen[s] == epoch: every slot in
	// (skip[s], s] has been reached; the job mover[s] would move into
	// s out of slot from[s] (-1: the short job takes s directly).
	seen  []uint32
	skip  []int32
	from  []int32
	mover []int32
	// expanded[k] == epoch once job k's window has been scanned.
	expanded []uint32
	// held[s] == mark while s belongs to the job being expanded.
	held  []uint32
	mark  uint32
	queue []int32 // full slots reached, in BFS order
	spare int     // first inactive slot reached, or -1
}

func newAugScratch(slots, jobs int) *augScratch {
	return &augScratch{
		seen:     make([]uint32, slots),
		skip:     make([]int32, slots),
		from:     make([]int32, slots),
		mover:    make([]int32, slots),
		expanded: make([]uint32, jobs),
		held:     make([]uint32, slots),
	}
}

// begin starts a new search epoch.
func (a *augScratch) begin() {
	a.epoch++
	if a.epoch == 0 { // wrapped: forget every stale stamp
		clear(a.seen)
		clear(a.expanded)
		a.epoch = 1
	}
	a.queue = a.queue[:0]
	a.spare = -1
}

// unreached returns the latest slot ≤ x not yet reached this search,
// or a value < lo when every slot of [lo, x] has been reached. The
// skip pointers are path-compressed, so repeated scans over reached
// runs cost near-constant amortized time.
func (a *augScratch) unreached(x, lo int) int {
	y := x
	for y >= lo && a.seen[y] == a.epoch {
		y = int(a.skip[y])
	}
	for z := x; z > y && a.seen[z] == a.epoch; {
		next := int(a.skip[z])
		a.skip[z] = int32(y)
		z = next
	}
	return y
}

// augment looks for a shortest augmenting path that gives job src one
// more slot: src takes a slot of its window it does not hold; a job in
// that slot moves to a slot of its own window it does not hold; and so
// on until a slot with spare capacity absorbs the last move. An active
// non-full slot ends the path when one is reachable; otherwise the
// first inactive slot reached is activated. It reports false when no
// path exists. Every other job is fully placed, so the current flow is
// then maximum and the instance is infeasible.
//
// Each job's window is scanned at most once, so one search costs
// O((slots reached + units held by the jobs expanded)·α). In cold
// placement every job already placed in src's window is nested inside
// it and the search never leaves that window; on the warm superset
// path an enclosing base job may carry it further, which the same
// scan handles.
func (st *state) augment(ctx context.Context, src int) (bool, error) {
	if st.aug == nil {
		st.aug = newAugScratch(len(st.load), st.in.N())
	}
	a := st.aug
	a.begin()
	a.expanded[src] = a.epoch
	end := st.expand(src, -1)
	for head := 0; end < 0 && head < len(a.queue); head++ {
		if head&255 == 255 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		s := a.queue[head]
		for _, k := range st.slotJobs[s] {
			if a.expanded[k] == a.epoch {
				continue
			}
			a.expanded[k] = a.epoch
			if end = st.expand(int(k), s); end >= 0 {
				break
			}
		}
	}
	if end < 0 {
		end = a.spare
	}
	if end < 0 {
		return false, nil
	}

	// Shift every job along the path, last move first.
	for cur := int32(end); ; {
		k, prev := a.mover[cur], a.from[cur]
		st.slotJobs[cur] = append(st.slotJobs[cur], k)
		if prev < 0 {
			st.jobSlots[k] = append(st.jobSlots[k], cur)
			break
		}
		replaceSlot(st.jobSlots[k], prev, cur)
		removeJob(&st.slotJobs[prev], k)
		cur = prev
	}
	if st.load[end] == 0 {
		st.inact.remove(end)
		st.activated++
	}
	st.load[end]++
	if st.load[end] < st.in.G {
		st.avail.set(end)
	} else {
		st.avail.clear(end)
	}
	return true, nil
}

// expand scans job k's window latest first and reaches every slot k
// does not hold that no earlier scan of this search reached, recording
// that k would move into it out of slot from. Full slots join the BFS
// queue; the first active non-full slot ends the search and is
// returned; the first inactive slot is kept as the fallback end.
func (st *state) expand(k int, from int32) int {
	a := st.aug
	a.mark++
	if a.mark == 0 {
		clear(a.held)
		a.mark = 1
	}
	for _, s := range st.jobSlots[k] {
		a.held[s] = a.mark
	}
	lo := int(st.jobLo[k])
	for t := a.unreached(int(st.jobHi[k])-1, lo); t >= lo; t = a.unreached(t-1, lo) {
		if a.held[t] == a.mark {
			continue
		}
		a.seen[t] = a.epoch
		a.skip[t] = int32(t) - 1
		a.from[t] = from
		a.mover[t] = int32(k)
		switch {
		case st.load[t] == st.in.G:
			a.queue = append(a.queue, int32(t))
		case st.load[t] > 0:
			return t
		case a.spare < 0:
			a.spare = t
		}
	}
	return -1
}

// replaceSlot swaps slot from for slot to in a job's slot list.
func replaceSlot(slots []int32, from, to int32) {
	for x, s := range slots {
		if s == from {
			slots[x] = to
			return
		}
	}
}

// removeJob deletes job k from a slot's job list.
func removeJob(jobs *[]int32, k int32) {
	js := *jobs
	for x, j := range js {
		if j == k {
			js[x] = js[len(js)-1]
			*jobs = js[:len(js)-1]
			return
		}
	}
}
