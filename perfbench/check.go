package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// reply is the part of a /solve response the benchmark reads. It is
// declared here rather than imported from the server so the check stays
// independent of the code it checks.
type reply struct {
	Jobs        int     `json:"jobs"`
	ActiveSlots int64   `json:"active_slots"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Cached      bool    `json:"cached"`
	WarmStart   bool    `json:"warm_start"`
	Schedule    *struct {
		G     int64 `json:"g"`
		Slots []struct {
			T    int64 `json:"t"`
			Jobs []int `json:"jobs"`
		} `json:"slots"`
	} `json:"schedule"`
}

// checkAnswer decodes a 200 body and checks its schedule against in
// without using the repository's validator: every job gets exactly p
// distinct slots inside [r, d), no slot holds more than g jobs, and the
// number of active slots equals the reported active_slots.
func checkAnswer(in *inst, raw []byte) (*reply, error) {
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	if rep.Jobs != len(in.jobs) {
		return &rep, fmt.Errorf("answer reports %d jobs, sent %d", rep.Jobs, len(in.jobs))
	}
	s := rep.Schedule
	if s == nil {
		return &rep, fmt.Errorf("answer has no schedule")
	}
	if s.G != in.g {
		return &rep, fmt.Errorf("schedule g=%d, instance g=%d", s.G, in.g)
	}
	units := make([]int64, len(in.jobs))
	// lastSlot[j] is 1 + the index of the last slot job j was seen in, so
	// a job listed twice in one slot is caught without a per-slot set.
	lastSlot := make([]int, len(in.jobs))
	seen := make(map[int64]bool, len(s.Slots))
	var active int64
	for k, sl := range s.Slots {
		if len(sl.Jobs) == 0 {
			continue
		}
		if seen[sl.T] {
			return &rep, fmt.Errorf("slot %d listed twice", sl.T)
		}
		seen[sl.T] = true
		if int64(len(sl.Jobs)) > in.g {
			return &rep, fmt.Errorf("slot %d holds %d jobs, g=%d", sl.T, len(sl.Jobs), in.g)
		}
		for _, id := range sl.Jobs {
			if id < 0 || id >= len(in.jobs) {
				return &rep, fmt.Errorf("slot %d names unknown job %d", sl.T, id)
			}
			j := in.jobs[id]
			if sl.T < j.r || sl.T >= j.d {
				return &rep, fmt.Errorf("job %d runs in slot %d outside [%d,%d)", id, sl.T, j.r, j.d)
			}
			if lastSlot[id] == k+1 {
				return &rep, fmt.Errorf("job %d listed twice in slot %d", id, sl.T)
			}
			lastSlot[id] = k + 1
			units[id]++
		}
		active++
	}
	for id, u := range units {
		if u != in.jobs[id].p {
			return &rep, fmt.Errorf("job %d got %d slots, needs %d", id, u, in.jobs[id].p)
		}
	}
	if active != rep.ActiveSlots {
		return &rep, fmt.Errorf("schedule has %d active slots, answer reports %d", active, rep.ActiveSlots)
	}
	return &rep, nil
}

// lowerBound is the benchmark's own bound on the optimal number of
// active slots. For a laminar instance it is the recursive bound over
// the window tree,
//
//	LB(v) = max(⌈vol(v)/g⌉, Σ LB(children of v), max p_j in v),
//
// summed over the roots, where vol(v) counts every job whose window
// lies inside v: the slots a subtree's jobs use lie inside its window,
// and sibling windows are disjoint. An instance with crossing windows
// falls back to max(⌈vol/g⌉, max p_j) per connected run of windows.
func lowerBound(in *inst) int64 {
	type win struct {
		r, d        int64
		vol, maxP   int64
		childLB, lb int64
		parent      int
	}
	idx := make(map[[2]int64]int)
	var ws []win
	for _, j := range in.jobs {
		k := [2]int64{j.r, j.d}
		i, ok := idx[k]
		if !ok {
			i = len(ws)
			idx[k] = i
			ws = append(ws, win{r: j.r, d: j.d, parent: -1})
		}
		ws[i].vol += j.p
		ws[i].maxP = max(ws[i].maxP, j.p)
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].r != ws[b].r {
			return ws[a].r < ws[b].r
		}
		return ws[a].d > ws[b].d
	})
	var stack []int
	for i := range ws {
		for len(stack) > 0 && ws[stack[len(stack)-1]].d <= ws[i].r {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if ws[i].d > ws[top].d {
				return componentBound(in)
			}
			ws[i].parent = top
		}
		stack = append(stack, i)
	}
	// Sorted order puts every parent before its children, so one
	// reverse pass finishes each child before its parent reads it.
	var total int64
	for i := len(ws) - 1; i >= 0; i-- {
		w := &ws[i]
		w.lb = max(ceilDiv(w.vol, in.g), w.childLB, w.maxP)
		if w.parent < 0 {
			total += w.lb
			continue
		}
		p := &ws[w.parent]
		p.vol += w.vol
		p.maxP = max(p.maxP, w.maxP)
		p.childLB += w.lb
	}
	return total
}

func componentBound(in *inst) int64 {
	js := append([]job(nil), in.jobs...)
	sort.Slice(js, func(a, b int) bool { return js[a].r < js[b].r })
	var total, vol, maxP, end int64
	for i, j := range js {
		if i > 0 && j.r >= end {
			total += max(ceilDiv(vol, in.g), maxP)
			vol, maxP = 0, 0
		}
		vol += j.p
		maxP = max(maxP, j.p)
		end = max(end, j.d)
	}
	return total + max(ceilDiv(vol, in.g), maxP)
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
