package comb

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/flowfeas"
	"repro/internal/gen"
	"repro/internal/instance"
)

func raiseG(in *instance.Instance, g int64) *instance.Instance {
	out := in.Clone()
	out.G = g
	return out
}

// TestResumeRaiseG resumes retained placements at raised capacities
// over a seeded laminar family: the schedule must validate, never get
// worse than the snapshot (the monotone invariant the production gate
// enforces), and on these small instances match the exact optimum at
// least as often as a cold solve does on average — here we settle for
// the 2·OPT comb guarantee.
func TestResumeRaiseG(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(10)
		g := int64(1 + rng.Intn(3))
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(n, g))
		_, rep, err := SolveContext(nil, in, Options{CaptureWarm: true})
		if err != nil {
			t.Fatalf("case %d: cold: %v", i, err)
		}
		if rep.Warm == nil {
			t.Fatalf("case %d: no warm state captured", i)
		}
		for dg := int64(1); dg <= 2; dg++ {
			delta := raiseG(in, in.G+dg)
			s, wrep, err := ResumeRaiseG(nil, delta, rep.Warm, Options{})
			if err != nil {
				t.Fatalf("case %d dg=%d: resume: %v", i, dg, err)
			}
			if err := s.Validate(delta); err != nil {
				t.Fatalf("case %d dg=%d: invalid warm schedule: %v", i, dg, err)
			}
			if wrep.ActiveSlots > rep.ActiveSlots {
				t.Fatalf("case %d dg=%d: warm %d > base %d (monotone invariant)",
					i, dg, wrep.ActiveSlots, rep.ActiveSlots)
			}
			opt, err := exact.Opt(delta)
			if err != nil {
				t.Fatalf("case %d dg=%d: exact: %v", i, dg, err)
			}
			if wrep.ActiveSlots > 2*opt {
				t.Fatalf("case %d dg=%d: warm %d > 2·exact %d", i, dg, wrep.ActiveSlots, opt)
			}
		}
	}
}

// TestResumeRaiseGChained resumes a resumed placement: warm state
// captured on the warm path itself must stay consistent.
func TestResumeRaiseGChained(t *testing.T) {
	in := gen.NestedForest(3, 3, 2, 2, 2)
	_, rep, err := SolveContext(nil, in, Options{CaptureWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Warm
	base := rep.ActiveSlots
	for g := in.G + 1; g <= in.G+3; g++ {
		delta := raiseG(in, g)
		s, wrep, err := ResumeRaiseG(nil, delta, w, Options{CaptureWarm: true})
		if err != nil {
			t.Fatalf("g=%d: %v", g, err)
		}
		if err := s.Validate(delta); err != nil {
			t.Fatalf("g=%d: %v", g, err)
		}
		if wrep.ActiveSlots > base {
			t.Fatalf("g=%d: warm %d > previous %d", g, wrep.ActiveSlots, base)
		}
		base = wrep.ActiveSlots
		w = wrep.Warm
		if w == nil {
			t.Fatalf("g=%d: no warm state re-captured", g)
		}
	}
}

// TestResumeSuperset replays only new jobs on top of a retained
// placement. New jobs duplicate existing windows, so nesting inside
// the retained forest is guaranteed.
func TestResumeSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var repaired, infeasible int64
	for i := 0; i < 200; i++ {
		n := 3 + rng.Intn(9)
		g := int64(2 + rng.Intn(3))
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(n, g))
		_, rep, err := SolveContext(nil, in, Options{CaptureWarm: true})
		if err != nil {
			t.Fatalf("case %d: cold: %v", i, err)
		}
		// Grow by duplicating 1–2 random jobs with processing 1 (always
		// window-feasible; overall feasibility is what the resume must
		// detect or handle).
		k := 1 + rng.Intn(2)
		jobs := append([]instance.Job(nil), in.Jobs...)
		var pNew int64
		for a := 0; a < k; a++ {
			src := in.Jobs[rng.Intn(n)]
			jobs = append(jobs, instance.Job{Processing: 1, Release: src.Release, Deadline: src.Deadline})
			pNew++
		}
		delta := instance.MustNew(in.G, jobs)
		mapping := make([]int32, n)
		for j := range mapping {
			mapping[j] = int32(j)
		}
		newJobs := make([]int, k)
		for j := range newJobs {
			newJobs[j] = n + j
		}
		feasible := flowfeas.CheckSlots(delta, delta.SortedSlots())
		s, wrep, err := ResumeSuperset(nil, delta, rep.Warm, mapping, newJobs, Options{})
		if err != nil {
			// The augmenting-path repair makes the resume exact: it may
			// fail only on an infeasible delta, as a mismatch.
			if feasible {
				t.Fatalf("case %d: resume failed on a feasible delta: %v\n%v", i, err, delta.Jobs)
			}
			if !errors.Is(err, ErrWarmMismatch) {
				t.Fatalf("case %d: infeasible delta: err = %v, want ErrWarmMismatch", i, err)
			}
			infeasible++
			continue
		}
		if !feasible {
			t.Fatalf("case %d: resume scheduled an infeasible delta", i)
		}
		repaired += wrep.Repairs
		if err := s.Validate(delta); err != nil {
			t.Fatalf("case %d: invalid warm schedule: %v", i, err)
		}
		if wrep.ActiveSlots > rep.ActiveSlots+pNew {
			t.Fatalf("case %d: warm %d > base %d + new %d (monotone invariant)",
				i, wrep.ActiveSlots, rep.ActiveSlots, pNew)
		}
	}
	if repaired == 0 || infeasible == 0 {
		t.Errorf("seeded deltas reached %d repairs and %d infeasible cases; want both > 0", repaired, infeasible)
	}
}

// TestResumeSupersetRepairAcrossEnclosingJob places a new job whose
// only slot is held by an enclosing base job at g=1: the repair must
// move the base job outside the new job's window, into a slot it
// activates because no active one has room.
func TestResumeSupersetRepairAcrossEnclosingJob(t *testing.T) {
	base := instance.MustNew(1, []instance.Job{{Processing: 1, Release: 0, Deadline: 2}})
	_, rep, err := SolveContext(nil, base, Options{CaptureWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	delta := instance.MustNew(1, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 2},
		{Processing: 1, Release: 1, Deadline: 2},
	})
	s, wrep, err := ResumeSuperset(nil, delta, rep.Warm, []int32{0}, []int{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(delta); err != nil {
		t.Fatal(err)
	}
	if wrep.Repairs != 1 || wrep.ActiveSlots != 2 {
		t.Fatalf("repairs=%d active=%d, want 1 and 2", wrep.Repairs, wrep.ActiveSlots)
	}

	// One more unit in [1,2) has no slot left: infeasible, reported as
	// a mismatch.
	over := instance.MustNew(1, append(delta.Jobs, instance.Job{Processing: 1, Release: 1, Deadline: 2}))
	if _, _, err := ResumeSuperset(nil, over, rep.Warm, []int32{0}, []int{1, 2}, Options{}); !errors.Is(err, ErrWarmMismatch) {
		t.Fatalf("err = %v, want ErrWarmMismatch", err)
	}
}

// TestResumeMismatch pins the defensive shape checks.
func TestResumeMismatch(t *testing.T) {
	in := gen.NestedChain(5, 2, 1)
	_, rep, err := SolveContext(nil, in, Options{CaptureWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	// Lowered g is not a raise.
	if _, _, err := ResumeRaiseG(nil, raiseG(in, 1), rep.Warm, Options{}); err == nil {
		t.Fatal("want mismatch on lowered g")
	}
	// Job outside the retained forest.
	jobs := append([]instance.Job(nil), in.Jobs...)
	jobs = append(jobs, instance.Job{Processing: 1, Release: 100, Deadline: 101})
	delta := instance.MustNew(in.G, jobs)
	mapping := make([]int32, in.N())
	for j := range mapping {
		mapping[j] = int32(j)
	}
	if _, _, err := ResumeSuperset(nil, delta, rep.Warm, mapping, []int{in.N()}, Options{}); err == nil {
		t.Fatal("want mismatch on job outside forest")
	}
}
