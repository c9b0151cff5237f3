package comb

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/flowfeas"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/lamtree"
)

// TestChainMatchesExact pins cost equality with the exact solver on
// the unit-processing deep-chain family (the shape the LP path OOMs
// on) at depths the exact solver can still handle. For p ≥ 2 the lazy
// greedy is a bounded approximation, not exact (see
// TestRandomLaminarWithinTwiceOpt), so only validity and the 2·OPT
// bound are required there.
func TestChainMatchesExact(t *testing.T) {
	for depth := 1; depth <= 14; depth++ {
		for _, g := range []int64{1, 2, 3} {
			for _, p := range []int64{1, 2} {
				in := gen.NestedChain(depth, g, p)
				s, rep, err := Solve(in)
				if err != nil {
					t.Fatalf("depth=%d g=%d p=%d: %v", depth, g, p, err)
				}
				if err := s.Validate(in); err != nil {
					t.Fatalf("depth=%d g=%d p=%d: invalid schedule: %v", depth, g, p, err)
				}
				opt, err := exact.Opt(in)
				if err != nil {
					t.Fatalf("exact: %v", err)
				}
				if p == 1 && rep.ActiveSlots != opt {
					t.Errorf("depth=%d g=%d p=1: comb=%d exact=%d", depth, g, rep.ActiveSlots, opt)
				}
				if rep.ActiveSlots > 2*opt {
					t.Errorf("depth=%d g=%d p=%d: comb=%d > 2·exact=%d", depth, g, p, rep.ActiveSlots, 2*opt)
				}
			}
		}
	}
}

// TestRandomUnitLaminarMatchesExact pins exactness on unit-processing
// nested instances — the polynomial special case of Chang, Gabow and
// Khuller that the lazy-activation greedy solves optimally.
func TestRandomUnitLaminarMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(10)
		g := int64(1 + rng.Intn(3))
		in := gen.RandomUnitLaminar(rng, gen.DefaultLaminar(n, g))
		s, rep, err := Solve(in)
		if err != nil {
			t.Fatalf("case %d: %v\n%v", i, err, in.Jobs)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("case %d: invalid schedule: %v", i, err)
		}
		opt, err := exact.Opt(in)
		if err != nil {
			t.Fatalf("case %d: exact: %v", i, err)
		}
		if rep.ActiveSlots != opt {
			t.Errorf("case %d: comb=%d exact=%d g=%d jobs=%v",
				i, rep.ActiveSlots, opt, in.G, in.Jobs)
		}
	}
}

// TestRandomLaminarWithinTwiceOpt bounds the general-processing case:
// always a valid schedule, never worse than 2·OPT (the Kumar–Khuller
// regime; measured over this seeded family the worst ratio is 1.6 and
// 96% of instances solve exactly).
func TestRandomLaminarWithinTwiceOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	equal := 0
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(9)
		g := int64(1 + rng.Intn(3))
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(n, g))
		s, rep, err := Solve(in)
		if err != nil {
			t.Fatalf("case %d: %v\n%v", i, err, in.Jobs)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("case %d: invalid schedule: %v", i, err)
		}
		opt, err := exact.Opt(in)
		if err != nil {
			t.Fatalf("case %d: exact: %v", i, err)
		}
		if rep.ActiveSlots > 2*opt {
			t.Errorf("case %d: comb=%d > 2·exact=%d g=%d jobs=%v",
				i, rep.ActiveSlots, 2*opt, in.G, in.Jobs)
		}
		if rep.ActiveSlots == opt {
			equal++
		}
	}
	// The seed is fixed, so the quality level is deterministic; a drop
	// below 85% exact means a real algorithmic regression.
	if equal < 255 {
		t.Errorf("exact on only %d/300 seeded instances", equal)
	}
}

// TestForestMatchesExact covers the multi-root wide-forest shape used
// by the scale benchmark families.
func TestForestMatchesExact(t *testing.T) {
	in := gen.NestedForest(3, 3, 2, 2, 2)
	s, rep, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	opt, err := exact.Opt(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ActiveSlots != opt {
		t.Errorf("comb=%d exact=%d", rep.ActiveSlots, opt)
	}
}

// TestDeepChain900 is the production shape: the depth-900 chain must
// solve without the LP path and produce a flow-verified schedule.
func TestDeepChain900(t *testing.T) {
	in := gen.NestedChain(900, 2, 1)
	s, rep, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !flowfeas.CheckSlots(in, s.ActiveSlots()) {
		t.Fatal("schedule's active slots fail the flow feasibility check")
	}
	// 900 unit jobs at g=2 need at least 450 slots; the lazy greedy
	// should hit that bound exactly on this symmetric chain.
	if rep.ActiveSlots != 450 {
		t.Errorf("active slots = %d, want 450", rep.ActiveSlots)
	}
	if rep.Depth != 900 {
		t.Errorf("depth = %d, want 900", rep.Depth)
	}
}

// TestDeterministic pins byte-identical schedules across repeat solves.
func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := gen.RandomLaminar(rng, gen.DefaultLaminar(40, 3))
	s1, _, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("schedules differ:\n%s\n%s", s1, s2)
	}
}

// TestInfeasible requires a clean error, not a bogus schedule.
func TestInfeasible(t *testing.T) {
	// Three unit jobs forced into one slot at capacity 2.
	in := instance.MustNew(2, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 1},
		{Processing: 1, Release: 0, Deadline: 1},
		{Processing: 1, Release: 0, Deadline: 1},
	})
	if _, _, err := Solve(in); err == nil {
		t.Fatal("want error on infeasible instance")
	}
}

// TestRepairTightParent pins the shape on which the greedy used to
// come up short: a 3-slot parent window around a 1-slot child whose
// slot the greedy fills to g, and enough p=2 parent jobs to fill both
// pad slots. The last parent job finds every slot full or its own and
// must be placed by an augmenting path, at the exact optimum.
func TestRepairTightParent(t *testing.T) {
	for _, in := range []*instance.Instance{
		instance.MustNew(3, []instance.Job{
			{Processing: 1, Release: 1, Deadline: 2},
			{Processing: 2, Release: 0, Deadline: 3},
			{Processing: 2, Release: 0, Deadline: 3},
			{Processing: 2, Release: 0, Deadline: 3},
			{Processing: 2, Release: 0, Deadline: 3},
		}),
		instance.MustNew(2, []instance.Job{
			{Processing: 2, Release: 0, Deadline: 3},
			{Processing: 2, Release: 0, Deadline: 3},
			{Processing: 2, Release: 0, Deadline: 3},
		}),
	} {
		s, rep, err := Solve(in)
		if err != nil {
			t.Fatalf("%v: %v", in.Jobs, err)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("%v: invalid schedule: %v", in.Jobs, err)
		}
		opt, err := exact.Opt(in)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ActiveSlots != opt {
			t.Errorf("%v: comb=%d exact=%d", in.Jobs, rep.ActiveSlots, opt)
		}
		if rep.Repairs == 0 || rep.Stats.Counters.CombRepairs != rep.Repairs {
			t.Errorf("%v: repairs=%d comb_repairs=%d, want equal and > 0",
				in.Jobs, rep.Repairs, rep.Stats.Counters.CombRepairs)
		}
		if rep.Stats.Counters.DinicRuns != 0 {
			t.Errorf("%v: %d max-flow runs, want none", in.Jobs, rep.Stats.Counters.DinicRuns)
		}
	}
}

// TestRepairNoPathInfeasible is a tight infeasible case the greedy
// does not reject on its own: the p=2 job opens slot 0, then finds
// slot 1 full of unit jobs that cannot move. The search finds no
// augmenting path and must report infeasibility.
func TestRepairNoPathInfeasible(t *testing.T) {
	in := instance.MustNew(2, []instance.Job{
		{Processing: 1, Release: 1, Deadline: 2},
		{Processing: 1, Release: 1, Deadline: 2},
		{Processing: 2, Release: 0, Deadline: 2},
	})
	if _, _, err := Solve(in); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestRepairCanceled checks the context inside a long search: 600
// full single-slot children under a unit parent at g=1 queue 600 slots
// before the search can conclude anything.
func TestRepairCanceled(t *testing.T) {
	const n = 600
	jobs := []instance.Job{{Processing: 1, Release: 0, Deadline: n}}
	for i := int64(0); i < n; i++ {
		jobs = append(jobs, instance.Job{Processing: 1, Release: i, Deadline: i + 1})
	}
	in := instance.MustNew(1, jobs)
	tr, err := lamtree.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newState(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	children := make([]int, n)
	for i := range children {
		children[i] = i + 1
	}
	if err := st.placeOrder(context.Background(), children); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.augment(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ok, err := st.augment(context.Background(), 0); ok || err != nil {
		t.Fatalf("augment = %v, %v; want no path", ok, err)
	}
}

// TestNonNested requires the laminar guard to fire.
func TestNonNested(t *testing.T) {
	in := instance.MustNew(2, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 3},
		{Processing: 1, Release: 2, Deadline: 5},
	})
	if _, _, err := Solve(in); err == nil {
		t.Fatal("want error on crossing windows")
	}
}

// TestCanceled returns promptly with the context error.
func TestCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := gen.NestedChain(50, 2, 1)
	if _, _, err := SolveContext(ctx, in, Options{}); err == nil {
		t.Fatal("want context error")
	}
}

// TestEmpty solves the zero-job instance trivially.
func TestEmpty(t *testing.T) {
	in := &instance.Instance{G: 2}
	s, rep, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ActiveSlots != 0 || s.NumActive() != 0 {
		t.Fatalf("want empty schedule, got %d active", rep.ActiveSlots)
	}
}

func TestPredSet(t *testing.T) {
	b := newPredSet(1000)
	if got := b.pred(999); got != -1 {
		t.Fatalf("empty pred = %d", got)
	}
	b.set(5)
	b.set(64)
	b.set(700)
	for _, tc := range []struct{ q, want int }{
		{999, 700}, {700, 700}, {699, 64}, {64, 64}, {63, 5}, {5, 5}, {4, -1}, {0, -1},
	} {
		if got := b.pred(tc.q); got != tc.want {
			t.Errorf("pred(%d) = %d want %d", tc.q, got, tc.want)
		}
	}
	b.clear(64)
	if got := b.pred(699); got != 5 {
		t.Errorf("pred(699) after clear = %d want 5", got)
	}
}

func TestLeftDSU(t *testing.T) {
	d := newLeftDSU(10)
	if got := d.find(9); got != 9 {
		t.Fatalf("find(9) = %d", got)
	}
	d.remove(9)
	d.remove(8)
	if got := d.find(9); got != 7 {
		t.Fatalf("find(9) = %d want 7", got)
	}
	for i := 0; i <= 7; i++ {
		d.remove(d.find(7))
	}
	if got := d.find(9); got != -1 {
		t.Fatalf("find(9) = %d want -1", got)
	}
}
