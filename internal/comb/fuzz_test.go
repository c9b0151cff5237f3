package comb

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/flowfeas"
	"repro/internal/gen"
)

// FuzzDifferentialNested cross-checks the three nested-instance
// solvers on seeded random laminar families. On every generated
// instance:
//
//   - the combinatorial solver must produce a valid, flow-feasible
//     schedule within 2×OPT, and match OPT exactly on unit-processing
//     instances (the polynomial special case it solves optimally);
//   - the 9/5 LP pipeline must produce a valid schedule within its
//     certified ratio of the same exact optimum;
//   - neither solver may claim fewer slots than OPT.
//
// tight switches to gen's tight forests (every window owns just enough
// slots for its own jobs, p ∈ {1,2}) at g ∈ {2,3,4}: the shapes on
// which the greedy runs out of room and the augmenting-path repair
// runs, which the default shapes rarely reach.
//
// Instance sizes are capped so the branch-and-bound exact solver stays
// tractable as the oracle. Run via `make fuzz-smoke` (and CI).
func FuzzDifferentialNested(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), true, false)
	f.Add(int64(7), uint8(12), uint8(3), false, false)
	f.Add(int64(99), uint8(5), uint8(1), true, false)
	f.Add(int64(42), uint8(10), uint8(2), false, false)
	f.Add(int64(-3), uint8(255), uint8(0), false, false)
	// Tight seeds whose comb solve takes an augmenting path.
	f.Add(int64(1), uint8(1), uint8(0), false, true)
	f.Add(int64(6), uint8(6), uint8(1), false, true)
	f.Add(int64(14), uint8(14), uint8(0), false, true)
	f.Add(int64(186), uint8(186), uint8(2), false, true)
	// A tight unit shape, where comb must stay exact.
	f.Add(int64(5), uint8(9), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, n, g uint8, unit, tight bool) {
		jobs := 2 + int(n)%11 // 2..12: exact oracle stays cheap
		capg := 1 + int64(g)%3
		params := gen.DefaultLaminar(jobs, capg)
		if tight {
			capg = 2 + int64(g)%3
			params = gen.TightLaminar(jobs, capg)
		}
		rng := rand.New(rand.NewSource(seed))
		in := gen.RandomLaminar(rng, params)
		if unit {
			in = gen.RandomUnitLaminar(rng, params)
		}

		opt, err := exact.Opt(in)
		if err != nil {
			t.Fatalf("exact: %v\n%v", err, in.Jobs)
		}

		s, rep, err := Solve(in)
		if err != nil {
			t.Fatalf("comb: %v\n%v", err, in.Jobs)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("comb schedule invalid: %v\n%v", err, in.Jobs)
		}
		if !flowfeas.CheckSlots(in, s.ActiveSlots()) {
			t.Fatalf("comb active slots fail the flow check\n%v", in.Jobs)
		}
		if rep.ActiveSlots < opt {
			t.Fatalf("comb=%d below exact optimum %d\n%v", rep.ActiveSlots, opt, in.Jobs)
		}
		if rep.ActiveSlots > 2*opt {
			t.Fatalf("comb=%d > 2×OPT=%d\n%v", rep.ActiveSlots, 2*opt, in.Jobs)
		}
		if unit && rep.ActiveSlots != opt {
			t.Fatalf("unit instance: comb=%d exact=%d\n%v", rep.ActiveSlots, opt, in.Jobs)
		}

		lpSched, lpRep, err := core.SolveWithOptions(in, core.Options{Workers: 1})
		if err != nil {
			t.Fatalf("nested95: %v\n%v", err, in.Jobs)
		}
		if err := lpSched.Validate(in); err != nil {
			t.Fatalf("nested95 schedule invalid: %v\n%v", err, in.Jobs)
		}
		if lpRep.ActiveSlots < opt {
			t.Fatalf("nested95=%d below exact optimum %d\n%v", lpRep.ActiveSlots, opt, in.Jobs)
		}
		if float64(lpRep.ActiveSlots) > 9.0/5.0*float64(opt)+1e-9 {
			t.Fatalf("nested95=%d > 9/5×OPT=%d\n%v", lpRep.ActiveSlots, opt, in.Jobs)
		}
	})
}
