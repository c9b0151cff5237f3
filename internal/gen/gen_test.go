package gen

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/flowfeas"
)

func TestRandomLaminarProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		in := RandomLaminar(rng, DefaultLaminar(8, 2))
		if err := in.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !in.Nested() {
			t.Fatalf("trial %d: not nested", trial)
		}
		if !flowfeas.CheckSlots(in, in.SortedSlots()) {
			t.Fatalf("trial %d: infeasible", trial)
		}
		if in.N() < 1 || in.N() > 8 {
			t.Fatalf("trial %d: %d jobs", trial, in.N())
		}
	}
}

func TestRandomLaminarDeterministic(t *testing.T) {
	a := RandomLaminar(rand.New(rand.NewSource(5)), DefaultLaminar(6, 3))
	b := RandomLaminar(rand.New(rand.NewSource(5)), DefaultLaminar(6, 3))
	if a.N() != b.N() || a.G != b.G {
		t.Fatal("same seed must reproduce the instance")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}

func TestRandomGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	crossing := 0
	for trial := 0; trial < 60; trial++ {
		in := RandomGeneral(rng, DefaultGeneral(6, 2))
		if err := in.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !flowfeas.CheckSlots(in, in.SortedSlots()) {
			t.Fatalf("trial %d: infeasible", trial)
		}
		if !in.Nested() {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("general generator never produced crossing windows in 60 trials")
	}
}

func TestRandomUnitLaminar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		in := RandomUnitLaminar(rng, DefaultLaminar(6, 2))
		for _, j := range in.Jobs {
			if j.Processing != 1 {
				t.Fatalf("trial %d: non-unit job %+v", trial, j)
			}
		}
		if !in.Nested() {
			t.Fatalf("trial %d: not nested", trial)
		}
	}
}

// TestTightLaminar pins the tight mode's contract: exactly MaxJobs
// jobs, p ∈ {1,2}, nested, feasible, deterministic, and every window
// owning exactly max(⌈vol/g⌉, max p) slots beside its child windows.
func TestTightLaminar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		g := int64(1 + rng.Intn(4))
		p := TightLaminar(n, g)
		p.MaxDepth = rng.Intn(6) // 0 and 1 both mean flat windows
		in := RandomLaminar(rng, p)
		if err := in.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if in.N() != n || in.G != g {
			t.Fatalf("trial %d: %d jobs at g=%d, want %d at g=%d", trial, in.N(), in.G, n, g)
		}
		if !in.Nested() {
			t.Fatalf("trial %d: not nested", trial)
		}
		if !flowfeas.CheckSlots(in, in.SortedSlots()) {
			t.Fatalf("trial %d: infeasible", trial)
		}
		type own struct{ vol, pmax int64 }
		wins := map[[2]int64]*own{}
		for _, j := range in.Jobs {
			if j.Processing < 1 || j.Processing > 2 {
				t.Fatalf("trial %d: p=%d outside {1,2}", trial, j.Processing)
			}
			k := [2]int64{j.Release, j.Deadline}
			if wins[k] == nil {
				wins[k] = &own{}
			}
			wins[k].vol += j.Processing
			wins[k].pmax = max(wins[k].pmax, j.Processing)
		}
		for w, o := range wins {
			// Own slots = window length minus its maximal sub-windows.
			length := w[1] - w[0]
			for c := range wins {
				if c == w || c[0] < w[0] || c[1] > w[1] {
					continue
				}
				maximal := true
				for m := range wins {
					if m != w && m != c && m[0] <= c[0] && c[1] <= m[1] && w[0] <= m[0] && m[1] <= w[1] {
						maximal = false
						break
					}
				}
				if maximal {
					length -= c[1] - c[0]
				}
			}
			if want := max((o.vol+g-1)/g, o.pmax); length != want {
				t.Fatalf("trial %d: window %v owns %d slots, want %d", trial, w, length, want)
			}
		}
	}
	a := RandomLaminar(rand.New(rand.NewSource(9)), TightLaminar(30, 3))
	b := RandomLaminar(rand.New(rand.NewSource(9)), TightLaminar(30, 3))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must reproduce the tight instance")
	}
}
