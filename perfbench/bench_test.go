package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	activetime "repro"
	"repro/internal/instance"
)

// serverBin is the activetimed binary built once for the smoke tests.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "activetimed")
	out, err := exec.Command("go", "build", "-o", serverBin, "repro/cmd/activetimed").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "build activetimed: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestBodiesDependOnlyOnSeed(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			a := w.build(&run{seed: 7, dur: time.Second})
			b := w.build(&run{seed: 7, dur: time.Second})
			c := w.build(&run{seed: 8, dur: time.Second})
			for _, k := range append(append([]int(nil), a.prime...), 0, 1, 5, 99) {
				ba, bb := a.bodyOf(k), b.bodyOf(k)
				if !bytes.Equal(ba, bb) {
					t.Fatalf("request %d: same seed, different bodies", k)
				}
				if bytes.Equal(ba, c.bodyOf(k)) {
					t.Fatalf("request %d: seeds 7 and 8 give the same body", k)
				}
			}
		})
	}
}

func TestForestSizeClass(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	for i := 0; i < 3; i++ {
		if f := genForest(rng, forestJobs); len(f.jobs) != forestJobs {
			t.Fatalf("forest has %d jobs, want %d", len(f.jobs), forestJobs)
		}
	}
}

// answerFor builds a /solve answer body for in from slot → job ids.
func answerFor(in *inst, active int64, slots map[int64][]int) []byte {
	type slot struct {
		T    int64 `json:"t"`
		Jobs []int `json:"jobs"`
	}
	var ss []slot
	for t, js := range slots {
		ss = append(ss, slot{t, js})
	}
	b, _ := json.Marshal(map[string]any{
		"jobs": len(in.jobs), "active_slots": active,
		"schedule": map[string]any{"g": in.g, "slots": ss},
	})
	return b
}

func TestCheckAnswer(t *testing.T) {
	// Two unit jobs in [0,2) and a job of length 2 in [0,4), g = 2.
	in := &inst{g: 2, jobs: []job{{1, 0, 2}, {1, 0, 2}, {2, 0, 4}}}
	valid := map[int64][]int{0: {0, 2}, 1: {1, 2}}
	if _, err := checkAnswer(in, answerFor(in, 2, valid)); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	cases := []struct {
		name   string
		active int64
		slots  map[int64][]int
		want   string
	}{
		{"over capacity", 2, map[int64][]int{0: {0, 1, 2}, 1: {2}}, "holds 3 jobs"},
		{"outside window", 2, map[int64][]int{0: {0, 2}, 2: {1, 2}}, "outside"},
		{"wrong slot count", 3, valid, "reports 3"},
		{"missing unit", 2, map[int64][]int{0: {0, 2}, 1: {1}}, "needs 2"},
		{"job twice in a slot", 2, map[int64][]int{0: {0, 2}, 1: {1, 1}}, "twice"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := checkAnswer(in, answerFor(in, c.active, c.slots))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func toInstance(t *testing.T, in *inst) *instance.Instance {
	t.Helper()
	jobs := make([]instance.Job, len(in.jobs))
	for i, j := range in.jobs {
		jobs[i] = instance.Job{ID: i, Processing: j.p, Release: j.r, Deadline: j.d}
	}
	out, err := instance.New(in.g, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLowerBoundAtMostOptimal(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	for i := 0; i < 60; i++ {
		var in *inst
		switch i % 3 {
		case 0:
			in = genLaminar(rng, 4+rng.IntN(5), false)
		case 1:
			in = genLaminar(rng, 4+rng.IntN(5), true)
		default:
			in = genCrossing(rng, 4+rng.IntN(3))
		}
		opt, err := activetime.Optimal(toInstance(t, in))
		if err != nil {
			t.Fatal(err)
		}
		if lb := lowerBound(in); lb > opt || lb < 1 {
			t.Fatalf("instance %d: lower bound %d, optimum %d", i, lb, opt)
		}
	}
}

func TestLowerBoundNested(t *testing.T) {
	// Root [0,10) with one job of p=3 holding children [0,4) and [4,8),
	// each with four unit jobs at g = 2: each child needs 2 slots, so the
	// root needs max(⌈11/2⌉, 2+2, 3) = 6.
	in := &inst{g: 2, jobs: []job{{3, 0, 10}}}
	for k := 0; k < 4; k++ {
		in.jobs = append(in.jobs, job{1, 0, 4}, job{1, 4, 8})
	}
	if got := lowerBound(in); got != 6 {
		t.Fatalf("lower bound %d, want 6", got)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
}

// smoke runs one short untraced and one traced run of a workload and
// returns their metrics by name.
func smoke(t *testing.T, name string) (e2e, layers map[string]float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("starts the server")
	}
	collect := func(traced bool) map[string]float64 {
		r := &run{bin: serverBin, seed: 3, dur: time.Second, spansOut: filepath.Join(t.TempDir(), "spans.json")}
		var err error
		if traced {
			err = r.traced(workloads[name])
		} else {
			err = r.measure(workloads[name])
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.wrong != 0 || r.failed != 0 || r.attempted == 0 {
			t.Fatalf("traced=%v: %d attempted, %d failed, %d wrong: %v", traced, r.attempted, r.failed, r.wrong, r.notes)
		}
		out := make(map[string]float64)
		for _, m := range r.metrics {
			if m.unit != unitOf(m.name) || m.unit == "" {
				t.Errorf("metric %s has unit %q", m.name, m.unit)
			}
			out[m.name] = m.value
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(out) != len(want) {
			t.Errorf("traced=%v: printed %d metrics, want %d", traced, len(out), len(want))
		}
		for _, d := range want {
			if _, ok := out[d.name]; !ok {
				t.Errorf("traced=%v: metric %s not printed", traced, d.name)
			}
		}
		return out
	}
	e2e, layers = collect(false), collect(true)
	if e2e["ok_frac"] != 1 {
		t.Errorf("ok_frac = %v, want 1", e2e["ok_frac"])
	}
	return e2e, layers
}

func TestSmokeColdForest(t *testing.T) {
	_, layers := smoke(t, "cold-forest")
	if layers["solvecache.hit_ratio"] != 0 {
		t.Errorf("cold-forest hit ratio %v, want 0", layers["solvecache.hit_ratio"])
	}
	if layers["comb.tree_build_ms"] <= 0 {
		t.Errorf("cold-forest comb.tree_build_ms = %v, want > 0", layers["comb.tree_build_ms"])
	}
}

func TestSmokeHotForest(t *testing.T) {
	_, layers := smoke(t, "hot-forest")
	if layers["solvecache.hit_ratio"] != 1 {
		t.Errorf("hot-forest hit ratio %v, want 1", layers["solvecache.hit_ratio"])
	}
}

func TestSmokeServeMix(t *testing.T) {
	_, layers := smoke(t, "serve-mix")
	if layers["warm.starts"] <= 0 {
		t.Errorf("serve-mix warm.starts = %v, want > 0", layers["warm.starts"])
	}
}
