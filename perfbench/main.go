// Command perfbench is the repository's request-path benchmark for
// POST /solve. It builds its inputs from a seed, starts the real
// activetimed binary as its own process, drives it over loopback HTTP
// with at most two connections, checks every answer, and prints one
// JSON result line. Run it through run.sh, which builds both binaries:
//
//	bash perfbench/run.sh --workload cold-forest --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics instead (see metrics.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	server := flag.String("server", "", "path of the built activetimed binary")
	workload := flag.String("workload", "", "workload name: cold-forest | hot-forest | serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansOut := flag.String("spans", "", "traced run: write the recorded spans as Chrome trace JSON to this file")
	flag.Parse()
	if *server == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -server and a positive -seconds are required")
		os.Exit(2)
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	r := &run{bin: *server, seed: *seed, dur: time.Duration(*seconds) * time.Second, spansOut: *spansOut}
	var err error
	if *traced == 1 {
		err = r.traced(w)
	} else {
		err = r.measure(w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print()
}

// run is one benchmark invocation.
type run struct {
	bin      string
	seed     int64
	dur      time.Duration
	spansOut string

	attempted, failed, wrong int
	metrics                  []metricValue
	notes                    []string
}

type metricValue struct {
	name  string
	value float64
	unit  string
}

func (r *run) add(name string, v float64) {
	r.metrics = append(r.metrics, metricValue{name, v, unitOf(name)})
}

func (r *run) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

func (r *run) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	ms := make(map[string]map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   r.wrong == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})
	fmt.Println(string(out))
}

// setupRuns is how many times each run execs the server to time set-up
// (about 5 ms each); the median is reported and the last process serves
// the run.
const setupRuns = 101

// boot starts the run's server setupRuns times, records the median
// set-up time, and returns the last process, which serves the run.
func (r *run) boot(extra ...string) (*serverProc, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		s, setup, err := startServer(r.bin, extra...)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, setup.Seconds())
		if i == setupRuns-1 {
			return s, median(times), nil
		}
		s.stop()
	}
}

// freshRNG returns the rng of one named stream of the run's seed, so
// adding a draw to one stream never shifts another, and no stream of
// one seed repeats a stream of another.
func (r *run) freshRNG(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(r.seed), stream))
}

// gcBeforeMeasuring forces a client-side collection so garbage from
// building inputs and warming up is not collected during measurement.
func gcBeforeMeasuring() { runtime.GC() }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}

// tail returns the pct percentile of v and how many samples lie above
// it.
func tail(v []float64, pct float64) (value float64, beyond int) {
	value = quantile(v, pct/100)
	for _, x := range v {
		if x > value {
			beyond++
		}
	}
	return value, beyond
}
