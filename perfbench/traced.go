package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	activetime "repro"
	"repro/internal/comb"
	"repro/internal/costmodel"
	"repro/internal/instance"
	"repro/internal/server"
	"repro/internal/solvecache"
)

// The traced run drives the server exactly as the untraced run does,
// reads what the server reports (answers' elapsed_ms, /metrics deltas,
// its CPU time), then replays the measured requests in-process through
// the same public calls the /solve handler makes, in the same order,
// each wrapped in a span. End-to-end metrics never come from it.

// span is one timed interval; parent is an index into the same slice
// (-1 for a root) and req the request all spans of one request share.
type span struct {
	name       string
	req        int
	parent     int
	start, end time.Duration
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.t0) }

// selfTimes returns, per request, each span name's self time in ms: its
// duration minus the part its children cover.
func (t *tracer) selfTimes() map[int]map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[int]map[string]float64)
	for i, s := range t.spans {
		m := out[s.req]
		if m == nil {
			m = make(map[string]float64)
			out[s.req] = m
		}
		m[s.name] += ms(max(0, s.end-s.start-child[i]))
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, one track
// per request.
func (t *tracer) writeChrome(path string) error {
	type ev struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	evs := make([]ev, len(t.spans))
	for i, s := range t.spans {
		evs[i] = ev{s.name, "X", float64(s.start) / 1e3, float64(s.end-s.start) / 1e3, 1, s.req}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replayer repeats the handler's calls for one request in-process.
type replayer struct {
	tr    *tracer
	model *costmodel.Model
	// solved holds canonical results by cache key, standing in for the
	// server's cache on requests it answered as hits.
	solved map[solvecache.Key]*activetime.Result
	// counts accumulates solver counters of replayed cold solves by
	// algorithm, and how many solves they cover.
	pivots, bfsRounds, lpSolves int64
	// values holds per-request measurements taken outside the spans.
	values map[string][]float64
	// last is the most recent replayed request's decoded pieces, for
	// the allocation counts taken afterwards.
	last struct {
		raw   json.RawMessage
		canon *instance.Instance
		resp  server.SolveResponse
	}
}

// stageLayer names a solver stage's span by the layer that runs it.
func stageLayer(alg activetime.Algorithm, stage string) string {
	switch {
	case stage == "validate":
		return "sched.validate"
	case alg == activetime.AlgCombinatorial:
		switch stage {
		case "comb_activate":
			return "comb.activate"
		case "comb_deactivate":
			return "comb.deactivate"
		}
		return "comb." + stage
	default:
		return "core." + stage
	}
}

func solveLayer(alg activetime.Algorithm) string {
	switch alg {
	case activetime.AlgCombinatorial:
		return "comb.solve"
	case activetime.AlgNested95:
		return "core.solve"
	case activetime.AlgGreedyMinimal:
		return "greedy.solve"
	}
	return "activetime.solve"
}

// solve runs the solver the server would run for canon.
func solve(canon *instance.Instance, alg activetime.Algorithm) (*activetime.Result, error) {
	ctx := context.Background()
	opts := activetime.SolveOptions{Workers: 1, CaptureWarm: true}
	switch alg {
	case activetime.AlgNested95:
		return activetime.SolveNested95Ctx(ctx, canon, opts)
	case activetime.AlgCombinatorial:
		return activetime.SolveCombinatorialCtx(ctx, canon, opts)
	}
	return activetime.SolveTracedCtx(ctx, canon, alg, nil)
}

// request replays request k. hit says the server answered it from its
// cache, so the replay skips the solve and relabels a stored result.
func (p *replayer) request(k int, b []byte, hit bool) error {
	tr := p.tr
	root := tr.begin("request", k, -1)
	defer tr.end(root)
	step := func(name string, f func()) {
		i := tr.begin(name, k, root)
		f()
		tr.end(i)
	}
	var req server.SolveRequest
	var err error
	step("server.envelope_decode", func() {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return fmt.Errorf("replay %d: decode: %w", k, err)
	}
	var in *instance.Instance
	step("instance.read_json", func() { in, err = instance.ReadJSON(bytes.NewReader(req.Instance)) })
	if err != nil {
		return fmt.Errorf("replay %d: %w", k, err)
	}
	var family string
	step("costmodel.family", func() { family = costmodel.FamilyFor(in) })
	var dec activetime.RouteDecision
	step("activetime.route", func() { dec = activetime.Route(in, p.model, activetime.RouteLimits{}) })
	alg := dec.Algorithm
	step("costmodel.depth", func() { _ = costmodel.Depth(in) })
	step("costmodel.predict", func() { _ = p.model.PredictInstanceAlg(family, string(alg), in) })
	var key solvecache.Key
	step("solvecache.key", func() { key = solvecache.KeyFor(in, string(alg), false, false, false) })
	var order []int
	step("solvecache.canonical_order", func() { order = solvecache.CanonicalOrder(in) })
	var canon *instance.Instance
	step("instance.permute", func() { canon = in.Permute(order) })
	if alg == activetime.AlgNested95 || alg == activetime.AlgCombinatorial {
		step("solvecache.struct_key", func() {
			_ = solvecache.StructKeyFor(in, string(alg), false, false, false)
		})
	}
	res := p.solved[key]
	if !hit || res == nil {
		start := time.Since(tr.t0)
		i := tr.begin(solveLayer(alg), k, root)
		res, err = solve(canon, alg)
		tr.end(i)
		if err != nil {
			return fmt.Errorf("replay %d: solve: %w", k, err)
		}
		if !hit {
			// Stage times come from the solver's own recorder; they are
			// laid out back to back inside the solve span.
			at := start
			if res.Stats != nil {
				for _, st := range res.Stats.Stages {
					d := time.Duration(st.Nanos)
					tr.spans = append(tr.spans, span{name: stageLayer(alg, st.Stage), req: k, parent: i, start: at, end: at + d})
					at += d
				}
				if alg == activetime.AlgNested95 {
					p.pivots += res.Stats.Counters.SimplexPivots
					p.bfsRounds += res.Stats.Counters.DinicBFSRounds
					p.lpSolves++
				}
			}
		} else {
			// The server held this result in its cache; the replay solved
			// it only to have something to relabel, so it is not timed.
			tr.spans = tr.spans[:i]
		}
		res.Warm = nil
		p.solved[key] = res
	}
	var sched *activetime.Schedule
	step("sched.relabel", func() { sched = res.Schedule.Relabel(order) })
	var buf bytes.Buffer
	step("sched.write_json", func() { err = sched.WriteJSON(&buf) })
	if err != nil {
		return fmt.Errorf("replay %d: write schedule: %w", k, err)
	}
	resp := server.SolveResponse{
		RequestID: "replay", Algorithm: string(res.Algorithm), Jobs: in.N(),
		ActiveSlots: res.ActiveSlots, LPBound: res.LPLowerBound, CertifiedRatio: res.CertifiedRatio,
		Cached: hit, Stats: res.Stats, Schedule: json.RawMessage(bytes.TrimSpace(buf.Bytes())),
	}
	step("server.response_encode", func() { err = json.NewEncoder(&bytes.Buffer{}).Encode(resp) })
	if err != nil {
		return fmt.Errorf("replay %d: encode: %w", k, err)
	}
	p.last.raw, p.last.canon, p.last.resp = req.Instance, canon, resp
	p.values["sched.write_json_bytes"] = append(p.values["sched.write_json_bytes"], float64(buf.Len()))
	// EstimateLP runs inside Route only for instances within the LP job
	// and depth caps; time it on its own where it is on the path.
	if dec.LPTableauBytes > 0 {
		t := time.Now()
		_ = costmodel.EstimateLP(in)
		p.values["costmodel.estimate_lp_ms"] = append(p.values["costmodel.estimate_lp_ms"], ms(time.Since(t)))
	}
	return nil
}

// allocs counts the heap allocations of one call of f.
func allocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// driven is what one traced drive of a server produced.
type driven struct {
	all       []sample
	nLat      int
	cpuPerReq float64
	// before and after are the server's /metrics around the drive.
	before, after map[string]float64
}

// drive runs the workload's measured load against s (only the fixed-rate
// phase where the workload has one), with the server's CPU time and
// /metrics read around it.
func (r *run) drive(c *http.Client, in *inputs, s *serverProc, first int) (d driven, err error) {
	if d.before, err = scrape(c, s.url); err != nil {
		return d, err
	}
	cpu0, err := cpuMS(s.pid())
	if err != nil {
		return d, err
	}
	if in.fixed != nil {
		d.all = in.fixed(c, s.url, first, r.dur/2)
		d.nLat = len(d.all)
	} else {
		ph := in.measure(c, s.url, first)
		d.all, d.nLat = ph.all, ph.nLat
	}
	cpu1, err := cpuMS(s.pid())
	if err != nil {
		return d, err
	}
	d.cpuPerReq = (cpu1 - cpu0) / float64(len(d.all))
	d.after, err = scrape(c, s.url)
	return d, err
}

// bootAndDrive starts a fresh server with extra flags, warms it up and
// drives it once.
func (r *run) bootAndDrive(c *http.Client, in *inputs, extra ...string) (driven, error) {
	srv, _, err := startServer(r.bin, extra...)
	if err != nil {
		return driven{}, err
	}
	defer srv.stop()
	next, err := r.warmUp(c, srv.url, in)
	if err != nil {
		return driven{}, err
	}
	gcBeforeMeasuring()
	return r.drive(c, in, srv, next)
}

// traced is the traced run: it reports the per-layer metrics.
func (r *run) traced(w *workload) error {
	in := w.build(r)
	c := newClient(2)
	d, err := r.bootAndDrive(c, in)
	if err != nil {
		return err
	}
	all := d.all
	ok := r.checkAll(in, all)

	// obs.overhead_pct: the same fixed-rate phase, on the same requests,
	// against a server with the wide-event pipeline off, compared by
	// server CPU time per request.
	obsPct := 0.0
	if in.fixed != nil {
		d0, err := r.bootAndDrive(c, in, "-events-ring", "0")
		if err != nil {
			return err
		}
		r.checkAll(in, d0.all)
		obsPct = 100 * (d.cpuPerReq/d0.cpuPerReq - 1)
	}

	delta := func(name string) float64 { return d.after[name] - d.before[name] }
	hits, misses := delta("activetime_cache_hits_total"), delta("activetime_cache_misses_total")
	coalesced := delta("activetime_cache_coalesced_total")
	starts := delta(`activetime_warm_starts_total{kind="raise_g"}`) + delta(`activetime_warm_starts_total{kind="superset"}`)
	fallbacks := delta("activetime_warm_fallbacks_total")

	var bytesIn, bytesOut, outside, late, wait []float64
	for i, s := range all {
		if !ok[i] {
			continue
		}
		bytesIn = append(bytesIn, float64(len(in.bodyOf(s.req))))
		bytesOut = append(bytesOut, float64(s.respLen))
		outside = append(outside, ms(s.lat)-s.elapsedMS)
		if i < d.nLat {
			late = append(late, ms(s.late))
			wait = append(wait, ms(s.wait))
		}
	}

	// In-process replay of the measured requests, in order, skipping
	// those the server answered with a warm start (the replay has no
	// retained state to resume) and stopping after a time budget.
	tr := &tracer{t0: time.Now()}
	p := &replayer{tr: tr, model: costmodel.Default(), solved: make(map[solvecache.Key]*activetime.Result), values: make(map[string][]float64)}
	budget := time.Now().Add(replayBudget)
	replayed := make(map[int]float64) // request → client latency (ms)
	for i, s := range all {
		if !ok[i] || s.warm || len(replayed) >= replayMax || time.Now().After(budget) {
			continue
		}
		if err := p.request(s.req, in.bodyOf(s.req), s.cached); err != nil {
			return err
		}
		replayed[s.req] = ms(s.lat)
	}
	self := tr.selfTimes()
	layer := func(name string) float64 {
		var v []float64
		for k := range replayed {
			if x, ok := self[k][name]; ok {
				v = append(v, x)
			}
		}
		return median(v)
	}
	var unattributed []float64
	for k, lat := range replayed {
		var sum float64
		for name, x := range self[k] {
			if name != "request" {
				sum += x
			}
		}
		unattributed = append(unattributed, lat-sum)
	}
	// Tracing overhead: what recording a span costs, against the traced
	// layers' time per request. The HTTP phase records nothing the
	// untraced run does not.
	spansPerReq := float64(len(tr.spans)) / float64(max(len(replayed), 1))
	probe := &tracer{t0: time.Now()}
	t := time.Now()
	for i := 0; i < 10000; i++ {
		probe.end(probe.begin("probe", 0, -1))
	}
	perSpan := ms(time.Since(t)) / 10000
	var reqMS []float64
	for _, sp := range tr.spans {
		if sp.parent < 0 {
			reqMS = append(reqMS, ms(sp.end-sp.start))
		}
	}

	// Allocation counts of the heaviest public calls, on the last
	// replayed request.
	var readAllocs, encAllocs, combAllocs float64
	if p.last.canon != nil {
		readAllocs = allocs(func() { _, _ = instance.ReadJSON(bytes.NewReader(p.last.raw)) })
		encAllocs = allocs(func() { _ = json.NewEncoder(&bytes.Buffer{}).Encode(p.last.resp) })
		if layer("comb.solve") > 0 {
			combAllocs = allocs(func() {
				_, _, _ = comb.SolveContext(context.Background(), p.last.canon, comb.Options{CaptureWarm: true})
			})
		}
	}
	perLP := func(v int64) float64 { return float64(v) / float64(max(p.lpSolves, 1)) }

	r.note("%s seed %d traced: %d requests driven, %d replayed in-process, %.0f spans per request",
		w.name, r.seed, len(all), len(replayed), spansPerReq)
	r.add("server.envelope_decode_ms", layer("server.envelope_decode"))
	r.add("server.response_encode_ms", layer("server.response_encode"))
	r.add("server.response_encode_allocs", encAllocs)
	r.add("server.bytes_in", median(bytesIn))
	r.add("server.bytes_out", median(bytesOut))
	r.add("server.outside_solve_ms", median(outside))
	r.add("server.unattributed_ms", median(unattributed))
	r.add("server.cpu_ms_per_req", d.cpuPerReq)
	r.add("instance.read_json_ms", layer("instance.read_json"))
	r.add("instance.read_json_allocs", readAllocs)
	r.add("costmodel.family_ms", layer("costmodel.family"))
	r.add("costmodel.depth_ms", layer("costmodel.depth"))
	r.add("costmodel.estimate_lp_ms", median(p.values["costmodel.estimate_lp_ms"]))
	r.add("costmodel.predict_ms", layer("costmodel.predict"))
	r.add("activetime.route_ms", layer("activetime.route"))
	r.add("solvecache.key_ms", layer("solvecache.key"))
	r.add("solvecache.canonical_order_ms", layer("solvecache.canonical_order"))
	r.add("solvecache.struct_key_ms", layer("solvecache.struct_key"))
	r.add("solvecache.hit_ratio", hits/max(hits+misses+coalesced, 1))
	r.add("solvecache.evictions", delta("activetime_cache_evictions_total"))
	r.add("solvecache.warm_bytes", d.after["activetime_cache_warm_bytes"])
	r.add("warm.starts", starts)
	r.add("warm.start_ratio", starts/max(starts+fallbacks, 1))
	r.add("comb.tree_build_ms", layer("comb.tree_build"))
	r.add("comb.activate_ms", layer("comb.activate"))
	r.add("comb.deactivate_ms", layer("comb.deactivate"))
	r.add("comb.solve_allocs", combAllocs)
	r.add("sched.validate_ms", layer("sched.validate"))
	r.add("sched.relabel_ms", layer("sched.relabel"))
	r.add("sched.write_json_ms", layer("sched.write_json"))
	r.add("sched.write_json_bytes", median(p.values["sched.write_json_bytes"]))
	r.add("core.lp_solve_ms", layer("core.lp_solve"))
	r.add("core.round_ms", layer("core.round"))
	r.add("core.feas_check_ms", layer("core.feas_check"))
	r.add("core.place_ms", layer("core.place"))
	r.add("simplex.pivots", perLP(p.pivots))
	r.add("maxflow.dinic_bfs_rounds", perLP(p.bfsRounds))
	r.add("greedy.solve_ms", layer("greedy.solve"))
	r.add("obs.overhead_pct", obsPct)
	r.add("bench.generator_late_p99_ms", quantile(late, 0.99))
	r.add("bench.conn_wait_p99_ms", quantile(wait, 0.99))
	r.add("bench.trace_overhead_pct", 100*perSpan*spansPerReq/max(median(reqMS), 1e-9))
	for _, m := range r.metrics {
		r.note("%-32s %14.4f %-5s moves: %s", m.name, m.value, m.unit, movesOf(m.name))
	}
	path := r.spansOut
	if path == "" {
		path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, r.seed))
	}
	return tr.writeChrome(path)
}

const (
	replayMax    = 400
	replayBudget = 20 * time.Second
)
