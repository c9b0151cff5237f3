package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Registry is the process-lifetime cumulative telemetry store for a
// long-running solver service. Where a Recorder scopes one solve, a
// Registry aggregates every solve the process has performed: request
// totals, per-stage cumulative wall time, operation counters, an
// in-flight gauge and a solve-latency histogram. All methods are safe
// for concurrent use; WritePrometheus renders the whole registry in
// Prometheus text exposition format for a /metrics endpoint.
type Registry struct {
	start time.Time

	solves   atomic.Int64
	errors   atomic.Int64
	inFlight atomic.Int64

	requests       atomic.Int64
	admissionQueue atomic.Int64

	shed          atomic.Int64
	timeouts      atomic.Int64
	canceled      atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	cacheCoalesce atomic.Int64

	warmRaiseG    atomic.Int64
	warmSuperset  atomic.Int64
	warmFallbacks atomic.Int64

	cacheStats atomic.Pointer[CacheStatsFunc]

	stages   [numStages]stageAcc
	counters [len(counterNames)]atomic.Int64

	latency secondsHistogram

	jobs jobStats
}

// NewRegistry returns an empty registry whose uptime clock starts now.
func NewRegistry() *Registry {
	return &Registry{start: time.Now()}
}

// counterNames fixes the exposition order and label names of the
// operation counters; it must stay aligned with CounterStats.values.
var counterNames = [...]string{
	"simplex_solves",
	"simplex_pivots",
	"simplex_phase1_pivots",
	"ratsimplex_solves",
	"ratsimplex_pivots",
	"dinic_runs",
	"dinic_bfs_rounds",
	"dinic_augmenting_paths",
	"push_relabel_runs",
	"push_relabel_pushes",
	"push_relabel_relabels",
	"bb_nodes_expanded",
	"bb_nodes_pruned",
	"transform_moves",
	"forests_solved",
	"comb_activations",
	"comb_reused",
	"comb_deactivations",
	"comb_repairs",
}

// values lists the counter snapshot in counterNames order.
func (c CounterStats) values() []int64 {
	return []int64{
		c.SimplexSolves,
		c.SimplexPivots,
		c.SimplexPhase1Pivots,
		c.RatSolves,
		c.RatPivots,
		c.DinicRuns,
		c.DinicBFSRounds,
		c.DinicAugPaths,
		c.PushRelabelRuns,
		c.PushRelabelPushes,
		c.PushRelabelRelabels,
		c.BBNodesExpanded,
		c.BBNodesPruned,
		c.TransformMoves,
		c.ForestsSolved,
		c.CombActivations,
		c.CombReused,
		c.CombDeactivations,
		c.CombRepairs,
	}
}

// stageIndex maps a stage's snake_case name back to its index.
func stageIndex(name string) (Stage, bool) {
	for i := 0; i < int(numStages); i++ {
		if Stage(i).String() == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// SolveStarted marks a /solve request entering the pipeline,
// incrementing the in-flight gauge. Pair it with ObserveSolve.
func (g *Registry) SolveStarted() { g.inFlight.Add(1) }

// ObserveSolve folds one finished solve into the cumulative totals:
// it decrements the in-flight gauge, counts the request (and its
// error, if any), records the latency, and merges the solve's Stats
// snapshot (per-stage time and calls, operation counters). A nil
// stats merges only the request-level series, which is what error
// paths produce.
func (g *Registry) ObserveSolve(stats *Stats, d time.Duration, err error) {
	g.inFlight.Add(-1)
	g.solves.Add(1)
	if err != nil {
		g.errors.Add(1)
	}
	g.latency.Observe(d)
	if stats == nil {
		return
	}
	for i, v := range stats.Counters.values() {
		if v != 0 {
			g.counters[i].Add(v)
		}
	}
	for _, st := range stats.Stages {
		if i, ok := stageIndex(st.Stage); ok {
			g.stages[i].ns.Add(st.Nanos)
			g.stages[i].calls.Add(st.Calls)
		}
	}
}

// RequestStarted marks an HTTP request entering the /solve handler,
// before admission control; pair with RequestFinished. Where the
// solves-in-flight gauge counts executing solves, this one also
// covers requests parked in the admission wait, so load generators
// can correlate offered load with /metrics.
func (g *Registry) RequestStarted() { g.requests.Add(1) }

// RequestFinished marks an HTTP request leaving the /solve handler.
func (g *Registry) RequestFinished() { g.requests.Add(-1) }

// InFlightRequests returns the current handler-level request gauge.
func (g *Registry) InFlightRequests() int64 { return g.requests.Load() }

// AdmissionWaitStarted marks a request entering the admission queue
// (all in-flight slots taken, waiting for one to free up); pair with
// AdmissionWaitFinished whichever way the wait resolves.
func (g *Registry) AdmissionWaitStarted() { g.admissionQueue.Add(1) }

// AdmissionWaitFinished marks a request leaving the admission queue —
// admitted, shed, or canceled.
func (g *Registry) AdmissionWaitFinished() { g.admissionQueue.Add(-1) }

// AdmissionQueueDepth returns the number of requests currently
// waiting for an in-flight slot.
func (g *Registry) AdmissionQueueDepth() int64 { return g.admissionQueue.Load() }

// AdmissionShed counts a request rejected by admission control (the
// in-flight limit was saturated for the whole acquisition wait).
func (g *Registry) AdmissionShed() { g.shed.Add(1) }

// SolveTimedOut counts a solve aborted because its deadline (the
// request's timeout_ms or the server-wide cap) fired. Client
// disconnects are counted separately by SolveCanceled.
func (g *Registry) SolveTimedOut() { g.timeouts.Add(1) }

// SolveCanceled counts a solve aborted by a non-deadline
// cancellation — in practice the client disconnecting mid-request.
func (g *Registry) SolveCanceled() { g.canceled.Add(1) }

// CacheHit counts a request answered from the solve cache.
func (g *Registry) CacheHit() { g.cacheHits.Add(1) }

// CacheMiss counts a request that executed a fresh solve.
func (g *Registry) CacheMiss() { g.cacheMisses.Add(1) }

// CacheCoalesced counts a request that joined an in-flight solve of
// the same canonical instance.
func (g *Registry) CacheCoalesced() { g.cacheCoalesce.Add(1) }

// CacheStatsFunc reports solve-cache gauges: live entries, cumulative
// evictions, and retained warm-state bytes.
type CacheStatsFunc func() (entries, evictions, warmBytes int64)

// SetCacheStatsFunc installs the callback WritePrometheus uses for the
// activetime_cache_entries / _evictions_total / _warm_bytes series.
// A nil callback (the default) exposes zeros.
func (g *Registry) SetCacheStatsFunc(f CacheStatsFunc) {
	if f == nil {
		g.cacheStats.Store(nil)
		return
	}
	g.cacheStats.Store(&f)
}

// WarmStart counts a request answered by resuming retained warm state
// instead of solving cold. Kind is "raise_g" or "superset" (anything
// else is folded into raise_g to keep the label set fixed).
func (g *Registry) WarmStart(kind string) {
	if kind == "superset" {
		g.warmSuperset.Add(1)
		return
	}
	g.warmRaiseG.Add(1)
}

// WarmFallback counts a warm-start attempt that failed (mismatched or
// corrupt retained state) and fell back to a cold solve.
func (g *Registry) WarmFallback() { g.warmFallbacks.Add(1) }

// WarmStarts returns the cumulative warm-start counts by kind.
func (g *Registry) WarmStarts() (raiseG, superset int64) {
	return g.warmRaiseG.Load(), g.warmSuperset.Load()
}

// WarmFallbacks returns the number of warm attempts that fell back.
func (g *Registry) WarmFallbacks() int64 { return g.warmFallbacks.Load() }

// Shed returns the number of admission-rejected requests.
func (g *Registry) Shed() int64 { return g.shed.Load() }

// Timeouts returns the number of solves aborted by a deadline.
func (g *Registry) Timeouts() int64 { return g.timeouts.Load() }

// Canceled returns the number of solves aborted by client disconnect.
func (g *Registry) Canceled() int64 { return g.canceled.Load() }

// CacheHits returns the number of cache-served requests.
func (g *Registry) CacheHits() int64 { return g.cacheHits.Load() }

// CacheMisses returns the number of cache-missed requests.
func (g *Registry) CacheMisses() int64 { return g.cacheMisses.Load() }

// CacheCoalescedCount returns the number of coalesced requests.
func (g *Registry) CacheCoalescedCount() int64 { return g.cacheCoalesce.Load() }

// Solves returns the number of completed solves.
func (g *Registry) Solves() int64 { return g.solves.Load() }

// Errors returns the number of failed solves.
func (g *Registry) Errors() int64 { return g.errors.Load() }

// InFlight returns the current in-flight gauge.
func (g *Registry) InFlight() int64 { return g.inFlight.Load() }

// StageSecondsTotal returns the cumulative wall-clock seconds merged
// for stage s.
func (g *Registry) StageSecondsTotal(s Stage) float64 {
	if s < 0 || s >= numStages {
		return 0
	}
	return float64(g.stages[s].ns.Load()) / 1e9
}

// CounterTotals returns the cumulative operation counters as a
// CounterStats snapshot — the registry-side mirror of summing every
// merged Stats.Counters.
func (g *Registry) CounterTotals() CounterStats {
	var c CounterStats
	vals := make([]int64, len(counterNames))
	for i := range vals {
		vals[i] = g.counters[i].Load()
	}
	c.SimplexSolves = vals[0]
	c.SimplexPivots = vals[1]
	c.SimplexPhase1Pivots = vals[2]
	c.RatSolves = vals[3]
	c.RatPivots = vals[4]
	c.DinicRuns = vals[5]
	c.DinicBFSRounds = vals[6]
	c.DinicAugPaths = vals[7]
	c.PushRelabelRuns = vals[8]
	c.PushRelabelPushes = vals[9]
	c.PushRelabelRelabels = vals[10]
	c.BBNodesExpanded = vals[11]
	c.BBNodesPruned = vals[12]
	c.TransformMoves = vals[13]
	c.ForestsSolved = vals[14]
	c.CombActivations = vals[15]
	c.CombReused = vals[16]
	c.CombDeactivations = vals[17]
	c.CombRepairs = vals[18]
	return c
}

// latencyBuckets are the upper bounds (seconds) of the solve-latency
// histogram, chosen to straddle the microsecond-scale tiny solves and
// the multi-second NP-hard regime.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// LatencyBucketBounds returns a copy of the solve-latency histogram's
// bucket upper bounds, in seconds. External recorders (the loadgen
// subsystem's client-side latency histogram in particular) build on
// these bounds so their percentiles line up with the buckets the
// service itself exposes on /metrics.
func LatencyBucketBounds() []float64 {
	b := make([]float64, len(latencyBuckets))
	copy(b, latencyBuckets[:])
	return b
}

// secondsHistogram is a fixed-bucket cumulative histogram over
// durations, shaped for Prometheus exposition.
type secondsHistogram struct {
	buckets [len(latencyBuckets) + 1]atomic.Int64 // last = +Inf overflow
	count   atomic.Int64
	sumNS   atomic.Int64
}

func (h *secondsHistogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], s)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Every series is emitted even at zero so the
// set of exposed names is static — scrapers and golden tests see the
// same block regardless of traffic history.
func (g *Registry) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP activetime_uptime_seconds Seconds since the registry (process) started.\n")
	p("# TYPE activetime_uptime_seconds gauge\n")
	p("activetime_uptime_seconds %g\n", time.Since(g.start).Seconds())

	p("# HELP activetime_solves_total Completed solve requests.\n")
	p("# TYPE activetime_solves_total counter\n")
	p("activetime_solves_total %d\n", g.solves.Load())

	p("# HELP activetime_solve_errors_total Solve requests that returned an error.\n")
	p("# TYPE activetime_solve_errors_total counter\n")
	p("activetime_solve_errors_total %d\n", g.errors.Load())

	p("# HELP activetime_solves_in_flight Solve requests currently executing.\n")
	p("# TYPE activetime_solves_in_flight gauge\n")
	p("activetime_solves_in_flight %d\n", g.inFlight.Load())

	p("# HELP activetime_inflight_requests Solve requests currently inside the handler, including those waiting for admission.\n")
	p("# TYPE activetime_inflight_requests gauge\n")
	p("activetime_inflight_requests %d\n", g.requests.Load())

	p("# HELP activetime_admission_queue_depth Solve requests currently waiting for an in-flight slot.\n")
	p("# TYPE activetime_admission_queue_depth gauge\n")
	p("activetime_admission_queue_depth %d\n", g.admissionQueue.Load())

	p("# HELP activetime_admission_shed_total Requests rejected because the in-flight limit was saturated.\n")
	p("# TYPE activetime_admission_shed_total counter\n")
	p("activetime_admission_shed_total %d\n", g.shed.Load())

	p("# HELP activetime_solve_timeouts_total Solves aborted because a solve deadline (timeout_ms or -solve-timeout) expired.\n")
	p("# TYPE activetime_solve_timeouts_total counter\n")
	p("activetime_solve_timeouts_total %d\n", g.timeouts.Load())

	p("# HELP activetime_solve_canceled_total Solves aborted because the client disconnected.\n")
	p("# TYPE activetime_solve_canceled_total counter\n")
	p("activetime_solve_canceled_total %d\n", g.canceled.Load())

	p("# HELP activetime_cache_hits_total Requests served from the solve cache.\n")
	p("# TYPE activetime_cache_hits_total counter\n")
	p("activetime_cache_hits_total %d\n", g.cacheHits.Load())

	p("# HELP activetime_cache_misses_total Requests that executed a fresh solve.\n")
	p("# TYPE activetime_cache_misses_total counter\n")
	p("activetime_cache_misses_total %d\n", g.cacheMisses.Load())

	p("# HELP activetime_cache_coalesced_total Requests that joined an identical in-flight solve.\n")
	p("# TYPE activetime_cache_coalesced_total counter\n")
	p("activetime_cache_coalesced_total %d\n", g.cacheCoalesce.Load())

	p("# HELP activetime_warm_starts_total Requests answered by resuming retained warm solver state, by delta kind.\n")
	p("# TYPE activetime_warm_starts_total counter\n")
	p("activetime_warm_starts_total{kind=\"raise_g\"} %d\n", g.warmRaiseG.Load())
	p("activetime_warm_starts_total{kind=\"superset\"} %d\n", g.warmSuperset.Load())

	p("# HELP activetime_warm_fallbacks_total Warm-start attempts that failed and fell back to a cold solve.\n")
	p("# TYPE activetime_warm_fallbacks_total counter\n")
	p("activetime_warm_fallbacks_total %d\n", g.warmFallbacks.Load())

	var cacheEntries, cacheEvictions, cacheWarmBytes int64
	if f := g.cacheStats.Load(); f != nil {
		cacheEntries, cacheEvictions, cacheWarmBytes = (*f)()
	}
	p("# HELP activetime_cache_entries Live entries in the solve cache.\n")
	p("# TYPE activetime_cache_entries gauge\n")
	p("activetime_cache_entries %d\n", cacheEntries)

	p("# HELP activetime_cache_evictions_total Solve-cache entries evicted by the LRU policy.\n")
	p("# TYPE activetime_cache_evictions_total counter\n")
	p("activetime_cache_evictions_total %d\n", cacheEvictions)

	p("# HELP activetime_cache_warm_bytes Warm solver state currently retained on cache entries, in bytes.\n")
	p("# TYPE activetime_cache_warm_bytes gauge\n")
	p("activetime_cache_warm_bytes %d\n", cacheWarmBytes)

	p("# HELP activetime_stage_seconds_total Cumulative wall-clock seconds per pipeline stage.\n")
	p("# TYPE activetime_stage_seconds_total counter\n")
	for i := 0; i < int(numStages); i++ {
		p("activetime_stage_seconds_total{stage=%q} %g\n",
			Stage(i).String(), float64(g.stages[i].ns.Load())/1e9)
	}

	p("# HELP activetime_stage_calls_total Cumulative timed calls per pipeline stage.\n")
	p("# TYPE activetime_stage_calls_total counter\n")
	for i := 0; i < int(numStages); i++ {
		p("activetime_stage_calls_total{stage=%q} %d\n",
			Stage(i).String(), g.stages[i].calls.Load())
	}

	p("# HELP activetime_ops_total Cumulative solver operation counts by kind.\n")
	p("# TYPE activetime_ops_total counter\n")
	for i, name := range counterNames {
		p("activetime_ops_total{op=%q} %d\n", name, g.counters[i].Load())
	}

	p("# HELP activetime_solve_duration_seconds Solve request latency.\n")
	p("# TYPE activetime_solve_duration_seconds histogram\n")
	var cum int64
	for i, le := range latencyBuckets {
		cum += g.latency.buckets[i].Load()
		p("activetime_solve_duration_seconds_bucket{le=%q} %d\n", formatLE(le), cum)
	}
	cum += g.latency.buckets[len(latencyBuckets)].Load()
	p("activetime_solve_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	p("activetime_solve_duration_seconds_sum %g\n", float64(g.latency.sumNS.Load())/1e9)
	p("activetime_solve_duration_seconds_count %d\n", g.latency.count.Load())

	if err == nil {
		err = g.writeJobsPrometheus(w)
	}
	return err
}

// formatLE renders a bucket bound the way Prometheus clients
// conventionally do: shortest decimal form.
func formatLE(v float64) string {
	return fmt.Sprintf("%g", v)
}
