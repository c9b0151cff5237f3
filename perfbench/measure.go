package main

import (
	"fmt"
	"net/http"
	"sync"
)

// measure is the untraced run: it reports the end-to-end metrics.
func (r *run) measure(w *workload) error {
	in := w.build(r)
	srv, setup, err := r.boot()
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(2)
	next, err := r.warmUp(c, srv.url, in)
	if err != nil {
		return err
	}
	gcBeforeMeasuring()
	cpu0, err := cpuMS(srv.pid())
	if err != nil {
		return err
	}
	rss := sampleRSS(srv.pid())
	steal0, total0 := hostTicks()
	ph := in.measure(c, srv.url, next)
	steal1, total1 := hostTicks()
	rssSamples := rss.stop()
	cpu1, err := cpuMS(srv.pid())
	if err != nil {
		return err
	}

	ok := r.checkAll(in, ph.all)
	var jobs, active, lb float64
	var rated int
	for i, s := range ph.all {
		if !ok[i] {
			continue
		}
		active += float64(s.active)
		lb += float64(in.lbOf(s.req))
		if i >= ph.rateFrom {
			jobs += float64(s.jobs)
			if ph.rateLimit == 0 || s.lat <= ph.rateLimit {
				rated++
			}
		}
	}
	lats := latencies(ph.all[:ph.nLat])
	tailMS, beyond := tail(lats, w.tailPct)
	r.note("%s seed %d: %d requests measured; latency_tail_ms is p%g of %d samples, %d beyond it; server cpu %.0f ms",
		w.name, r.seed, len(ph.all), w.tailPct, len(lats), beyond, cpu1-cpu0)
	r.note("%s seed %d: host steal %.1f%% of CPU time while measuring",
		w.name, r.seed, 100*(steal1-steal0)/max(total1-total0, 1))
	if ph.rateLimit > 0 {
		var late, wait []float64
		for _, s := range ph.all[:ph.nLat] {
			late, wait = append(late, ms(s.late)), append(wait, ms(s.wait))
		}
		r.note("%s seed %d: open loop: generator late p99 %.3f ms, connection wait p99 %.3f ms",
			w.name, r.seed, quantile(late, 0.99), quantile(wait, 0.99))
		r.note("%s seed %d: max_rate_rps counts %d of %d saturation answers within %v over %.2f s",
			w.name, r.seed, rated, len(ph.all)-ph.rateFrom, ph.rateLimit, ph.rateWall.Seconds())
	}
	r.add("latency_p50_ms", median(lats))
	r.add("latency_tail_ms", tailMS)
	r.add("jobs_per_s", jobs/ph.rateWall.Seconds())
	r.add("max_rate_rps", float64(rated)/ph.rateWall.Seconds())
	r.add("ok_frac", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)))
	r.add("slots_per_lb", active/max(lb, 1))
	r.add("server_rss_p90_mb", quantile(rssSamples, 0.9))
	r.add("setup_s", setup)
	return nil
}

// warmUp primes the workload's pool one request at a time, then runs
// the warm-up phase. Its answers are checked but not counted: any
// failure or wrong answer ends the run with an error. It returns the
// first request of the measured phase.
func (r *run) warmUp(c *http.Client, url string, in *inputs) (int, error) {
	check := func(k, code int, resp []byte, err error) error {
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d, %v", k, code, err)
		}
		if _, err := checkAnswer(in.instOf(k), resp); err != nil {
			return fmt.Errorf("warm-up request %d: %w", k, err)
		}
		return nil
	}
	for _, k := range in.prime {
		code, resp, err := post(c, url, in.bodyOf(k))
		if err := check(k, code, resp, err); err != nil {
			return 0, err
		}
	}
	s := in.warm(c, url, 0)
	for _, x := range s {
		if err := check(x.req, x.code, x.resp, x.err); err != nil {
			return 0, err
		}
	}
	return len(s), nil
}

// checkAll checks every measured answer, counts attempts and failures
// on r, records each valid answer's fields on its sample, and returns
// which answers were valid. A transport error or non-200 answer is a
// failure; a 200 whose schedule fails the check is also wrong. Two
// goroutines share the checking, which runs after the measured phase.
func (r *run) checkAll(in *inputs, all []sample) []bool {
	reps := make([]*reply, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += 2 {
				if s := &all[i]; s.err == nil && s.code == http.StatusOK {
					reps[i], errs[i] = checkAnswer(in.instOf(s.req), s.resp)
				}
			}
		}(w)
	}
	wg.Wait()
	ok := make([]bool, len(all))
	for i := range all {
		s := &all[i]
		r.attempted++
		if s.err != nil || s.code != http.StatusOK {
			r.failed++
			if len(r.notes) < 5 {
				r.note("request %d failed: status %d, %v", s.req, s.code, s.err)
			}
			continue
		}
		if errs[i] != nil {
			r.failed++
			r.wrong++
			if len(r.notes) < 5 {
				r.note("request %d: wrong answer: %v", s.req, errs[i])
			}
			continue
		}
		rep := reps[i]
		s.active, s.jobs, s.respLen = rep.ActiveSlots, rep.Jobs, len(s.resp)
		s.elapsedMS, s.cached, s.warm = rep.ElapsedMS, rep.Cached, rep.WarmStart
		s.resp = nil
		ok[i] = true
	}
	return ok
}
