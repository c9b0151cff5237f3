package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as the client saw it.
type sample struct {
	req  int // index into the workload's request list
	code int
	err  error
	resp []byte
	// Read from a valid answer when it is checked (resp is then dropped).
	active    int64
	jobs      int
	respLen   int
	elapsedMS float64
	cached    bool
	warm      bool
	// lat is client-observed latency: from send in a closed loop, from
	// the due time in an open loop (so a stall also delays later ones).
	lat time.Duration
	// In an open loop, wait is how long a request waited for a free
	// connection after it was due, and late how late the generator
	// itself queued it.
	wait, late time.Duration
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func post(c *http.Client, url string, b []byte) (int, []byte, error) {
	resp, err := c.Post(url+"/solve", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read answer: %w", err)
	}
	return resp.StatusCode, out, nil
}

// closedLoop runs clients that each send the next request as soon as
// the previous one is answered, until dur has passed. bodyOf(k) returns
// the pre-built body of the k-th request.
// It returns the samples in request order and the wall time from start
// to the last answer.
func closedLoop(c *http.Client, url string, clients int, dur time.Duration, first int,
	bodyOf func(k int) []byte) ([]sample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	end := start.Add(dur)
	per := make([][]sample, clients)
	lastDone := make([]time.Time, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(end) {
				k := int(next.Add(1) - 1)
				t0 := time.Now()
				code, resp, err := post(c, url, bodyOf(k))
				done := time.Now()
				per[i] = append(per[i], sample{req: k, code: code, err: err, resp: resp, lat: done.Sub(t0)})
				lastDone[i] = done
			}
		}(i)
	}
	wg.Wait()
	var out []sample
	last := start
	for i := range per {
		out = append(out, per[i]...)
		if lastDone[i].After(last) {
			last = lastDone[i]
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].req < out[b].req })
	return out, last.Sub(start)
}

// arrivals returns seeded Poisson arrival offsets in [0, dur) at rate
// requests per second.
func arrivals(rng *rand.Rand, dur time.Duration, rate float64) []time.Duration {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return due
		}
		due = append(due, t)
	}
}

// openLoop offers requests first, first+1, … at the due offsets over at
// most conns connections. A request that finds every connection busy
// waits in a queue; its latency counts from when it was due. It returns
// the offered requests in due order.
func openLoop(c *http.Client, url string, conns int, due []time.Duration, first int,
	bodyOf func(k int) []byte) []sample {
	type item struct {
		k    int
		due  time.Time
		late time.Duration
	}
	// Sized to the number of sends, so the generator never blocks: the
	// queue is the open loop's backlog.
	queue := make(chan item, len(due))
	out := make([]sample, len(due))
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				wait := time.Since(it.due)
				code, resp, err := post(c, url, bodyOf(it.k))
				s := &out[it.k-first]
				s.code, s.err, s.resp = code, err, resp
				s.lat, s.wait, s.late = time.Since(it.due), wait, it.late
			}
		}()
	}
	start := time.Now()
	for i, d := range due {
		at := start.Add(d)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		out[i].req = first + i
		queue <- item{k: first + i, due: at, late: time.Since(at)}
	}
	close(queue)
	wg.Wait()
	return out
}
