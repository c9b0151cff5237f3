package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one activetimed process started by the benchmark.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// startServer execs the server binary with default flags apart from
// the listen address (plus extra), its logs discarded, and returns once
// /healthz answers 200. setup is the time from exec to that answer.
func startServer(bin string, extra ...string) (s *serverProc, setup time.Duration, err error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	s = &serverProc{cmd: cmd, url: "http://" + addr, done: make(chan error, 1)}
	probe := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	go func() { s.done <- cmd.Wait() }()
	deadline := start.Add(20 * time.Second)
	for {
		resp, err := probe.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case werr := <-s.done:
			s.done <- werr
			return nil, 0, fmt.Errorf("server exited before answering /healthz: %v", werr)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server did not answer /healthz within 20s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop terminates the server and waits until the process has ended.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// cpuMS returns the process's user+system CPU time in milliseconds,
// from /proc/<pid>/stat (clock ticks of 10 ms, the Linux USER_HZ).
func cpuMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("read cpu time: %w", err)
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times")
	}
	return (ut + st) * 10, nil
}

// hostTicks returns the machine's steal and total CPU ticks from
// /proc/stat. Steal is time the hypervisor ran something else on this
// machine's CPUs; the run prints its share so a slow run can be told
// apart from a slow server. It returns zeros where there is no such
// line.
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// rssMiB returns the process's resident set size in MiB.
func rssMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("read rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmRSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS line")
}

// rssSampler samples the server's RSS every 50 ms until stopped.
type rssSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func sampleRSS(pid int) *rssSampler {
	r := &rssSampler{stopc: make(chan struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := rssMiB(pid); err == nil {
				r.samples = append(r.samples, v)
			}
			select {
			case <-r.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// stop ends sampling and returns the samples taken.
func (r *rssSampler) stop() []float64 {
	close(r.stopc)
	r.wg.Wait()
	return r.samples
}

// scrape reads the server's /metrics into a map keyed by the series
// name with its labels, e.g. `activetime_warm_starts_total{kind="raise_g"}`.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return out, nil
}
