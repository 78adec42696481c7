package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/spec"
)

// request is one cacheable daemon request; the pool holds each once.
type request struct {
	label  string // the result's identity, for digests and reports
	method string
	path   string
	body   []byte
}

// daemonPool is the daemon-zipf key pool: the sweep-space shard without
// its SGX-MT specs (each of those takes seconds, which would let a
// handful of keys set the whole phase time) as POST /v1/channels/run
// bodies, plus cheap artifacts at four seeds.
func daemonPool(c *child) ([]request, error) {
	_, o, specs, err := sweepShard(c)
	if err != nil {
		return nil, err
	}
	var pool []request
	for _, cs := range specs {
		if cs.SGX && cs.Threading == spec.ThreadingMT {
			continue
		}
		body, err := json.Marshal(map[string]any{"spec": cs, "opts": map[string]int{"bits": o.Bits}})
		if err != nil {
			return nil, err
		}
		pool = append(pool, request{label: cs.String(), method: http.MethodPost, path: "/v1/channels/run", body: body})
	}
	arts, seeds := []string{"tableIV", "figure4", "figure10", "figure2", "tableVII", "figure9"}, 4
	if c.cfg.smoke {
		arts, seeds = []string{"tableIV", "figure10"}, 2
	}
	for _, a := range arts {
		for s := 1; s <= seeds; s++ {
			path := fmt.Sprintf("/v1/artifacts/%s?seed=%d&bits=24&samples=25", a, s)
			pool = append(pool, request{label: path, method: http.MethodGet, path: path})
		}
	}
	return pool, nil
}

// zipfAlpha is the key-popularity exponent. The daemon has no recorded
// request log, so the mix is synthetic; 0.8 lies in the 0.64-0.83 range
// Breslau et al. measured on web-proxy traces ("Web Caching and Zipf-like
// Distributions", INFOCOM 1999).
const zipfAlpha = 0.8

// requestSequences draws the cold phase's request order over a pool of
// n keys and a reshuffled replay of it. Every key appears at least once,
// so the simulations a cold phase runs are the whole pool whatever the
// seed; the remaining draws follow Zipf(zipfAlpha) over seed-shuffled
// ranks.
func requestSequences(seed uint64, n, total int) (cold, replay []int) {
	r := rng.New(rng.SplitSeed(seed, "daemon-zipf"))
	rank := r.Perm(n)
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -zipfAlpha)
		cdf[i] = sum
	}
	cold = make([]int, 0, total)
	for k := range n {
		cold = append(cold, k)
	}
	for len(cold) < total {
		i := sort.SearchFloat64s(cdf, r.Float64()*sum)
		cold = append(cold, rank[min(i, n-1)])
	}
	shuffle := func(xs []int) {
		for i := len(xs) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	shuffle(cold)
	replay = append([]int(nil), cold...)
	shuffle(replay)
	return cold, replay
}

// outcome is one request as the client saw it.
type outcome struct {
	key    int
	ms     float64
	status int
	body   []byte
	hit    bool // the key had finished before the request was sent
}

// runDaemon is the daemon-zipf workload: two closed-loop clients share
// one queue of Zipf-distributed requests against a leakyfed with a disk
// store. The daemon runs with the flags scripts/fleet_e2e.sh gives its
// workers (-workers 2 -cache-dir DIR) and its shipped defaults otherwise,
// and the phases follow that script: the cold phase is timed as wall_s,
// then the daemon is stopped, restarted on the same store, and the
// requests replayed in a new order. Time goes to the serve and store
// layers — LRU, singleflight, JSON/HTTP, store writes and reads — and to
// the simulations of the pool's keys.
func runDaemon(c *child) error {
	pool, err := daemonPool(c)
	if err != nil {
		return err
	}
	total := 1000
	if c.cfg.smoke {
		total = 50
	}
	cold, replay := requestSequences(c.cfg.seed, len(pool), total)
	dir, err := os.MkdirTemp(c.cfg.out, "daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	args := []string{"-workers", strconv.Itoa(workers), "-cache-dir", filepath.Join(dir, "store")}
	client := newClient()
	defer client.CloseIdleConnections()

	// Set-up is this process up to the daemon's start plus the daemon's
	// boot; the /healthz polling in between is the benchmark's, not the
	// program's.
	inputCPU := selfCPU()
	sp := c.span(nil, "leakyfed.boot")
	d, err := startDaemon(args, filepath.Join(dir, "leakyfed.log"), client)
	sp.End()
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	bootCPU, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	if !c.ready(inputCPU + bootCPU) {
		_, err := d.stop(client)
		return err
	}

	before, err := d.scrape(client)
	if err != nil {
		return err
	}
	// The cold phase's CPU time is the daemon's; the clients are load.
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	sp = c.span(nil, "serve.cold")
	start := time.Now()
	coldOut := d.phase(c, sp, client, pool, cold)
	c.res.WallS = time.Since(start).Seconds()
	sp.End()
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	c.res.CPUS = cpu1 - cpu0
	after, err := d.scrape(client)
	if err != nil {
		return err
	}
	if c.res.RSSKB, err = d.stop(client); err != nil {
		return err
	}

	sp = c.span(nil, "leakyfed.restart")
	d, err = startDaemon(args, filepath.Join(dir, "leakyfed.log"), client)
	sp.End()
	if err != nil {
		return err
	}
	replayBefore, err := d.scrape(client)
	if err != nil {
		return err
	}
	sp = c.span(nil, "serve.replay")
	replayOut := d.phase(c, sp, client, pool, replay)
	sp.End()
	replayAfter, err := d.scrape(client)
	if err != nil {
		return err
	}
	if _, err := d.stop(client); err != nil {
		return err
	}

	// Every response for a key must carry the same bytes, whether it
	// simulated, hit the LRU, or came back from the store after the
	// restart.
	bodies := make([][]byte, len(pool))
	var missMS float64
	var hits int
	var latMS []float64
	for _, o := range append(coldOut, replayOut...) {
		c.res.Attempted++
		latMS = append(latMS, o.ms)
		if o.status != http.StatusOK {
			c.res.Failed++
			continue
		}
		switch {
		case bodies[o.key] == nil:
			bodies[o.key] = o.body
		case !bytes.Equal(bodies[o.key], o.body):
			c.problem("%s: response bytes differ between requests", pool[o.key].label)
		}
	}
	for _, o := range coldOut {
		if o.hit {
			hits++
		} else {
			missMS += o.ms
		}
	}
	if n := replayAfter["leakyfed_cache_misses_total"] - replayBefore["leakyfed_cache_misses_total"]; n != 0 {
		c.problem("replay after restart ran %v simulations, want 0", n)
	}
	var all bytes.Buffer
	for k, rq := range pool {
		if bodies[k] == nil {
			c.problem("%s: no successful response", rq.label)
		}
		fmt.Fprintf(&all, "%s\n%s\n", rq.label, bodies[k])
	}
	c.digest("daemon/responses", all.Bytes())

	delta := func(name string) float64 { return after[name] - before[name] }
	l := c.res.Layer
	l["serve.cache_hits"] = delta("leakyfed_cache_hits_total")
	l["serve.cache_misses"] = delta("leakyfed_cache_misses_total")
	l["serve.dedup"] = delta("leakyfed_deduplicated_total")
	l["serve.rejected"] = delta("leakyfed_rejected_total")
	l["store.puts"] = delta("leakyfed_store_puts_total")
	l["store.hits"] = delta("leakyfed_store_hits_total")
	l["store.bytes"] = after["leakyfed_store_bytes"]
	l["serve.hit_ratio"] = float64(hits) / float64(len(coldOut))
	// Client-side latency over both phases. Not a declared metric, since
	// only this workload has requests; the samples file keeps it.
	l["serve.req_p50_ms"] = median(latMS)
	l["serve.req_p99_ms"] = quantile(latMS, 0.99)
	if missMS > 0 {
		// The part of miss latency the simulation does not explain: queue
		// admission, singleflight, JSON and HTTP, and the store write.
		l["serve.nonsim.share"] = 1 - 1000*delta("leakyfed_run_seconds_sum")/missMS
	}
	return nil
}

// racyCounts are the daemon counts that depend on how the two clients
// interleave, so they need not repeat exactly between repetitions.
var racyCounts = map[string]bool{"serve.cache_hits": true, "serve.dedup": true, "store.hits": true}

// phase sends seq through the daemon from the load's two closed-loop
// clients, which share one queue.
func (d *daemon) phase(c *child, parent *obs.Span, client *http.Client, pool []request, seq []int) []outcome {
	out := make([]outcome, len(seq))
	var mu sync.Mutex
	finished := make([]bool, len(pool))
	parallel(len(seq), func(i int) {
		k := seq[i]
		mu.Lock()
		hit := finished[k]
		mu.Unlock()
		sp := c.span(parent, "serve.request", obs.String("key", pool[k].label), obs.String("hit", strconv.FormatBool(hit)))
		t := time.Now()
		status, body, err := d.do(client, pool[k])
		out[i] = outcome{key: k, ms: msSince(t), status: status, body: body, hit: hit}
		if err != nil {
			sp.SetAttr("err", err.Error())
		}
		sp.End()
		if status == http.StatusOK {
			mu.Lock()
			finished[k] = true
			mu.Unlock()
		}
	})
	return out
}

// daemon is one leakyfed process the benchmark started.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers},
	}
}

// startDaemon boots the leakyfed next to this binary on a free loopback
// port, with its output in logPath, and waits until /healthz answers.
func startDaemon(args []string, logPath string, client *http.Client) (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(filepath.Dir(exe), "leakyfed"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die, the kernel stops the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start leakyfed: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("leakyfed exited during boot (log: %s)", logPath)
		default:
		}
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("leakyfed did not answer /healthz within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts the daemon down gracefully and returns its peak resident
// set in KiB.
func (d *daemon) stop(client *http.Client) (int64, error) {
	defer client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.kill()
		return 0, errors.New("leakyfed did not stop within 15s of SIGTERM")
	}
	if !d.cmd.ProcessState.Success() {
		return 0, fmt.Errorf("leakyfed: %v", d.cmd.ProcessState)
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("leakyfed: no resource usage")
	}
	return ru.Maxrss, nil
}

// kill stops the daemon at once if it is still running and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) do(client *http.Client, rq request) (int, []byte, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, d.base+rq.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads the daemon's unlabelled /metrics samples: counters,
// gauges, and the histograms' _sum and _count series.
func (d *daemon) scrape(client *http.Client) (map[string]float64, error) {
	status, body, err := d.do(client, request{method: http.MethodGet, path: "/metrics"})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
