package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wal"
)

// The planner's machine constants (ns) and kernel cost model, pinned so plan
// choices do not move with the probe's noise. They are this sandbox's own
// probe results (go run ./cmd/mmcalib, three runs), rounded.
var (
	pinnedConstants = optimizer.Constants{Ts: 0.75, Tm: 1.2, TI: 1.55}
	pinnedModel     = matrix.CostModel{
		WordOpsPerSec: 2.7e9, WordOpsPerSecStream: 2.6e9, StreamFootprint: 1 << 20,
		CellOpsPerSec: 4.5e8, ParallelEff: 0.85,
	}
)

// fsyncPolicy is the daemon's default and the one every data dir here uses.
const fsyncPolicy = wal.FsyncAlways

// node is one engine behind the real HTTP handler on a loopback listener,
// started the way cmd/joinmmd starts it.
type node struct {
	eng  *core.Engine
	srv  *server.Server
	http *http.Server
	base string
	done chan error
}

// boot starts a fresh engine and server. With dir set the engine recovers
// from and logs to that data dir.
func boot(dir string, checkpointEvery int) (*node, error) {
	optimizer.PinConstants(pinnedConstants.Ts, pinnedConstants.Tm, pinnedConstants.TI)
	eng := core.NewEngine(core.WithOptimizerConstants(pinnedConstants))
	model := pinnedModel
	eng.Optimizer().Model = &model
	if dir != "" {
		err := eng.Open(dir, core.PersistOptions{Fsync: fsyncPolicy, CheckpointEvery: checkpointEvery})
		if err != nil {
			return nil, err
		}
	}
	srv := server.New(server.Config{Engine: eng, Logger: slog.New(slog.DiscardHandler)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = eng.Close() // the listen error is the one to report
		return nil, err
	}
	n := &node{
		eng: eng, srv: srv, http: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1),
	}
	go func() { n.done <- n.http.Serve(ln) }()
	return n, nil
}

// stop shuts the node down as joinmmd does: listener, in-flight queries,
// then the WAL.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.http.Shutdown(ctx)
	if serveErr := <-n.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return errors.Join(err, n.srv.Drain(ctx), n.eng.Close())
}

// client is one closed-loop caller: a single keep-alive connection and a
// response buffer reused across requests.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response into the client's
// buffer; the returned slice is valid until the next call.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// post is do for the set-up calls, where any status but 200 is an error.
func (c *client) post(url string, body []byte) ([]byte, error) {
	status, resp, err := c.do(http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, status, resp)
	}
	return resp, nil
}

// intField reads the integer value of a top-level "key": in a JSON response
// without decoding the rest — the tuples of a dense answer are megabytes,
// and decoding them on every timed operation would make the harness the
// bottleneck. Full decoding happens once per distinct request, in verify.
func intField(resp []byte, key string) (int, bool) {
	i := bytes.LastIndex(resp, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	rest := resp[i+len(key)+3:]
	end := 0
	for end < len(rest) && (rest[end] == '-' || rest[end] >= '0' && rest[end] <= '9') {
		end++
	}
	n, err := strconv.Atoi(string(rest[:end]))
	return n, err == nil
}

// pairsJSON marshals {"name": ..., "pairs": [[x,y],...]} by hand; name may
// be empty for the mutation routes.
func pairsJSON(name string, ps []relation.Pair) []byte {
	b := make([]byte, 0, 16*len(ps)+32)
	b = append(b, '{')
	if name != "" {
		b = append(b, `"name":"`...)
		b = append(b, name...)
		b = append(b, `",`...)
	}
	b = append(b, `"pairs":[`...)
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p.X), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.Y), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

func queryJSON(text string) []byte {
	b, _ := json.Marshal(map[string]string{"query": text}) // a string map cannot fail to marshal
	return b
}

// load is one workload instance: seeded inputs and oracle answers are made
// when it is constructed (harness time); everything below runs against a
// fresh engine.
type load interface {
	// clients is how many closed-loop callers drive the workload.
	clients() int
	// warmOps is how many operations per client set-up runs as warm-up; the
	// timed window continues each client's schedule from there.
	warmOps() int
	// setup boots a fresh engine and server, hands over the inputs and warms
	// up; when it returns the first timed operation may start.
	setup() error
	// begin marks the start of a measured window: per-window records reset.
	begin()
	// op runs the client's i-th operation and returns its latency — first
	// byte sent to last byte read — and whether every response passed its
	// check. Checks run after the clock stops.
	op(c *client, ci, i int) (time.Duration, bool)
	// planDigest hashes the plan strategies of the workload's requests.
	planDigest() (string, error)
	// verify compares the program's outputs with the oracle's once the
	// window has closed.
	verify() error
	// trace replays the workload's requests for about budget, recording a
	// span around each call into a layer, and returns the layer metrics
	// derived from them and from the untraced sample s taken just before.
	// Among them is trace.overhead: the traced HTTP round trips of one
	// operation against the untraced ones, less one.
	trace(tr *tracer, s sample, budget time.Duration) (map[string]float64, error)
	// stop tears the engine down and removes its files.
	stop() error
	// diagnostics adds workload-specific figures to the report.
	diagnostics(d map[string]any)
}

// sample is the outcome of one measured window.
type sample struct {
	latencies []time.Duration // successful operations only
	ends      []time.Duration // when each of them completed, since the window opened
	attempted int
	failed    int
	wall      time.Duration
	busy      time.Duration // Σ per-client (wall − harness time between operations)
	harness   time.Duration
	clients   int
	mem       memDelta
}

type memDelta struct {
	allocBytes, mallocs uint64
	gcPause             time.Duration
}

// drive runs the closed loop for window, continuing each client's schedule
// where warm-up left it.
func drive(l load, window time.Duration) sample {
	n, first := l.clients(), l.warmOps()
	l.begin()
	type part struct {
		lat, ends       []time.Duration
		attempted, fail int
		busy, harness   time.Duration
	}
	parts := make([]part, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			p := &parts[ci]
			begin := time.Now()
			for i := first; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				lat, ok := l.op(c, ci, i)
				p.harness += time.Since(t0) - lat
				p.attempted++
				if ok {
					p.lat = append(p.lat, lat)
					p.ends = append(p.ends, time.Since(start))
				} else {
					p.fail++
				}
			}
			p.busy = time.Since(begin) - p.harness
		}()
	}
	wg.Wait()
	s := sample{wall: time.Since(start), clients: n}
	runtime.ReadMemStats(&after)
	s.mem = memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	for _, p := range parts {
		s.latencies = append(s.latencies, p.lat...)
		s.ends = append(s.ends, p.ends...)
		s.attempted += p.attempted
		s.failed += p.fail
		s.busy += p.busy
		s.harness += p.harness
	}
	return s
}

// throughput is verified operations per second of time the clients spent
// inside operations: each client's rate, summed.
func (s sample) throughput() float64 {
	return float64(len(s.latencies)) / (s.busy.Seconds() / float64(s.clients))
}

// slices cuts the window into windowSlices equal parts and returns each
// part's throughput, p50 and p95 (ms) over the operations that completed in
// it. The reported metrics are the medians of these: whatever else the
// sandbox runs slows a run down for seconds at a time, and a median over
// parts leaves out the parts it hit, as long as it hit fewer than half.
func (s sample) slices(window time.Duration) (thr, p50, p95 []float64) {
	parts := make([][]time.Duration, windowSlices)
	for i, end := range s.ends {
		k := min(int(windowSlices*end/window), windowSlices-1)
		parts[k] = append(parts[k], s.latencies[i])
	}
	for _, ds := range parts {
		if len(ds) == 0 {
			continue
		}
		var busy time.Duration
		for _, d := range ds {
			busy += d
		}
		thr = append(thr, float64(s.clients)*float64(len(ds))/busy.Seconds())
		p50, p95 = append(p50, ms(median(ds))), append(p95, ms(quantile(ds, 0.95)))
	}
	return thr, p50, p95
}

// harnessShare is the part of the window the clients spent outside
// operations, checking answers and restoring directories.
func (s sample) harnessShare() float64 {
	return s.harness.Seconds() / (s.wall.Seconds() * float64(s.clients))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of ds by linear interpolation.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[hi]-s[lo]))
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// scratchDir makes a fresh directory under root for a workload's data dirs.
func scratchDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}

// copyDir copies the regular files of src into a fresh dst. Data dirs are
// flat: WAL segments, snapshot images and a manifest.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
