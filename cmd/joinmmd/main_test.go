package main

// End-to-end tests driving the real binary: graceful shutdown on SIGTERM
// (drain + WAL close + exit 0) and the kill-and-recover acceptance cycle
// (SIGKILL mid-write-load, restart on the same -data-dir, recovered state
// must match a never-killed control engine exactly, with views re-maintained
// incrementally rather than refreshed).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

var (
	buildOnce sync.Once
	buildErr  error
	binPath   string
)

// buildBinary compiles joinmmd once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "joinmmd-bin-*")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "joinmmd")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// proc is one running joinmmd instance under test.
type proc struct {
	cmd      *exec.Cmd
	base     string        // http://127.0.0.1:port
	scanDone chan struct{} // closed when stderr hits EOF (process exited)

	mu   sync.Mutex
	logs bytes.Buffer
}

func (p *proc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logs.String()
}

// startProc launches the binary on a kernel-chosen port and waits until the
// listen log line reveals the address.
func startProc(t *testing.T, args ...string) *proc {
	t.Helper()
	return startProcOnReady(t, nil, args...)
}

// startProcOnReady is startProc with a hook the log scanner runs the moment
// it reads the listen line, before anything else learns the server is up.
func startProcOnReady(t *testing.T, onReady func(*proc), args ...string) *proc {
	t.Helper()
	bin := buildBinary(t)
	p := &proc{
		cmd:      exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...),
		scanDone: make(chan struct{}),
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.logs.WriteString(line + "\n")
			p.mu.Unlock()
			if strings.Contains(line, `msg="joinmmd listening"`) {
				if onReady != nil {
					onReady(p)
				}
				if i := strings.Index(line, "addr="); i >= 0 {
					addr := strings.Fields(line[i+len("addr="):])[0]
					select {
					case addrCh <- addr:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		t.Fatalf("server never announced its address; logs:\n%s", p.logText())
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			_ = p.cmd.Process.Kill()
			_, _ = p.cmd.Process.Wait()
		}
	})
	return p
}

func postJSON(t *testing.T, base, path string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, base, path string, out any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

// waitExit waits for the process and returns its exit code. The stderr
// scanner is drained to EOF before Wait reaps the process, so the final log
// lines are always captured.
func waitExit(t *testing.T, p *proc) int {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		<-p.scanDone
		done <- p.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("wait: %v", err)
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		t.Fatalf("process did not exit; logs:\n%s", p.logText())
	}
	return -1
}

// TestGracefulShutdown boots the binary with a data dir, serves one
// mutation, sends SIGTERM, and requires a drained exit 0 with the WAL
// closed.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	p := startProc(t, "-data-dir", dir, "-fsync", "always")
	if code := postJSON(t, p.base, "/catalog/relations", map[string]any{
		"name": "R", "pairs": [][2]int32{{1, 2}, {2, 3}},
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	var res struct {
		Rows int `json:"rows"`
	}
	if code := postJSON(t, p.base, "/query", map[string]any{"query": "Q(x, z) :- R(x, y), R(y, z)"}, &res); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, p); code != 0 {
		t.Fatalf("exit code %d after SIGTERM; logs:\n%s", code, p.logText())
	}
	logs := p.logText()
	if !strings.Contains(logs, "draining in-flight queries") || !strings.Contains(logs, "shutdown complete") {
		t.Fatalf("graceful shutdown not logged:\n%s", logs)
	}

	// Restart with -load specs for both a recovered relation (must be
	// skipped: the durable state wins, acked mutations are not clobbered)
	// and a new one (must load).
	seed := filepath.Join(t.TempDir(), "seed.rel")
	if err := relation.FromPairs("seed", []relation.Pair{{X: 7, Y: 7}}).Save(seed); err != nil {
		t.Fatal(err)
	}
	p2 := startProc(t, "-data-dir", dir, "-fsync", "always", "-load", "R="+seed, "-load", "T="+seed)
	var cat struct {
		Relations []struct {
			Name   string `json:"name"`
			Tuples int    `json:"tuples"`
		} `json:"relations"`
	}
	if code := getJSON(t, p2.base, "/catalog", &cat); code != http.StatusOK {
		t.Fatalf("catalog: status %d", code)
	}
	got := map[string]int{}
	for _, r := range cat.Relations {
		got[r.Name] = r.Tuples
	}
	if got["R"] != 2 || got["T"] != 1 {
		t.Fatalf("after recovery+load: R=%d tuples (want 2, recovered), T=%d (want 1, seeded): %v", got["R"], got["T"], cat.Relations)
	}
	if !strings.Contains(p2.logText(), "skipping -load") || !strings.Contains(p2.logText(), "relation=R") {
		t.Fatalf("recovered relation not skipped by -load:\n%s", p2.logText())
	}
	_ = p2.cmd.Process.Signal(syscall.SIGTERM)
	if code := waitExit(t, p2); code != 0 {
		t.Fatalf("second shutdown exit %d", code)
	}
}

// TestSignalAtReady sends SIGTERM the instant the ready line appears: a
// server that announces itself must already shut down gracefully.
func TestSignalAtReady(t *testing.T) {
	for i := 0; i < 10; i++ {
		p := startProcOnReady(t, func(p *proc) {
			_ = p.cmd.Process.Signal(syscall.SIGTERM) // a failure shows as a missing exit below
		}, "-data-dir", t.TempDir(), "-fsync", "always")
		if code := waitExit(t, p); code != 0 {
			t.Fatalf("iteration %d: exit code %d after SIGTERM at ready; logs:\n%s", i, code, p.logText())
		}
		if !strings.Contains(p.logText(), "shutdown complete") {
			t.Fatalf("iteration %d: no graceful shutdown:\n%s", i, p.logText())
		}
	}
}

// viewResult fetches one view's full result and freshness.
type viewResult struct {
	Tuples    [][]int64 `json:"tuples"`
	Rows      int       `json:"rows"`
	Freshness struct {
		Mode       string   `json:"mode"`
		Strategies []string `json:"strategies"`
	} `json:"freshness"`
}

func sortTuples(ts [][]int64) {
	sort.Slice(ts, func(i, j int) bool {
		for k := range ts[i] {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}

// TestKillAndRecover is the durability acceptance cycle: a server with
// registered views is SIGKILLed mid-write-load; restarted on the same
// -data-dir it must recover every acked batch by WAL replay through
// incremental view maintenance, matching a never-killed control engine
// exactly.
func TestKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(314))
	r0 := make([][2]int32, 80)
	s0 := make([][2]int32, 80)
	for i := range r0 {
		r0[i] = [2]int32{rng.Int31n(30), rng.Int31n(30)}
		s0[i] = [2]int32{rng.Int31n(30), rng.Int31n(30)}
	}
	type batch struct {
		rel string
		ins [][2]int32
		del [][2]int32
	}
	const totalBatches = 30
	const killAfter = 19 // SIGKILL lands mid-load, after this many acked batches
	batches := make([]batch, totalBatches)
	for i := range batches {
		b := batch{rel: []string{"R", "S"}[i%2]}
		for j := 0; j < 5; j++ {
			b.ins = append(b.ins, [2]int32{rng.Int31n(30), rng.Int31n(30)})
		}
		for j := 0; j < 3; j++ {
			b.del = append(b.del, [2]int32{rng.Int31n(30), rng.Int31n(30)})
		}
		batches[i] = b
	}

	// Phase 1: serve under -fsync always, kill without warning mid-load.
	p1 := startProc(t, "-data-dir", dir, "-fsync", "always")
	for _, spec := range []struct {
		name  string
		pairs [][2]int32
	}{{"R", r0}, {"S", s0}} {
		if code := postJSON(t, p1.base, "/catalog/relations", map[string]any{"name": spec.name, "pairs": spec.pairs}, nil); code != http.StatusOK {
			t.Fatalf("register %s: status %d", spec.name, code)
		}
	}
	views := map[string]string{
		"vp": "VP(x, z) :- R(x, y), S(y, z)",
		"vc": "VC(a, d) :- R(a, b), S(b, c), R(c, d)",
		"vt": "VT(x, y) :- R(x, y), S(y, z), R(z, x)", // cyclic: refresh fallback
	}
	for name, q := range views {
		if code := postJSON(t, p1.base, "/views", map[string]any{"name": name, "query": q}, nil); code != http.StatusOK {
			t.Fatalf("create view %s: status %d", name, code)
		}
	}
	for i := 0; i < killAfter; i++ {
		b := batches[i]
		if code := postJSON(t, p1.base, "/catalog/relations/"+b.rel+"/insert", map[string]any{"pairs": b.ins}, nil); code != http.StatusOK {
			t.Fatalf("batch %d insert: status %d", i, code)
		}
		if code := postJSON(t, p1.base, "/catalog/relations/"+b.rel+"/delete", map[string]any{"pairs": b.del}, nil); code != http.StatusOK {
			t.Fatalf("batch %d delete: status %d", i, code)
		}
	}
	if err := p1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no wal close
		t.Fatal(err)
	}
	_, _ = p1.cmd.Process.Wait()

	// Control: a never-killed in-process engine applying the same acked
	// operations.
	ctrl := core.NewEngine()
	toPairs := func(ps [][2]int32) []relation.Pair {
		out := make([]relation.Pair, len(ps))
		for i, p := range ps {
			out[i] = relation.Pair{X: p[0], Y: p[1]}
		}
		return out
	}
	if _, err := ctrl.Register("R", toPairs(r0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Register("S", toPairs(s0)); err != nil {
		t.Fatal(err)
	}
	for name, q := range views {
		if _, err := ctrl.RegisterView(context.Background(), name, q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < killAfter; i++ {
		b := batches[i]
		if _, err := ctrl.Mutate(b.rel, toPairs(b.ins), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.Mutate(b.rel, nil, toPairs(b.del)); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: restart on the same data dir and compare everything.
	p2 := startProc(t, "-data-dir", dir, "-fsync", "always")
	defer func() {
		_ = p2.cmd.Process.Signal(syscall.SIGTERM)
		waitExit(t, p2)
	}()

	// Recovery is visible in the logs and replayed the WAL tail through the
	// incremental maintenance path (no snapshot was ever taken, so every
	// acked batch replays).
	var health struct {
		Persistence core.PersistenceStats `json:"persistence"`
	}
	if code := getJSON(t, p2.base, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	rec := health.Persistence.Recovery
	if rec.ReplayedMutations == 0 || rec.ReplayedRecords < killAfter {
		t.Fatalf("recovery stats %+v: expected a replayed WAL tail", rec)
	}
	if !strings.Contains(p2.logText(), `msg="recovered data dir"`) || !strings.Contains(p2.logText(), "replayed_mutations=") {
		t.Fatalf("recovery log missing:\n%s", p2.logText())
	}

	// Relations and query results match the control exactly.
	for _, q := range []string{
		"Q(x, z) :- R(x, y), S(y, z)",
		"Q(x, COUNT(z)) :- R(x, y), S(y, z)",
	} {
		var got struct {
			Tuples [][]int64 `json:"tuples"`
		}
		if code := postJSON(t, p2.base, "/query", map[string]any{"query": q}, &got); code != http.StatusOK {
			t.Fatalf("query %q: status %d", q, code)
		}
		want, err := ctrl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sortTuples(got.Tuples)
		wt := append([][]int64(nil), want.Tuples...)
		sortTuples(wt)
		if !reflect.DeepEqual(got.Tuples, wt) {
			t.Fatalf("query %q: recovered %d tuples, control %d", q, len(got.Tuples), len(wt))
		}
	}

	// Every view matches the control, and the acyclic ones were recovered
	// incrementally (mode stays incremental, no refresh in the strategies).
	for name := range views {
		var got viewResult
		if code := getJSON(t, p2.base, "/views/"+name, &got); code != http.StatusOK {
			t.Fatalf("view %s: status %d", name, code)
		}
		cv, ok := ctrl.View(name)
		if !ok {
			t.Fatalf("control lost view %s", name)
		}
		_, wantTuples, _, err := cv.Result(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		wt := append([][]int64(nil), wantTuples...)
		sortTuples(wt)
		sortTuples(got.Tuples)
		if !reflect.DeepEqual(got.Tuples, wt) {
			t.Fatalf("view %s: recovered %d tuples, control %d", name, len(got.Tuples), len(wt))
		}
		if name != "vt" {
			if got.Freshness.Mode != "incremental" {
				t.Fatalf("view %s recovered in mode %q", name, got.Freshness.Mode)
			}
			for _, s := range got.Freshness.Strategies {
				if strings.Contains(s, "refresh") {
					t.Fatalf("view %s was refreshed during recovery: %v", name, got.Freshness.Strategies)
				}
			}
		}
	}

	// The recovered server keeps serving writes durably.
	if code := postJSON(t, p2.base, "/catalog/relations/R/insert", map[string]any{"pairs": [][2]int32{{99, 99}}}, nil); code != http.StatusOK {
		t.Fatalf("post-recovery insert: status %d", code)
	}
}
