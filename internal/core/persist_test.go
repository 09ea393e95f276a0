package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/view"
	"repro/internal/wal"
)

// oracleState tracks relation contents as plain pair sets and evaluates the
// trace's views by nested loops — the independent ground truth recovery is
// compared against.
type oracleState struct {
	rels map[string]map[relation.Pair]bool
}

func newOracle() *oracleState { return &oracleState{rels: map[string]map[relation.Pair]bool{}} }

func (o *oracleState) register(name string, ps []relation.Pair) {
	set := map[relation.Pair]bool{}
	for _, p := range ps {
		set[p] = true
	}
	o.rels[name] = set
}

func (o *oracleState) mutate(name string, ins, del []relation.Pair) {
	set := o.rels[name]
	for _, p := range ins {
		set[p] = true
	}
	for _, p := range del {
		delete(set, p)
	}
}

func (o *oracleState) pairs(name string) []relation.Pair {
	var out []relation.Pair
	for p := range o.rels[name] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

// twoPath is π_{x,z} R(x,y) ⋈ S(y,z) by nested loops.
func (o *oracleState) twoPath(r, s string) [][]int64 {
	seen := map[[2]int64]bool{}
	for rp := range o.rels[r] {
		for sp := range o.rels[s] {
			if rp.Y == sp.X {
				seen[[2]int64{int64(rp.X), int64(sp.Y)}] = true
			}
		}
	}
	return setToTuples(seen)
}

// chain3 is π_{a,d} R(a,b) ⋈ S(b,c) ⋈ R(c,d) by nested loops.
func (o *oracleState) chain3(r, s string) [][]int64 {
	seen := map[[2]int64]bool{}
	for rp := range o.rels[r] {
		for sp := range o.rels[s] {
			if rp.Y != sp.X {
				continue
			}
			for rp2 := range o.rels[r] {
				if sp.Y == rp2.X {
					seen[[2]int64{int64(rp.X), int64(rp2.Y)}] = true
				}
			}
		}
	}
	return setToTuples(seen)
}

// triangle is π_{x,y} R(x,y) ⋈ S(y,z) ⋈ R(z,x) by nested loops.
func (o *oracleState) triangle(r, s string) [][]int64 {
	seen := map[[2]int64]bool{}
	for rp := range o.rels[r] {
		for sp := range o.rels[s] {
			if rp.Y != sp.X {
				continue
			}
			if o.rels[r][relation.Pair{X: sp.Y, Y: rp.X}] {
				seen[[2]int64{int64(rp.X), int64(rp.Y)}] = true
			}
		}
	}
	return setToTuples(seen)
}

func setToTuples(seen map[[2]int64]bool) [][]int64 {
	out := make([][]int64, 0, len(seen))
	for t := range seen {
		out = append(out, []int64{t[0], t[1]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func randPairs(rng *rand.Rand, n int, dom int32) []relation.Pair {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: rng.Int31n(dom), Y: rng.Int31n(dom)}
	}
	return ps
}

func sortedViewTuples(t *testing.T, e *Engine, name string) [][]int64 {
	t.Helper()
	v, ok := e.View(name)
	if !ok {
		t.Fatalf("view %q missing", name)
	}
	_, tuples, _, err := v.Result(context.Background())
	if err != nil {
		t.Fatalf("view %q result: %v", name, err)
	}
	out := make([][]int64, len(tuples))
	copy(out, tuples)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// TestOpenCheckpointRecoverRoundTrip drives a full durability cycle:
// mutations + views, a mid-stream checkpoint, more mutations, close; then a
// second engine recovers and must match — with the incremental view's store
// adopted from the snapshot and re-maintained by WAL replay, not refreshed.
func TestOpenCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	oracle := newOracle()

	e1 := NewEngine()
	if err := e1.Open(dir, PersistOptions{Fsync: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	r0, s0 := randPairs(rng, 120, 40), randPairs(rng, 120, 40)
	if _, err := e1.Register("R", r0); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Register("S", s0); err != nil {
		t.Fatal(err)
	}
	oracle.register("R", r0)
	oracle.register("S", s0)
	if _, err := e1.RegisterView(context.Background(), "vp", "VP(x, z) :- R(x, y), S(y, z)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.RegisterView(context.Background(), "vt", "VT(x, y) :- R(x, y), S(y, z), R(z, x)"); err != nil {
		t.Fatal(err)
	}
	step := func(n int) int {
		effective := 0
		for i := 0; i < n; i++ {
			name := []string{"R", "S"}[i%2]
			ins, del := randPairs(rng, 6, 40), randPairs(rng, 4, 40)
			m, err := e1.Mutate(name, ins, del)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Empty() {
				effective++
			}
			oracle.mutate(name, ins, del)
		}
		return effective
	}
	step(20)
	info, err := e1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Relations != 2 || info.Views != 2 || info.AppliedLSN == 0 {
		t.Fatalf("checkpoint info %+v", info)
	}
	tail := step(17)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine()
	if err := e2.Open(dir, PersistOptions{Fsync: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rec := e2.RecoveryStats()
	if rec.SnapshotLSN != info.AppliedLSN {
		t.Fatalf("recovered snapshot lsn %d, want %d", rec.SnapshotLSN, info.AppliedLSN)
	}
	if rec.RestoredRelations != 2 || rec.RestoredViews != 2 {
		t.Fatalf("recovery stats %+v", rec)
	}
	if rec.ReplayedRecords != tail || rec.ReplayedMutations != tail {
		t.Fatalf("replayed %d records / %d mutations, want %d", rec.ReplayedRecords, rec.ReplayedMutations, tail)
	}
	for _, name := range []string{"R", "S"} {
		got, ok := e2.Catalog().Get(name)
		if !ok {
			t.Fatalf("relation %q missing after recovery", name)
		}
		if !reflect.DeepEqual(got.Pairs(), oracle.pairs(name)) {
			t.Fatalf("relation %q differs from oracle after recovery", name)
		}
	}
	if got, want := sortedViewTuples(t, e2, "vp"), oracle.twoPath("R", "S"); !reflect.DeepEqual(got, want) {
		t.Fatalf("vp after recovery: %d tuples, want %d", len(got), len(want))
	}
	if got, want := sortedViewTuples(t, e2, "vt"), oracle.triangle("R", "S"); !reflect.DeepEqual(got, want) {
		t.Fatalf("vt after recovery: %d tuples, want %d", len(got), len(want))
	}
	// The incremental view must have been re-maintained by delta replay,
	// not rebuilt: its freshness shows delta strategies, never "full
	// refresh".
	vp, _ := e2.View("vp")
	if vp.Mode() != "incremental" {
		t.Fatalf("vp mode %q after recovery", vp.Mode())
	}
	for _, s := range vp.Freshness().Strategies {
		if strings.Contains(s, "refresh") {
			t.Fatalf("vp was refreshed during replay: %v", vp.Freshness().Strategies)
		}
	}
	// And the control: both engines agree on an arbitrary query.
	q := "Q(x, z) :- R(x, y), S(y, z)"
	res2, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.twoPath("R", "S"); len(res2.Tuples) != len(want) {
		t.Fatalf("query after recovery: %d tuples, want %d", len(res2.Tuples), len(want))
	}
}

// frameBoundaries returns the byte offsets after each CRC-framed record in
// one WAL segment (the framing is uvarint length + payload + 4-byte CRC).
func frameBoundaries(data []byte) []int {
	var bounds []int
	off := 0
	for off < len(data) {
		n, used := binary.Uvarint(data[off:])
		if used <= 0 || off+used+int(n)+4 > len(data) {
			break
		}
		off += used + int(n) + 4
		bounds = append(bounds, off)
	}
	return bounds
}

// TestCrashPointDifferential is the recovery acceptance test: it logs a
// 200-mutation trace (plus relation and view registrations), then cuts the
// log at EVERY record boundary — and a few bytes past it, simulating a torn
// append — recovers, and compares every relation and every view against the
// nested-loop oracle at that prefix. Catalog state, incremental stores and
// refresh-mode views must all agree at all 200+ crash points.
func TestCrashPointDifferential(t *testing.T) {
	const mutations = 200
	base := t.TempDir()
	rng := rand.New(rand.NewSource(99))

	// Record the trace: each entry re-applies one WAL record to the oracle.
	type traceStep struct {
		apply func(o *oracleState)
	}
	var trace []traceStep

	e := NewEngine()
	if err := e.Open(base, PersistOptions{Fsync: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	r0, s0 := randPairs(rng, 60, 25), randPairs(rng, 60, 25)
	if _, err := e.Register("R", r0); err != nil {
		t.Fatal(err)
	}
	trace = append(trace, traceStep{func(o *oracleState) { o.register("R", r0) }})
	if _, err := e.Register("S", s0); err != nil {
		t.Fatal(err)
	}
	trace = append(trace, traceStep{func(o *oracleState) { o.register("S", s0) }})
	if _, err := e.RegisterView(context.Background(), "vp", "VP(x, z) :- R(x, y), S(y, z)"); err != nil {
		t.Fatal(err)
	}
	trace = append(trace, traceStep{func(*oracleState) {}})
	if _, err := e.RegisterView(context.Background(), "vc", "VC(a, d) :- R(a, b), S(b, c), R(c, d)"); err != nil {
		t.Fatal(err)
	}
	trace = append(trace, traceStep{func(*oracleState) {}})
	if _, err := e.RegisterView(context.Background(), "vt", "VT(x, y) :- R(x, y), S(y, z), R(z, x)"); err != nil {
		t.Fatal(err)
	}
	trace = append(trace, traceStep{func(*oracleState) {}})

	for i := 0; i < mutations; i++ {
		name := []string{"R", "S"}[i%2]
		ins, del := randPairs(rng, 3, 25), randPairs(rng, 2, 25)
		m, err := e.Mutate(name, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if m.Empty() {
			continue // fully coalesced away: nothing logged, nothing changed
		}
		n, in, dl := name, ins, del
		trace = append(trace, traceStep{func(o *oracleState) { o.mutate(n, in, dl) }})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// One segment holds the whole trace (default rotation is 64 MiB).
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	var segName string
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "wal-") && strings.HasSuffix(ent.Name(), ".seg") {
			if segName != "" {
				t.Fatalf("trace spans several segments: %s and %s", segName, ent.Name())
			}
			segName = ent.Name()
		}
	}
	data, err := os.ReadFile(filepath.Join(base, segName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(data)
	if len(bounds) != len(trace) {
		t.Fatalf("found %d record boundaries, trace has %d records", len(bounds), len(trace))
	}

	recoverAt := func(t *testing.T, cut int, records int) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		oracle := newOracle()
		for _, st := range trace[:records] {
			st.apply(oracle)
		}
		re := NewEngine()
		if err := re.Open(dir, PersistOptions{Fsync: wal.FsyncNever}); err != nil {
			t.Fatalf("cut at %d (%d records): open: %v", cut, records, err)
		}
		defer re.Close()
		for name := range oracle.rels {
			got, ok := re.Catalog().Get(name)
			if !ok {
				t.Fatalf("cut %d: relation %q missing", cut, name)
			}
			if !reflect.DeepEqual(got.Pairs(), oracle.pairs(name)) {
				t.Fatalf("cut %d: relation %q differs from oracle", cut, name)
			}
		}
		if records >= 3 {
			if got, want := sortedViewTuples(t, re, "vp"), oracle.twoPath("R", "S"); !reflect.DeepEqual(got, want) {
				t.Fatalf("cut %d: vp %d tuples, oracle %d", cut, len(got), len(want))
			}
		}
		if records >= 4 {
			if got, want := sortedViewTuples(t, re, "vc"), oracle.chain3("R", "S"); !reflect.DeepEqual(got, want) {
				t.Fatalf("cut %d: vc %d tuples, oracle %d", cut, len(got), len(want))
			}
		}
		if records >= 5 {
			if got, want := sortedViewTuples(t, re, "vt"), oracle.triangle("R", "S"); !reflect.DeepEqual(got, want) {
				t.Fatalf("cut %d: vt %d tuples, oracle %d", cut, len(got), len(want))
			}
		}
	}

	for i, b := range bounds {
		records := i + 1
		recoverAt(t, b, records)
		// A torn tail: a few bytes of the next record must replay to the
		// same prefix (the tail is truncated, not an error).
		if b+3 <= len(data) && records < len(bounds) {
			recoverAt(t, b+3, records)
		}
	}
	// Cut before the first record: an empty-but-present log.
	recoverAt(t, 0, 0)
}

// TestAutoCheckpoint exercises the -checkpoint-every path: enough logged
// records must trigger a background checkpoint that a recovery then loads.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine()
	if err := e.Open(dir, PersistOptions{Fsync: wal.FsyncNever, CheckpointEvery: 5}); err != nil {
		t.Fatal(err)
	}
	r0, err := e.Register("R", randPairs(rand.New(rand.NewSource(1)), 50, 20))
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 12; i++ {
		if _, err := e.Mutate("R", []relation.Pair{{X: 100 + i, Y: i}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.PersistenceStats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := e.PersistenceStats()
	if st.Checkpoints == 0 {
		t.Fatal("no automatic checkpoint after 12 records with CheckpointEvery=5")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine()
	if err := e2.Open(dir, PersistOptions{Fsync: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.RecoveryStats().SnapshotLSN == 0 {
		t.Fatal("recovery ignored the automatic checkpoint")
	}
	r, ok := e2.Catalog().Get("R")
	if !ok || r.Size() != r0.Size()+12 {
		t.Fatalf("recovered R size %d, want %d", r.Size(), r0.Size()+12)
	}
}

// TestOpenRejectsNonEmptyEngine pins the Open contract.
func TestOpenRejectsNonEmptyEngine(t *testing.T) {
	e := NewEngine()
	if _, err := e.Register("R", []relation.Pair{{X: 1, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Open(t.TempDir(), PersistOptions{}); err == nil {
		t.Fatal("Open succeeded on a non-empty engine")
	}
}

// TestCloseIdempotent pins double-close and close-without-open.
func TestCloseIdempotent(t *testing.T) {
	e := NewEngine()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Open(t.TempDir(), PersistOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistenceSurvivesDropAndReregister replays drop + re-register.
func TestPersistenceSurvivesDropAndReregister(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine()
	if err := e.Open(dir, PersistOptions{Fsync: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("R", []relation.Pair{{X: 1, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Catalog().Drop("R"); !ok || err != nil {
		t.Fatalf("drop failed: ok=%v err=%v", ok, err)
	}
	if _, err := e.Register("R", []relation.Pair{{X: 7, Y: 8}, {X: 9, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterView(context.Background(), "v", "V(x, z) :- R(x, y), R(y, z)"); err != nil {
		t.Fatal(err)
	}
	if ok, err := e.DropView("v"); !ok || err != nil {
		t.Fatalf("drop view failed: ok=%v err=%v", ok, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine()
	if err := e2.Open(dir, PersistOptions{Fsync: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	r, ok := e2.Catalog().Get("R")
	if !ok || r.Size() != 2 {
		t.Fatalf("recovered R = %v (ok=%v)", r, ok)
	}
	if _, ok := e2.View("v"); ok {
		t.Fatal("dropped view resurrected by recovery")
	}
	if got := fmt.Sprint(e2.Views()); got != "[]" {
		t.Fatalf("views after recovery: %s", got)
	}
}

// TestReplayDuplicateViewRegistration covers the one Register error replay
// may swallow: a checkpoint taken between a view's registration and its log
// record leaves the view in the snapshot and in the tail, and the restored
// store wins. Any other registration failure — here one whose message merely
// contains the words, through the view's name — still fails Open.
func TestReplayDuplicateViewRegistration(t *testing.T) {
	dir := t.TempDir()
	const text = "V(x, z) :- R(x, y), R(y, z)"
	e := NewEngine()
	if err := e.Open(dir, PersistOptions{Fsync: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("R", []relation.Pair{{X: 1, Y: 2}, {X: 2, Y: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterView(context.Background(), "v", text); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	appendTail := func(rec *wal.Record) {
		t.Helper()
		w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	appendTail(&wal.Record{Kind: wal.KindRegisterView, Name: "v", Query: text})
	e2 := NewEngine()
	if err := e2.Open(dir, PersistOptions{Fsync: wal.FsyncNever}); err != nil {
		t.Fatalf("snapshot and tail both carry the view: %v", err)
	}
	if rec := e2.RecoveryStats(); rec.RestoredViews != 1 || rec.ReplayedRecords != 1 {
		t.Fatalf("recovery stats %+v", rec)
	}
	v, ok := e2.View("v")
	if !ok {
		t.Fatal("view lost")
	}
	if _, rows, _, err := v.Result(context.Background()); err != nil || len(rows) != 1 {
		t.Fatalf("restored view serves %v, %v", rows, err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	appendTail(&wal.Record{Kind: wal.KindRegisterView, Name: "already registered", Query: "W(x) :- Missing(x, y)"})
	e3 := NewEngine()
	err := e3.Open(dir, PersistOptions{Fsync: wal.FsyncNever})
	if err == nil {
		e3.Close()
		t.Fatal("an unknown-relation registration during replay must fail Open")
	}
	if errors.Is(err, view.ErrExists) || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("Open failed with %v, want the unknown-relation error", err)
	}
}
