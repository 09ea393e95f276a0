package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

var (
	viewRels  = []string{"R", "S", "T"}
	viewNames = []string{"vp", "vs", "vc"}
	viewTexts = map[string]string{
		"vp": "V(x, z) :- R(x, y), S(y, z)",
		"vs": "V(a, b, c) :- R(a, y), S(b, y), T(c, y)",
		"vc": "V(a, d) :- R(a, b), S(b, c), T(c, d)",
	}
	// reads[r] lists the views relation r feeds; a write to r is followed by
	// a read of one of them.
	viewReads = map[string][]string{"R": viewNames, "S": viewNames, "T": {"vs", "vc"}}
)

// mutation is one step of the write schedule.
type mutation struct {
	rel    string
	del    bool
	body   []byte // the 32-tuple batch, pre-marshalled
	tuples []relation.Pair
}

// schedule is the seeded, stationary mutation stream shared by view_writes
// and restart_replay. Step k inserts batch k into relation k mod 3 while
// k < outstanding; from then on steps alternate between deleting the oldest
// live batch and inserting the next one, so relation sizes stay within one
// batch of where warm-up left them. Batches cycle through a pool of tuples
// the base relation does not hold.
type schedule struct {
	base    map[string][]relation.Pair
	batches map[string][][]relation.Pair // relation → its batches, reused round-robin
	sz      sizes
}

func newSchedule(seed int64, sz sizes) *schedule {
	s := &schedule{base: map[string][]relation.Pair{}, batches: map[string][][]relation.Pair{}, sz: sz}
	for i, name := range viewRels {
		s.base[name] = communityPairs(sz.communityTuples, seed+int64(i))
		absent := absentPairs(rand.New(rand.NewSource(seed+int64(i))), s.base[name])
		for len(absent) >= sz.batch {
			s.batches[name] = append(s.batches[name], absent[:sz.batch])
			absent = absent[sz.batch:]
		}
	}
	// Equal pools make the whole schedule periodic: after period() steps every
	// relation holds exactly the tuples it held before.
	pool := len(s.batches[viewRels[0]])
	for _, name := range viewRels {
		pool = min(pool, len(s.batches[name]))
	}
	if pool < 2 {
		panic("bench: too few absent tuples for the write schedule")
	}
	for _, name := range viewRels {
		s.batches[name] = s.batches[name][:pool]
	}
	return s
}

// period is the number of steps after which the schedule repeats itself.
func (s *schedule) period() int { return 2 * len(viewRels) * len(s.batches[viewRels[0]]) }

// step returns the k-th mutation. Batch b goes to relation b mod 3; inserts
// run `outstanding` batches ahead of deletes.
func (s *schedule) step(k int) mutation {
	w := s.sz.outstanding
	b, del := k, false
	if k >= w {
		j := k - w
		b, del = j/2, j%2 == 0
		if !del {
			b += w
		}
	}
	rel := viewRels[b%len(viewRels)]
	pool := s.batches[rel]
	tuples := pool[(b/len(viewRels))%len(pool)]
	return mutation{rel: rel, del: del, tuples: tuples, body: pairsJSON("", tuples)}
}

// register hands the base relations and the three views to a node.
func (s *schedule) register(c *client, n *node) error {
	for _, name := range viewRels {
		if _, err := c.post(n.base+"/catalog/relations", pairsJSON(name, s.base[name])); err != nil {
			return err
		}
	}
	for _, name := range viewNames {
		body := fmt.Appendf(nil, `{"name":%q,"query":%q}`, name, viewTexts[name])
		if _, err := c.post(n.base+"/views", body); err != nil {
			return err
		}
	}
	return nil
}

// verb is the route's last segment.
func (m mutation) verb() string {
	if m.del {
		return "delete"
	}
	return "insert"
}

// delta returns the batch as Engine.Mutate's two arguments.
func (m mutation) delta() (insert, del []relation.Pair) {
	if m.del {
		return nil, m.tuples
	}
	return m.tuples, nil
}

// apply sends mutation m and reports whether the engine applied exactly the
// batch.
func (m mutation) apply(c *client, n *node, batch int) (time.Duration, bool) {
	field := "added"
	if m.del {
		field = "removed"
	}
	t0 := time.Now()
	status, resp, err := c.do(http.MethodPost, n.base+"/catalog/relations/"+m.rel+"/"+m.verb(), m.body)
	d := time.Since(t0)
	got, found := intField(resp, field)
	return d, err == nil && status == http.StatusOK && found && got == batch
}

// readView fetches the first page of a view and reports whether it is a
// well-formed, non-empty page.
func readView(c *client, n *node, name string) (time.Duration, bool) {
	t0 := time.Now()
	status, resp, err := c.do(http.MethodGet, n.base+"/views/"+name+"?limit=1000", nil)
	d := time.Since(t0)
	rows, found := intField(resp, "rows")
	return d, err == nil && status == http.StatusOK && found && rows > 0
}

// stateSizes returns relation sizes and view cardinalities, in a fixed order.
func stateSizes(eng *core.Engine) []int {
	var out []int
	for _, name := range viewRels {
		r, _ := eng.Catalog().Get(name)
		out = append(out, r.Size())
	}
	for _, name := range viewNames {
		v, _ := eng.View(name)
		out = append(out, v.Rows())
	}
	return out
}

// writeLoad is view_writes: one client mutating R, S, T under three live
// views on a durable engine, reading a maintained view after every write.
type writeLoad struct {
	sched *schedule
	root  string // scratch root for data dirs
	dir   string
	n     *node

	// Recorded from begin on, one entry per operation.
	before     []int // stateSizes when the window opened
	after      []int // stateSizes a whole number of schedule periods later
	walBefore  walCounters
	ckptBefore uint64
	writeLat   []time.Duration
	readLat    []time.Duration
	readView   []string // the view each operation read
	ckptAfter  []uint64 // completed checkpoints once the operation returned
}

type walCounters struct {
	bytes int64
	syncs uint64
	recs  uint64
}

func counters(eng *core.Engine) (walCounters, uint64) {
	ps := eng.PersistenceStats()
	return walCounters{bytes: ps.WAL.AppendedBytes, syncs: ps.WAL.Syncs, recs: ps.WAL.Appended}, ps.Checkpoints
}

func (w *writeLoad) clients() int { return 1 }

// warmOps fills the outstanding-insert window and then cycles four times
// over the relations and views.
func (w *writeLoad) warmOps() int { return w.sched.sz.outstanding + 12 }

func (w *writeLoad) setup() error {
	dir, err := scratchDir(w.root, "view_writes")
	if err != nil {
		return err
	}
	w.dir = dir
	n, err := boot(dir, w.sched.sz.checkpointEvery)
	if err != nil {
		return err
	}
	w.n = n
	c := newClient()
	defer c.close()
	if err := w.sched.register(c, n); err != nil {
		return err
	}
	for i := 0; i < w.warmOps(); i++ {
		if _, ok := w.op(c, 0, i); !ok {
			return fmt.Errorf("warm-up operation %d failed", i)
		}
	}
	return nil
}

func (w *writeLoad) begin() {
	w.before = stateSizes(w.n.eng)
	w.walBefore, w.ckptBefore = counters(w.n.eng)
	w.after = w.before
	w.writeLat, w.readLat, w.readView, w.ckptAfter = nil, nil, nil, nil
}

func (w *writeLoad) op(c *client, _, i int) (time.Duration, bool) {
	m := w.sched.step(i)
	wd, wok := m.apply(c, w.n, w.sched.sz.batch)
	view := viewReads[m.rel][i%len(viewReads[m.rel])]
	rd, rok := readView(c, w.n, view)
	_, ckpts := counters(w.n.eng)
	w.writeLat, w.readLat = append(w.writeLat, wd), append(w.readLat, rd)
	w.readView, w.ckptAfter = append(w.readView, view), append(w.ckptAfter, ckpts)
	if len(w.writeLat)%w.sched.period() == 0 {
		w.after = stateSizes(w.n.eng)
	}
	return wd + rd, wok && rok
}

// checkpointStall returns how many checkpoints completed in the window and
// the slowest operation that overlapped one: the operation during which a
// checkpoint completed, or the one before it, where the checkpoint began.
func (w *writeLoad) checkpointStall() (uint64, time.Duration) {
	var worst time.Duration
	prev := w.ckptBefore
	for k, after := range w.ckptAfter {
		if after != prev {
			worst = max(worst, w.writeLat[k]+w.readLat[k])
			if k > 0 {
				worst = max(worst, w.writeLat[k-1]+w.readLat[k-1])
			}
		}
		prev = after
	}
	return prev - w.ckptBefore, worst
}

func (w *writeLoad) planDigest() (string, error) {
	h := fnv.New64a()
	for _, name := range viewNames {
		v, ok := w.n.eng.View(name)
		if !ok {
			return "", fmt.Errorf("view %s is gone", name)
		}
		fmt.Fprintf(h, "%s:%s:%v\n", name, v.Mode(), v.MaintenancePlan().Strategies())
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// drift is the largest relative change of any relation size or view
// cardinality between the start of the window and the last point a whole
// number of schedule periods later. Inside a period sizes move by a batch
// and small views by a few percent; that is the workload, not drift.
func (w *writeLoad) drift() float64 {
	var worst float64
	for i, after := range w.after {
		worst = max(worst, math.Abs(float64(after-w.before[i]))/float64(w.before[i]))
	}
	return worst
}

// verify checks every maintained view against a from-scratch evaluation of
// its text on the final relations.
func (w *writeLoad) verify() error {
	for _, name := range viewNames {
		v, _ := w.n.eng.View(name)
		_, got, _, err := v.Result(context.Background())
		if err != nil {
			return err
		}
		res, err := w.n.eng.Query(viewTexts[name])
		if err != nil {
			return err
		}
		want := res.Tuples
		sortTuples(want)
		if !sameTuples(got, want) {
			return fmt.Errorf("view %s holds %d rows, recomputing its query gives %d, and they differ",
				name, len(got), len(want))
		}
	}
	return nil
}

func (w *writeLoad) stop() error {
	if w.n == nil {
		return nil
	}
	err := w.n.stop()
	w.n = nil
	return errors.Join(err, os.RemoveAll(w.dir))
}

func (w *writeLoad) diagnostics(d map[string]any) {
	ckpts, stall := w.checkpointStall()
	d["state_drift"] = w.drift()
	d["checkpoints"] = ckpts
	d["checkpoint_stall_ms_max"] = ms(stall)
	class := w.readP50()
	class["write"] = ms(median(w.writeLat))
	d["request_p50_ms"] = class
}

// readP50 is the median read latency of each view: vs is a star two orders
// of magnitude larger than the other two, so one median over all reads
// would describe none of them.
func (w *writeLoad) readP50() map[string]float64 {
	by := map[string][]time.Duration{}
	for k, view := range w.readView {
		by[view] = append(by[view], w.readLat[k])
	}
	out := map[string]float64{}
	for view, ds := range by {
		out["read_"+view] = ms(median(ds))
	}
	return out
}

// restartLoad is restart_replay: every operation restores a pristine data
// dir (one checkpoint plus a WAL tail), then times a cold engine from
// NewEngine to its first answered view read.
type restartLoad struct {
	sched    *schedule
	root     string
	pristine string
	work     string
	page     []byte    // tuples of the first vs page before shutdown
	digest   [2]uint64 // relation and view digests before shutdown
	openLat  []time.Duration
}

func (r *restartLoad) clients() int { return 1 }
func (r *restartLoad) warmOps() int { return 3 }
func (r *restartLoad) begin()       { r.openLat = nil }

// stateDigest hashes every relation's tuples and every view's rows.
func stateDigest(eng *core.Engine) ([2]uint64, error) {
	var out [2]uint64
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range viewRels {
		rel, ok := eng.Catalog().Get(name)
		if !ok {
			return out, fmt.Errorf("relation %s is gone", name)
		}
		for _, p := range rel.Pairs() {
			binary.LittleEndian.PutUint32(buf[:4], uint32(p.X))
			binary.LittleEndian.PutUint32(buf[4:], uint32(p.Y))
			h.Write(buf[:])
		}
	}
	out[0] = h.Sum64()
	h.Reset()
	for _, name := range viewNames {
		v, ok := eng.View(name)
		if !ok {
			return out, fmt.Errorf("view %s is gone", name)
		}
		_, tuples, _, err := v.Result(context.Background())
		if err != nil {
			return out, err
		}
		for _, t := range tuples {
			for _, x := range t {
				binary.LittleEndian.PutUint64(buf[:], uint64(x))
				h.Write(buf[:])
			}
		}
	}
	out[1] = h.Sum64()
	return out, nil
}

// tuplesOf cuts the "tuples" array out of a view page, the part of the
// response that does not change between two servings of the same state.
func tuplesOf(resp []byte) []byte {
	i := bytes.Index(resp, []byte(`"tuples":`))
	j := bytes.Index(resp, []byte(`,"rows":`))
	if i < 0 || j < i {
		return nil
	}
	return resp[i:j]
}

func (r *restartLoad) setup() error {
	base, err := scratchDir(r.root, "restart_replay")
	if err != nil {
		return err
	}
	r.pristine, r.work = filepath.Join(base, "pristine"), filepath.Join(base, "work")
	if err := os.MkdirAll(r.pristine, 0o755); err != nil {
		return err
	}
	n, err := boot(r.pristine, 0) // checkpoint by hand, so the tail length is exact
	if err != nil {
		return err
	}
	c := newClient()
	defer c.close()
	err = r.sched.register(c, n)
	mutate := func(from, to int) {
		for k := from; k < to && err == nil; k++ {
			if _, ok := r.sched.step(k).apply(c, n, r.sched.sz.batch); !ok {
				err = fmt.Errorf("set-up mutation %d failed", k)
			}
		}
	}
	warm := r.sched.sz.outstanding + 12
	mutate(0, warm)
	if err == nil {
		_, err = c.post(n.base+"/admin/checkpoint", nil)
	}
	mutate(warm, warm+r.sched.sz.walTail)
	if err == nil {
		var resp []byte
		if _, resp, err = c.do(http.MethodGet, n.base+"/views/vs?limit=1000", nil); err == nil {
			r.page = append([]byte(nil), tuplesOf(resp)...)
			r.digest, err = stateDigest(n.eng)
		}
	}
	if err = errors.Join(err, n.stop()); err != nil {
		return err
	}
	for i := 0; i < r.warmOps(); i++ {
		if _, ok := r.op(c, 0, i); !ok {
			return fmt.Errorf("warm-up restart %d failed", i)
		}
	}
	return nil
}

// op restores the pristine dir (untimed), then times a cold start up to the
// first answered view read; the recovered state is checked after the clock
// stops.
func (r *restartLoad) op(c *client, _, _ int) (time.Duration, bool) {
	if err := copyDir(r.pristine, r.work); err != nil {
		return 0, false
	}
	// A restarted daemon is a new process with an empty heap; the previous
	// operation's engine must not be this one's garbage to collect.
	runtime.GC()
	t0 := time.Now()
	n, err := boot(r.work, 0)
	if err != nil {
		return 0, false
	}
	status, resp, err := c.do(http.MethodGet, n.base+"/views/vs?limit=1000", nil)
	d := time.Since(t0)
	ok := err == nil && status == http.StatusOK && string(tuplesOf(resp)) == string(r.page)
	if ok {
		got, derr := stateDigest(n.eng)
		ok = derr == nil && got == r.digest
	}
	if n.stop() != nil {
		ok = false
	}
	r.openLat = append(r.openLat, d)
	return d, ok
}

func (r *restartLoad) planDigest() (string, error) {
	return fmt.Sprintf("%016x", r.digest[0]^r.digest[1]), nil
}

// verify has nothing left to do: every operation compared the recovered
// relations, views and served page with the state before shutdown.
func (r *restartLoad) verify() error { return nil }

func (r *restartLoad) stop() error {
	if r.pristine == "" {
		return nil
	}
	err := os.RemoveAll(filepath.Dir(r.pristine))
	r.pristine = ""
	return err
}

func (r *restartLoad) diagnostics(d map[string]any) {
	d["wal_tail_records"] = r.sched.sz.walTail
	d["request_p50_ms"] = map[string]float64{"open_to_first_answer": ms(median(r.openLat))}
}
