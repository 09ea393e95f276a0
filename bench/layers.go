package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/joinproject"
	"repro/internal/matrix"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// This file holds the traced pass of each workload: the calls into each
// layer's public API, replayed from outside and timed one at a time. The
// span tree mirrors who calls whom inside the program:
//
//	http.query ⊃ core.QueryContext ⊃ catalog.PrepareContext ⊃ query.Parse, query.CompileContext
//	                               ⊃ query.Execute ⊃ joinproject.fold ⊃ matrix.MulBitCount
//	           ⊃ json.Encode
//	http.mutate ⊃ core.Mutate ⊃ relation.ApplyDelta, wal.Append, view.maintain
//	http.view_read ⊃ view.Result
//	restart.first_answer ⊃ core.Open ⊃ snapshot.Load, wal.Replay

// queryResponse has the fields and order of the server's /query body, so
// encoding it costs what the server's encode costs.
type queryResponse struct {
	Columns   []string  `json:"columns"`
	Tuples    [][]int64 `json:"tuples"`
	Rows      int       `json:"rows"`
	Plan      string    `json:"plan"`
	PlanCache bool      `json:"plan_cached"`
	ElapsedMs float64   `json:"elapsed_ms"`
}

// hintRounds is how often each hinted variant of a request runs; the median
// skips the first, compiling, run.
const hintRounds = 5

func (q *queryLoad) trace(tr *tracer, s sample, budget time.Duration) (map[string]float64, error) {
	ctx := context.Background()
	eng, cat := q.n.eng, q.n.eng.Catalog()
	hits, misses, _ := cat.CacheStats()
	hits, misses = hits-q.hits0, misses-q.misses0
	untraced := 0.0
	for si := range q.shapes {
		untraced += q.classP50(si)
	}

	c := newClient()
	defer c.close()
	// Replays that go through the plan cache each take a text the timed loop
	// has not sent, from the far end of the pool, so a workload that misses
	// the cache keeps missing it here.
	span, taken := q.reach(), 0
	take := func() int32 {
		taken++
		return q.pool[(span-taken%span)%span]
	}
	execOpts := query.ExecOptions{Optimizer: eng.Optimizer()}
	respBytes := make([]float64, len(q.shapes))
	rows := make([]float64, len(q.shapes))
	wordOps := make([]float64, len(q.shapes))
	var failed firstError
	note := failed.note
	hintDeadline := time.Now().Add(budget)
	deadline := time.Now().Add(budget / 2)
	for round := 0; moreRounds(round, deadline); round++ {
		for si, sh := range q.shapes {
			op := tr.newOp()
			root := tr.time(op, -1, sh.name, "http.query", func() {
				status, resp, err := c.do(http.MethodPost, q.n.base+"/query", queryJSON(sh.text(take(), "")))
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("traced /query: status %d", status)
				}
				note(err)
				respBytes[si] = float64(len(resp))
			})
			call := tr.time(op, root, sh.name, "core.QueryContext", func() {
				_, err := eng.QueryContext(ctx, sh.text(take(), ""))
				note(err)
			})
			text := sh.text(take(), "")
			var prepared *query.Prepared
			var hit bool
			prep := tr.time(op, call, sh.name, "catalog.PrepareContext", func() {
				var err error
				prepared, hit, err = cat.PrepareContext(ctx, text)
				note(err)
			})
			var ast *query.Query
			tr.time(op, prep, sh.name, "query.Parse", func() {
				var err error
				ast, err = query.Parse(text)
				note(err)
			})
			if failed.err != nil {
				return nil, failed.err
			}
			if !hit {
				rels, _, _ := cat.Snapshot()
				tr.time(op, prep, sh.name, "query.CompileContext", func() {
					_, err := query.CompileContext(ctx, ast, query.MapResolver(rels))
					note(err)
				})
			}
			var res *query.Result
			exec := tr.time(op, call, sh.name, "query.Execute", func() {
				var err error
				res, err = prepared.Execute(ctx, execOpts)
				note(err)
			})
			if failed.err != nil {
				return nil, failed.err
			}
			rows[si] = float64(len(res.Tuples))
			if q.kernel != nil {
				var muls []mulInstance
				fold := tr.time(op, exec, sh.name, "joinproject.fold", func() {
					muls = q.kernel(sh.name, q.relation, foldNodes(res.Plan))
				})
				// One span per request: a chain's two products add up.
				var mul time.Duration
				wordOps[si] = 0
				for _, m := range muls {
					if a, bT, ops := m.matrices(); ops > 0 {
						wordOps[si] += ops
						t0 := time.Now()
						matrix.MulBitCount(a, bT, 0)
						mul += time.Since(t0)
					}
				}
				tr.add(op, fold, sh.name, "matrix.MulBitCount", mul)
			}
			tr.time(op, root, sh.name, "json.Encode", func() {
				note(json.NewEncoder(io.Discard).Encode(queryResponse{
					Columns: res.Columns, Tuples: res.Tuples, Rows: len(res.Tuples),
					Plan: res.Plan.String(), PlanCache: hit,
				}))
			})
		}
	}

	// The same requests under each planner and parallelism hint, through the
	// engine directly.
	hints := map[string]string{
		"hint:none": "", "hint:mm": "strategy=mm", "hint:wcoj": "strategy=wcoj",
		"hint:serial": "workers=1", "hint:parallel": fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)),
	}
	hintConst := func() int32 { return q.pool[0] } // hinted texts must fit the cache beside the plain ones
	if q.overflows() {
		hintConst = take
	}
	for round := 0; round < hintRounds && moreRounds(round, hintDeadline); round++ {
		for _, sh := range q.shapes {
			for _, label := range sortedKeys(hints) {
				tr.time(tr.newOp(), -1, sh.name, label, func() {
					_, err := eng.QueryContext(ctx, sh.text(hintConst(), hints[label]))
					note(err)
				})
			}
		}
	}
	if failed.err != nil {
		return nil, failed.err
	}

	p := tr.profile()
	var best, rowSum, opsSum, bytesSum float64
	for si, sh := range q.shapes {
		best += min(tr.median(sh.name, "hint:mm"), tr.median(sh.name, "hint:wcoj"))
		rowSum, opsSum, bytesSum = rowSum+rows[si], opsSum+wordOps[si], bytesSum+respBytes[si]
	}
	out := map[string]float64{
		"server.self_ms":           p.self("http.query"),
		"server.encode_ms":         p.ms["json.Encode"],
		"server.resp_bytes_per_op": bytesSum,
		"core.self_ms":             p.self("core.QueryContext"),
		"catalog.prepare_ms":       p.ms["catalog.PrepareContext"],
		"catalog.plan_hit_ratio":   float64(hits) / float64(hits+misses),
		"query.parse_ms":           p.ms["query.Parse"],
		"query.compile_ms":         p.ms["query.CompileContext"],
		"query.execute_ms":         p.ms["query.Execute"],
		"query.row_ns":             max(p.ms["query.Execute"]-p.ms["joinproject.fold"], 0) * 1e6 / rowSum,
		"joinproject.fold_ms":      p.ms["joinproject.fold"],
		"matrix.mul_ms":            p.ms["matrix.MulBitCount"],
		"matrix.word_ops":          opsSum,
		"optimizer.regret":         p.ms["hint:none"] / best,
		"par.speedup":              p.ms["hint:serial"] / p.ms["hint:parallel"],
		"trace.overhead":           p.ms["http.query"]/untraced - 1,
	}
	if q.fullJoin != nil {
		out["query.join_per_out"] = float64(q.fullJoin(q.relation)) / rowSum
	}
	return out, nil
}

// relation fetches a registered relation from the running engine.
func (q *queryLoad) relation(name string) *relation.Relation {
	r, _ := q.n.eng.Catalog().Get(name)
	return r
}

// foldNodes returns the plan's fold, groupfold and star nodes, inputs before
// the nodes that consume them.
func foldNodes(p *query.Plan) []*query.Node {
	var out []*query.Node
	var walk func(n *query.Node)
	walk = func(n *query.Node) {
		if n == nil {
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
		if n.Op == "fold" || n.Op == "groupfold" || n.Op == "star" {
			out = append(out, n)
		}
	}
	walk(p.Root)
	return out
}

// mulInstance is one two-path instance a fold evaluated: the matrix product
// at its dimensions is what matrix.MulBitCount is timed on.
type mulInstance struct {
	r, s   *relation.Relation // π_{x,z}(r(x,y) ⋈ s(z,y))
	d1, d2 int
}

// matrices builds the heavy-part operands the way Algorithm 1 partitions
// the instance: columns are the y values of degree above Δ1 in s, rows the
// x (of r) and z (of s) values of degree above Δ2. ops is the exact count of
// 64-bit word operations of the product, 0 when nothing is heavy.
func (m mulInstance) matrices() (a, bT *matrix.BitMatrix, ops float64) {
	sY, sX, rX := m.s.ByY(), m.s.ByX(), m.r.ByX()
	col := make([]int, sY.NumKeys())
	ncols := 0
	for i := range col {
		col[i] = -1
		if sY.Degree(i) > m.d1 {
			col[i] = ncols
			ncols++
		}
	}
	fill := func(ix *relation.Index) (*matrix.BitMatrix, int) {
		var rows [][]int
		for i := 0; i < ix.NumKeys(); i++ {
			if ix.Degree(i) <= m.d2 {
				continue
			}
			var cols []int
			for _, y := range ix.List(i) {
				if yp := sY.Pos(y); yp >= 0 && col[yp] >= 0 {
					cols = append(cols, col[yp])
				}
			}
			if len(cols) > 0 {
				rows = append(rows, cols)
			}
		}
		bm := matrix.NewBitMatrix(len(rows), ncols)
		for i, cols := range rows {
			for _, j := range cols {
				bm.Set(i, j)
			}
		}
		return bm, len(rows)
	}
	if ncols == 0 {
		return nil, nil, 0
	}
	a, na := fill(rX)
	bT, nb := fill(sX)
	return a, bT, float64(na) * float64(nb) * float64((ncols+63)/64)
}

// kernelFunc replays the join-project calls one dense shape's plan makes,
// on the catalog's relations with the plan's own thresholds, and returns
// the two-path instances it evaluated. A plan that no longer has the nodes
// the replay expects yields no calls.
type kernelFunc func(shape string, rel func(string) *relation.Relation, nodes []*query.Node) []mulInstance

func composeOpts(n *query.Node) acyclic.Options {
	return acyclic.Options{Force: n.Strategy, Join: joinproject.Options{Delta1: n.Delta1, Delta2: n.Delta2}}
}

// compose runs one fold node's composition π_{a,c}(l(a,b) ⋈ r(b,c)).
func compose(l, r *relation.Relation, n *query.Node, muls *[]mulInstance) *relation.Relation {
	v, step := acyclic.Compose(l, r, composeOpts(n))
	if step.Strategy == acyclic.StrategyMM {
		*muls = append(*muls, mulInstance{l, r.Swap(), step.Delta1, step.Delta2})
	}
	return v
}

// groupBy runs one groupfold node: γ_{x; COUNT(z)}(r(x,y) ⋈ s(z,y)) under the
// closed-form thresholds, as the executor calls it.
func groupBy(r, s *relation.Relation, muls *[]mulInstance) {
	joinproject.TwoPathGroupBy(r, s, joinproject.Options{})
	d1, d2 := joinproject.HeuristicThresholds(r, s)
	*muls = append(*muls, mulInstance{r, s, d1, d2})
}

func denseRowsKernel(shape string, rel func(string) *relation.Relation, nodes []*query.Node) []mulInstance {
	var muls []mulInstance
	switch {
	case shape == "self_2path" && len(nodes) == 1:
		compose(rel("D"), rel("D").Swap(), nodes[0], &muls)
	case shape == "cross_2path" && len(nodes) == 1:
		compose(rel("D"), rel("E").Swap(), nodes[0], &muls)
	case shape == "star3" && len(nodes) == 1:
		arms := []*relation.Relation{rel("Ds"), rel("Es"), rel("Fs")}
		opt := joinproject.Options{Delta1: nodes[0].Delta1, Delta2: nodes[0].Delta2}
		if nodes[0].Strategy == acyclic.StrategyMM {
			joinproject.StarMM(arms, opt)
		} else {
			joinproject.StarNonMM(arms, opt)
		}
	case shape == "chain3" && len(nodes) == 2:
		v := compose(rel("D"), rel("E").Swap(), nodes[0], &muls)
		compose(v, rel("Fc"), nodes[1], &muls)
	}
	return muls
}

func denseCountKernel(shape string, rel func(string) *relation.Relation, nodes []*query.Node) []mulInstance {
	var muls []mulInstance
	switch {
	case shape == "self_2path" && len(nodes) == 1:
		groupBy(rel("D"), rel("D"), &muls)
	case shape == "cross_2path" && len(nodes) == 1:
		groupBy(rel("D"), rel("E"), &muls)
	case shape == "star3" && len(nodes) == 1:
		// The Es arm only filters; the compile-time reduction applies it.
		arms := relation.Reduce(rel("Ds"), rel("Es"), rel("Fs"))
		groupBy(arms[0], arms[2], &muls)
	case shape == "chain3" && len(nodes) == 2:
		v := compose(rel("D"), rel("E").Swap(), nodes[0], &muls)
		groupBy(v, rel("Fc").Swap(), &muls)
	}
	return muls
}

// denseFullJoin is the exact size of the full joins under the four dense
// bodies: what a plan without early projection would enumerate.
func denseFullJoin(rel func(string) *relation.Relation) int64 {
	d, e, fc := rel("D"), rel("E"), rel("Fc")
	total := relation.FullJoinSize(d, d) + relation.FullJoinSize(d, e) +
		relation.FullJoinSize(rel("Ds"), rel("Es"), rel("Fs"))
	// D(a,b), E(c,b), Fc(c,d): every E tuple pairs D's sets holding b with
	// Fc's elements of c.
	for _, t := range e.Pairs() {
		total += int64(len(d.ByY().Lookup(t.Y))) * int64(len(fc.ByX().Lookup(t.X)))
	}
	return total
}

func (w *writeLoad) trace(tr *tracer, s sample, budget time.Duration) (map[string]float64, error) {
	eng := w.n.eng
	after, _ := counters(eng)
	ckpts, stall := w.checkpointStall()
	untraced := ms(median(w.writeLat))
	for _, p50 := range w.readP50() {
		untraced += p50 / float64(len(viewNames))
	}
	ops := float64(len(w.writeLat))
	next := w.warmOps() + len(w.writeLat) // the schedule continues where the window stopped

	// A twin engine without views, logging to its own data dir under the same
	// policy, takes every mutation the main one takes: the difference between
	// the two Mutate calls is view maintenance. A scratch WAL takes the same
	// records for wal.Append alone.
	twinDir, err := scratchDir(w.root, "view_writes-twin")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(twinDir)
	twin := core.NewEngine(core.WithOptimizerConstants(pinnedConstants))
	if err := twin.Open(filepath.Join(twinDir, "engine"), core.PersistOptions{Fsync: fsyncPolicy, CheckpointEvery: w.sched.sz.checkpointEvery}); err != nil {
		return nil, err
	}
	defer twin.Close()
	for _, name := range viewRels {
		rel, _ := eng.Catalog().Get(name)
		if _, err := twin.Register(name, rel.Pairs()); err != nil {
			return nil, err
		}
	}
	scratch, err := wal.Open(filepath.Join(twinDir, "wal"), wal.Options{Policy: fsyncPolicy})
	if err != nil {
		return nil, err
	}
	defer scratch.Close()

	c := newClient()
	defer c.close()
	ctx := context.Background()
	var failed firstError
	note := failed.note
	deadline := time.Now().Add(budget)
	for round := 0; moreRounds(round, deadline) && failed.err == nil; round++ {
		op := tr.newOp()
		// Step one goes through HTTP, and the read after it sees a dirty view.
		m := w.sched.step(next)
		verb := m.verb()
		ins, del := m.delta()
		httpMutate := tr.time(op, -1, verb, "http.mutate", func() {
			if _, ok := m.apply(c, w.n, w.sched.sz.batch); !ok {
				note(fmt.Errorf("traced mutation %d failed", next))
			}
		})
		_, err := twin.Mutate(m.rel, ins, del)
		note(err)
		view := viewReads[m.rel][round%len(viewReads[m.rel])]
		httpRead := tr.time(op, -1, view, "http.view_read", func() {
			if _, ok := readView(c, w.n, view); !ok {
				note(fmt.Errorf("traced read of %s failed", view))
			}
		})

		// Step two is the same kind of mutation one batch on, called directly.
		m = w.sched.step(next + 2)
		ins, del = m.delta()
		old, _ := eng.Catalog().Get(m.rel)
		mutate := tr.time(op, httpMutate, verb, "core.Mutate", func() {
			_, err := eng.Mutate(m.rel, ins, del)
			note(err)
		})
		tr.time(op, mutate, verb, "relation.ApplyDelta", func() { relation.ApplyDelta(old, m.rel, ins, del) })
		tr.time(op, mutate, verb, "wal.Append", func() {
			_, err := scratch.Append(&wal.Record{Kind: wal.KindMutate, Name: m.rel, Added: ins, Removed: del})
			note(err)
		})
		tr.time(op, -1, verb, "core.Mutate(no views)", func() {
			_, err := twin.Mutate(m.rel, ins, del)
			note(err)
		})
		view = viewReads[m.rel][round%len(viewReads[m.rel])] // one this mutation left dirty
		v, _ := eng.View(view)
		tr.time(op, httpRead, view, "view.Result", func() {
			_, _, _, err := v.Result(ctx)
			note(err)
		})

		// The step skipped above runs untimed, so the schedule stays whole
		// and the next round times the other verb.
		m = w.sched.step(next + 1)
		ins, del = m.delta()
		_, err = eng.Mutate(m.rel, ins, del)
		note(err)
		_, err = twin.Mutate(m.rel, ins, del)
		note(err)
		next += 3
	}
	if failed.err != nil {
		return nil, failed.err
	}
	// view.maintain is derived, not timed: Mutate with views less Mutate
	// without, per verb, recorded as a span so self times account for it.
	for _, verb := range []string{"insert", "delete"} {
		d := tr.median(verb, "core.Mutate") - tr.median(verb, "core.Mutate(no views)")
		tr.add(tr.newOp(), tr.first(verb, "core.Mutate"), verb, "view.maintain", time.Duration(max(d, 0)*1e6))
	}
	// An operation is one write and one read: halve the per-verb and
	// per-view sums into per-operation means.
	p := tr.profile()
	perWrite := func(name string) float64 { return p.ms[name] / 2 }
	perRead := func(name string) float64 { return p.ms[name] / float64(len(viewNames)) }
	return map[string]float64{
		"server.self_ms":          perWrite("http.mutate") - perWrite("core.Mutate") + perRead("http.view_read") - perRead("view.Result"),
		"core.self_ms":            p.self("core.Mutate") / 2,
		"relation.apply_delta_ms": perWrite("relation.ApplyDelta"),
		"wal.append_ms":           perWrite("wal.Append"),
		"view.maintain_ms":        perWrite("view.maintain"),
		"view.read_ms":            perRead("view.Result"),
		"wal.syncs_per_op":        float64(after.syncs-w.walBefore.syncs) / ops,
		"wal.bytes_per_user_byte": float64(after.bytes-w.walBefore.bytes) / (ops * float64(w.sched.sz.batch) * 8),
		"snapshot.checkpoints":    float64(ckpts),
		"snapshot.stall_ms_max":   ms(stall),
		"trace.overhead":          (perWrite("http.mutate")+perRead("http.view_read"))/untraced - 1,
	}, nil
}

func (r *restartLoad) trace(tr *tracer, s sample, budget time.Duration) (map[string]float64, error) {
	untraced := ms(median(r.openLat))
	c := newClient()
	defer c.close()
	var failed firstError
	note := failed.note
	records := 0
	deadline := time.Now().Add(budget)
	for round := 0; moreRounds(round, deadline) && failed.err == nil; round++ {
		op := tr.newOp()
		var d time.Duration
		var ok bool
		root := tr.time(op, -1, "restart", "restart.first_answer", func() { d, ok = r.op(c, 0, 0) })
		if !ok {
			return nil, errors.New("traced restart failed")
		}
		// op also restores the dir and checks the state; its own clock is
		// the span.
		tr.spans[root].DurUs = float64(d.Nanoseconds()) / 1e3

		note(copyDir(r.pristine, r.work))
		open := tr.time(op, root, "restart", "core.Open", func() {
			eng := core.NewEngine(core.WithOptimizerConstants(pinnedConstants))
			note(eng.Open(r.work, core.PersistOptions{Fsync: fsyncPolicy}))
			note(eng.Close())
		})
		var st *snapshot.State
		tr.time(op, open, "restart", "snapshot.Load", func() {
			man, _, err := snapshot.LoadManifest(r.pristine)
			note(err)
			if err == nil {
				st, err = snapshot.Load(r.pristine, man)
				note(err)
			}
		})
		if failed.err != nil {
			break
		}
		records = 0
		tr.time(op, open, "restart", "wal.Replay", func() {
			note(wal.Replay(r.pristine, st.AppliedLSN, func(uint64, *wal.Record) error { records++; return nil }))
		})
	}
	if failed.err != nil {
		return nil, failed.err
	}
	p := tr.profile()
	return map[string]float64{
		"server.self_ms":           p.self("restart.first_answer"),
		"core.open_ms":             p.ms["core.Open"],
		"snapshot.load_ms":         p.ms["snapshot.Load"],
		"wal.replay_ms_per_record": p.ms["wal.Replay"] / float64(max(records, 1)),
		"trace.overhead":           p.ms["restart.first_answer"]/untraced - 1,
	}, nil
}
