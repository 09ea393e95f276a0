package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// cancelOnFirstFold is an execution observer that cancels the query the
// moment evaluation enters its first fold, before that fold's kernel runs.
type cancelOnFirstFold struct {
	cancel     context.CancelFunc
	canceledAt time.Time
	folds      int
}

func (c *cancelOnFirstFold) ExecNode(op, _ string) {
	if op != "fold" {
		return
	}
	if c.folds++; c.folds == 1 {
		c.canceledAt = time.Now()
		c.cancel()
	}
}

func (c *cancelOnFirstFold) ExecProgress(int64, int64) {}

// TestCancelHeavyQueryReturnsFast cancels a heavy query (dense 3-chain join:
// executor loops plus the matrix kernels) at a known point — on entry to its
// first fold — and bounds the cancel-to-return latency: every loop layer
// polls the context, so abandoning the fold must take well under 50ms, not
// ride out the sweep. Cancelling from the executor's own progress hook
// makes the test independent of how fast the machine or the engine is.
func TestCancelHeavyQueryReturnsFast(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng := NewEngine()
	if _, err := eng.Register("R", randPairs(rng, 250_000, 800)); err != nil {
		t.Fatal(err)
	}
	const q = "Q(a, d) :- R(a, b), R(b, c), R(c, d)"
	p, _, err := eng.cat.PrepareContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if _, err := p.Execute(context.Background(), eng.execOptions()); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watch := &cancelOnFirstFold{cancel: cancel}
	opts := eng.execOptions()
	opts.Observer = watch
	_, err = p.Execute(ctx, opts)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query returned %v, want context.Canceled", err)
	}
	if watch.folds != 1 {
		t.Fatalf("evaluation entered %d folds after the cancel on the first; want it abandoned mid-fold", watch.folds)
	}
	if lat := returned.Sub(watch.canceledAt); lat > 50*time.Millisecond {
		t.Fatalf("cancel-to-return latency %v, want < 50ms (uncancelled run: %v)", lat, full)
	}
	t.Logf("cancel-to-return %v; uncancelled run %v", returned.Sub(watch.canceledAt), full)
}
