package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestCancelHeavyQueryReturnsFast cancels a query that takes hundreds of
// milliseconds uncancelled (dense 3-chain join: executor loops plus the
// matrix kernels) and bounds the cancel-to-return latency: every loop layer
// — executor batches, bag joins, kernel tile blocks — polls the context, so
// abandoning the work must take well under 50ms, not ride out the sweep.
func TestCancelHeavyQueryReturnsFast(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng := NewEngine()
	if _, err := eng.Register("R", randPairs(rng, 250_000, 800)); err != nil {
		t.Fatal(err)
	}
	const q = "Q(a, d) :- R(a, b), R(b, c), R(c, d)"

	// Uncancelled baseline: the query must be genuinely heavy, otherwise a
	// fast return proves nothing.
	start := time.Now()
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 60*time.Millisecond {
		t.Skipf("query finished in %v on this machine; too fast to observe cancellation", full)
	}

	ctx, cancel := context.WithCancel(context.Background())
	canceledAt := make(chan time.Time, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		canceledAt <- time.Now()
		cancel()
	}()
	_, err := eng.QueryContext(ctx, q)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query returned %v, want context.Canceled", err)
	}
	if lat := returned.Sub(<-canceledAt); lat > 50*time.Millisecond {
		t.Fatalf("cancel-to-return latency %v, want < 50ms (uncancelled run: %v)", lat, full)
	}
}
