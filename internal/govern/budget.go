// Package govern enforces per-query resource budgets. A Budget caps the
// rows and bytes a single query may materialize; the executor charges it at
// every materialization point (intermediate folds, join outputs, final
// result assembly) and aborts with ErrBudgetExceeded the moment a cap is
// crossed — turning an output-size explosion into a typed client error
// (HTTP 422) instead of an OOM kill. Budgets ride the query context, so
// view refreshes and nested evaluation inherit the caller's budget
// automatically.
//
// The charge path is two atomic adds and two compares; a nil *Budget
// charges nothing, so unbudgeted paths stay free.
package govern

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudgetExceeded is returned (wrapped) when a query crosses its memory
// budget. Servers map it to HTTP 422.
var ErrBudgetExceeded = errors.New("query memory budget exceeded")

// Budget tracks one query's materialized rows and bytes against caps. All
// methods are safe for concurrent use and safe on a nil receiver (no-op).
type Budget struct {
	maxRows  int64 // 0 = unlimited
	maxBytes int64 // 0 = unlimited
	rows     atomic.Int64
	bytes    atomic.Int64
	tripped  atomic.Bool
}

// New returns a budget capping materialized bytes and rows; zero means
// unlimited for that dimension. A fully unlimited budget returns nil.
func New(maxBytes, maxRows int64) *Budget {
	if maxBytes <= 0 && maxRows <= 0 {
		return nil
	}
	return &Budget{maxRows: maxRows, maxBytes: maxBytes}
}

// Charge records rows materialized rows occupying bytes bytes. It returns
// a wrapped ErrBudgetExceeded once either cap is crossed; the first charge
// that crosses still counts, so the totals hold what was actually allocated.
func (b *Budget) Charge(rows, bytes int64) error {
	if b == nil {
		return nil
	}
	r := b.rows.Add(rows)
	by := b.bytes.Add(bytes)
	if b.maxRows > 0 && r > b.maxRows {
		b.noteTrip()
		return fmt.Errorf("%w: %d rows materialized (cap %d)", ErrBudgetExceeded, r, b.maxRows)
	}
	if b.maxBytes > 0 && by > b.maxBytes {
		b.noteTrip()
		return fmt.Errorf("%w: %d bytes materialized (cap %d)", ErrBudgetExceeded, by, b.maxBytes)
	}
	return nil
}

// noteTrip counts this budget's first cap crossing.
func (b *Budget) noteTrip() {
	if b.tripped.CompareAndSwap(false, true) {
		budgetTrips.Inc()
	}
}

// ChargeRows charges rows with an estimated byte footprint of rowBytes
// each.
func (b *Budget) ChargeRows(rows int64, rowBytes int64) error {
	if b == nil {
		return nil
	}
	return b.Charge(rows, rows*rowBytes)
}

// budgetKey keys the context value.
type budgetKey struct{}

// WithBudget attaches b to ctx; a nil b returns ctx unchanged.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// FromContext returns the budget riding ctx, or nil (charge-nothing).
func FromContext(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}
