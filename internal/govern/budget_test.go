package govern

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestNilBudgetIsFree(t *testing.T) {
	var b *Budget
	if err := b.Charge(1<<40, 1<<40); err != nil {
		t.Fatal(err)
	}
	if New(0, 0) != nil {
		t.Fatal("fully unlimited budget should be nil")
	}
}

func TestRowCap(t *testing.T) {
	b := New(0, 10)
	if err := b.Charge(10, 0); err != nil {
		t.Fatalf("at cap: %v", err)
	}
	if err := b.Charge(1, 0); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over cap: %v", err)
	}
}

func TestByteCap(t *testing.T) {
	b := New(1024, 0)
	if err := b.ChargeRows(64, 16); err != nil {
		t.Fatalf("at cap: %v", err)
	}
	if err := b.Charge(0, 1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over cap: %v", err)
	}
	if rows, bytes := b.rows.Load(), b.bytes.Load(); rows != 64 || bytes != 1025 {
		t.Fatalf("charged %d rows, %d bytes", rows, bytes)
	}
}

func TestConcurrentCharges(t *testing.T) {
	b := New(0, 1000)
	var wg sync.WaitGroup
	var exceeded sync.Once
	hit := false
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := b.Charge(1, 0); err != nil {
					exceeded.Do(func() { hit = true })
					return
				}
			}
		}()
	}
	wg.Wait()
	if !hit {
		t.Fatal("1600 concurrent charges against a 1000-row cap never tripped")
	}
}

func TestContextThreading(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty ctx should carry no budget")
	}
	if WithBudget(ctx, nil) != ctx {
		t.Fatal("nil budget should not wrap ctx")
	}
	b := New(1<<20, 0)
	ctx = WithBudget(ctx, b)
	if FromContext(ctx) != b {
		t.Fatal("budget lost in ctx")
	}
}
