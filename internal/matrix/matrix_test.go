package matrix

import (
	"math/rand"
	"testing"
)

func randomInt32(rng *rand.Rand, rows, cols, maxv int) *Int32 {
	m := NewInt32(rows, cols)
	for i := range m.Data {
		m.Data[i] = int32(rng.Intn(maxv))
	}
	return m
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomInt32(rng, 7, 13, 10)
	at := a.Transpose()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !a.Transpose().Transpose().Equal(a) {
		t.Fatal("double transpose != identity")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MulNaive(NewInt32(2, 3), NewInt32(4, 2))
}

func randomBitMatrix(rng *rand.Rand, rows, cols int, density float64) *BitMatrix {
	m := NewBitMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				m.Set(i, j)
			}
		}
	}
	return m
}

func TestBitMatrixSetTest(t *testing.T) {
	m := NewBitMatrix(3, 130)
	m.Set(0, 0)
	m.Set(1, 64)
	m.Set(2, 129)
	if !m.Test(0, 0) || !m.Test(1, 64) || !m.Test(2, 129) {
		t.Fatal("set bits not readable")
	}
	if m.Test(0, 1) || m.Test(1, 63) || m.Test(2, 128) {
		t.Fatal("unset bits read as set")
	}
	if m.Ones() != 3 {
		t.Fatalf("Ones = %d, want 3", m.Ones())
	}
}

func TestMulBitCountMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		u, v, w := 1+rng.Intn(20), 1+rng.Intn(200), 1+rng.Intn(20)
		a := randomBitMatrix(rng, u, v, 0.3)
		bT := randomBitMatrix(rng, w, v, 0.3)
		got := MulBitCount(a, bT, 1+rng.Intn(4))
		want := MulNaive(a.ToInt32(), bT.ToInt32().Transpose())
		if !got.Equal(want) {
			t.Fatalf("trial %d (%d,%d,%d): bit count product != dense product", trial, u, v, w)
		}
	}
}

func TestForEachRowProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomBitMatrix(rng, 31, 130, 0.25)
	bT := randomBitMatrix(rng, 11, 130, 0.25)
	want := MulBitCount(a, bT, 1)
	got := NewInt32(31, 11)
	ForEachRowProductStop(a, bT, 4, nil, func(i int, counts []int32) {
		copy(got.Row(i), counts)
	})
	if !got.Equal(want) {
		t.Fatal("ForEachRowProduct disagrees with MulBitCount")
	}
}

func TestRowViewSharesStorage(t *testing.T) {
	m := NewBitMatrix(2, 70)
	row := m.Row(1)
	row.Set(65)
	if !m.Test(1, 65) {
		t.Fatal("Row view does not share storage")
	}
	if row.AndCount(m.Row(1)) != 1 {
		t.Fatal("row self-intersection != 1")
	}
}

func TestCostModelMonotone(t *testing.T) {
	cm := DefaultCostModel()
	small := cm.EstimateMul(100, 1000, 100, 1)
	big := cm.EstimateMul(1000, 1000, 1000, 1)
	if small <= 0 || big <= small {
		t.Fatalf("cost model not monotone: small=%v big=%v", small, big)
	}
	par := cm.EstimateMul(1000, 1000, 1000, 4)
	if par >= big {
		// More cores must not increase estimated time.
		t.Fatalf("4-core estimate %v not below 1-core %v", par, big)
	}
	if cm.EstimateConstruct(100, 100, 100) <= 0 {
		t.Fatal("construction estimate should be positive")
	}
	if cm.EstimateMul(0, 10, 10, 1) != 0 {
		t.Fatal("degenerate estimate should be 0")
	}
}

func TestBuildTable(t *testing.T) {
	tab := BuildTable([]int{64, 128}, []int{1, 2})
	if len(tab.Entries) != 4 {
		t.Fatalf("table entries = %d, want 4", len(tab.Entries))
	}
}

func BenchmarkMulBitCount1024(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randomBitMatrix(rng, 1024, 1024, 0.2)
	y := randomBitMatrix(rng, 1024, 1024, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MulBitCount(x, y, 0)
	}
}
