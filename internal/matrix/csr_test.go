package matrix

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	lists := make([][]int32, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				lists[i] = append(lists[i], int32(j))
			}
		}
	}
	return NewCSR(rows, cols, lists)
}

func TestCSRRoundTripBitMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := randomBitMatrix(rng, 17, 130, 0.2)
	c := CSRFromBitMatrix(b)
	if len(c.ColIdx) != b.Ones() {
		t.Fatalf("%d stored entries, want %d", len(c.ColIdx), b.Ones())
	}
	for i := 0; i < b.Rows; i++ {
		row := c.Row(i)
		for j := 0; j < b.Cols; j++ {
			if _, found := slices.BinarySearch(row, int32(j)); b.Test(i, j) != found {
				t.Fatalf("round trip differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestSpGEMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		u, v, w := 1+rng.Intn(25), 1+rng.Intn(25), 1+rng.Intn(25)
		a := randomCSR(rng, u, v, 0.3)
		b := randomCSR(rng, v, w, 0.3)
		got := spGEMMDense(a, b, 1+rng.Intn(3))
		want := MulNaive(toDense(a), toDense(b))
		if !got.Equal(want) {
			t.Fatalf("trial %d (%d,%d,%d): SpGEMM != dense", trial, u, v, w)
		}
	}
}

func toDense(m *CSR) *Int32 {
	d := NewInt32(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for _, j := range m.Row(i) {
			d.Set(i, int(j), 1)
		}
	}
	return d
}

func TestSpGEMMRowsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomCSR(rng, 20, 30, 0.25)
	b := randomCSR(rng, 30, 40, 0.25)
	SpGEMMCounts(a, b, 2, func(i int, cols, counts []int32) {
		if len(cols) != len(counts) {
			t.Errorf("row %d: cols/counts length mismatch", i)
		}
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				t.Errorf("row %d columns not sorted", i)
			}
		}
		for _, c := range counts {
			if c < 1 {
				t.Errorf("row %d has non-positive count", i)
			}
		}
	})
}

func TestSpGEMMShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	SpGEMMCounts(NewCSR(2, 3, nil), NewCSR(4, 2, nil), 1, func(int, []int32, []int32) {})
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randomCSR(rng, 13, 29, 0.3)
	mt := m.Transpose()
	if mt.Rows != m.Cols || mt.Cols != m.Rows || len(mt.ColIdx) != len(m.ColIdx) {
		t.Fatalf("transpose shape/NNZ wrong")
	}
	d := toDense(m)
	dt := toDense(mt)
	if !d.Transpose().Equal(dt) {
		t.Fatal("transpose contents wrong")
	}
}

func TestCSREmptyRows(t *testing.T) {
	m := NewCSR(5, 10, [][]int32{nil, {1, 2}, nil})
	if len(m.ColIdx) != 2 {
		t.Fatalf("%d stored entries, want 2", len(m.ColIdx))
	}
	if len(m.Row(0)) != 0 || len(m.Row(3)) != 0 || len(m.Row(4)) != 0 {
		t.Fatal("missing rows should be empty")
	}
	// Product with empty operand.
	e := NewCSR(10, 4, nil)
	c := spGEMMDense(m, e, 1)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("product with empty matrix must be zero")
		}
	}
}

// Property: SpGEMM agrees with the bit-packed kernel on the same operands.
func TestQuickSpGEMMMatchesBitKernel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u, v, w := 1+rng.Intn(20), 1+rng.Intn(60), 1+rng.Intn(20)
		ab := randomBitMatrix(rng, u, v, 0.3)
		bbT := randomBitMatrix(rng, w, v, 0.3)
		want := MulBitCount(ab, bbT, 1)
		a := CSRFromBitMatrix(ab)
		b := CSRFromBitMatrix(bbT).Transpose()
		got := spGEMMDense(a, b, 2)
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpGEMMvsBit(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	const n = 512
	for _, density := range []float64{0.01, 0.2} {
		bm1 := randomBitMatrix(rng, n, n, density)
		bm2 := randomBitMatrix(rng, n, n, density)
		c1 := CSRFromBitMatrix(bm1)
		c2 := CSRFromBitMatrix(bm2).Transpose()
		b.Run(benchName("Bit", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MulBitCount(bm1, bm2, 1)
			}
		})
		b.Run(benchName("SpGEMM", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SpGEMMCounts(c1, c2, 1, func(int, []int32, []int32) {})
			}
		})
	}
}

func benchName(kernel string, density float64) string {
	if density < 0.1 {
		return kernel + "/sparse"
	}
	return kernel + "/dense"
}
