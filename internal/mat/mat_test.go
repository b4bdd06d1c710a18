package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMulVec(t *testing.T) {
	m := New(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	m.MulVec([]float64{1, 0, -1}, dst)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", dst)
	}
}

func TestMulVecT(t *testing.T) {
	m := New(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 3)
	m.MulVecT([]float64{1, 1}, dst)
	want := []float64{5, 7, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", dst, want)
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := New(2, 2)
	m.AddOuter([]float64{1, 2}, []float64{3, 4}, 0.5)
	want := []float64{1.5, 2, 3, 4}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddOuter data = %v, want %v", m.Data, want)
		}
	}
}

func TestAtSetRowCloneZero(t *testing.T) {
	m := New(3, 2)
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("At/Set mismatch")
	}
	if r := m.Row(1); r[1] != 9 {
		t.Fatal("Row aliasing broken")
	}
	c := m.Clone()
	m.Zero()
	if c.At(1, 1) != 9 {
		t.Fatal("Clone shares storage")
	}
	if m.At(1, 1) != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestDimensionPanics(t *testing.T) {
	m := New(2, 3)
	cases := []func(){
		func() { m.MulVec(make([]float64, 2), make([]float64, 2)) },
		func() { m.MulVecT(make([]float64, 3), make([]float64, 3)) },
		func() { m.AddOuter(make([]float64, 3), make([]float64, 3), 1) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { Axpy(1, []float64{1}, []float64{1, 2}) },
		func() { New(0, 1) },
		func() { ArgMax(nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	y := Clone(a)
	Axpy(2, b, y)
	if y[0] != 9 || y[2] != 15 {
		t.Fatalf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 4.5 {
		t.Fatalf("Scale = %v", y)
	}
	Fill(y, 7)
	if y[1] != 7 {
		t.Fatalf("Fill = %v", y)
	}
	if ArgMax([]float64{1, 5, 5, 2}) != 1 {
		t.Fatal("ArgMax tie-break not first")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("Norm2")
	}
}

// MulVecT skips rows whose x entry is exactly zero: a non-finite weight in
// such a row must not turn dst into NaN (Inf·0), wherever the row falls in
// a block of four.
func TestMulVecTSkipsZeroRows(t *testing.T) {
	for zero := 0; zero < 6; zero++ {
		m := New(6, 3)
		for i := range m.Data {
			m.Data[i] = 1
		}
		m.Set(zero, 1, math.Inf(1))
		x := []float64{1, 1, 1, 1, 1, 1}
		x[zero] = math.Copysign(0, float64(zero%2)*-2+1)
		dst := make([]float64, 3)
		m.MulVecT(x, dst)
		for j, v := range dst {
			if v != 5 {
				t.Fatalf("zero row %d: dst[%d] = %v, want 5", zero, j, v)
			}
		}
	}
}

// Property: MulVecT is the adjoint of MulVec — ⟨Ax, y⟩ == ⟨x, Aᵀy⟩.
func TestAdjointProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n, m := int(seed%4)+1, int(seed%3)+2
		A := New(n, m)
		for i := range A.Data {
			A.Data[i] = float64((i*7+int(seed))%11) - 5
		}
		x := make([]float64, m)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i) - 1
		}
		for i := range y {
			y[i] = float64(i*2) - 3
		}
		ax := make([]float64, n)
		aty := make([]float64, m)
		A.MulVec(x, ax)
		A.MulVecT(y, aty)
		return math.Abs(Dot(ax, y)-Dot(x, aty)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
