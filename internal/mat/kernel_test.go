package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMulVec is the reference matrix-vector product: one accumulator per
// row, starting at 0 and summing products in ascending column order. Each
// product is rounded to float64 before the add (no fused multiply-add).
func refMulVec(m *Matrix, x, dst []float64) {
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j, w := range m.Row(i) {
			s += float64(w * x[j])
		}
		dst[i] = s
	}
}

// refMulVecT is the reference transposed product: rows in ascending order,
// rows whose x entry is exactly zero skipped, each row's products added
// into dst column by column.
func refMulVecT(m *Matrix, x, dst []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, w := range m.Row(i) {
			dst[j] += float64(w * xi)
		}
	}
}

// kernelValue draws an entry that is sometimes an exact zero, a negative
// zero or a subnormal, so sign-of-zero and gradual-underflow cases meet
// every kernel.
func kernelValue(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(r.Intn(1000)-500) * math.SmallestNonzeroFloat64
	default:
		return r.NormFloat64() * math.Pow(2, float64(r.Intn(40)-20))
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// Property: MulVec and MulVecT equal the reference loops bit for bit, over
// random shapes (1…70 rows and columns, so every remainder of a block of
// four occurs) and inputs holding zeros, negative zeros and subnormals.
// MulVecT's input always holds an exact zero inside the first block of
// four rows, so its zero skip is exercised where rows are grouped.
func TestKernelsMatchReferenceBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+r.Intn(70), 1+r.Intn(70)
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = kernelValue(r)
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = kernelValue(r)
		}
		got, want := make([]float64, rows), make([]float64, rows)
		for i := range got {
			got[i] = math.NaN() // the kernel must overwrite every entry
		}
		m.MulVec(x, got)
		refMulVec(m, x, want)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("trial %d: MulVec %dx%d row %d = %v (%#x), reference %v (%#x)",
				trial, rows, cols, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}

		y := make([]float64, rows)
		for i := range y {
			y[i] = kernelValue(r)
		}
		if rows >= 2 {
			y[r.Intn(min(rows, 4))] = 0
		}
		gotT, wantT := make([]float64, cols), make([]float64, cols)
		for i := range gotT {
			gotT[i] = math.NaN()
		}
		m.MulVecT(y, gotT)
		refMulVecT(m, y, wantT)
		if i := sameBits(gotT, wantT); i >= 0 {
			t.Fatalf("trial %d: MulVecT %dx%d col %d = %v (%#x), reference %v (%#x)",
				trial, rows, cols, i, gotT[i], math.Float64bits(gotT[i]), wantT[i], math.Float64bits(wantT[i]))
		}
	}
}

// The kernels run on caller-provided buffers: zero allocations.
func TestKernelsZeroAllocs(t *testing.T) {
	m := New(64, 64)
	x, dst := make([]float64, 64), make([]float64, 64)
	for i := range m.Data {
		m.Data[i] = float64(i%7) - 3
	}
	for i := range x {
		x[i] = float64(i % 3)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.MulVec(x, dst)
		m.MulVecT(x, dst)
	})
	if allocs != 0 {
		t.Fatalf("MulVec+MulVecT allocate %.1f per call, want 0", allocs)
	}
}

// The learners' real layer shapes (rows×cols): PET's actor and critic
// input layers (64×24), their hidden layers and ACC's (64×64), PET's
// 40-way output (40×64) and ACC's 200-way output (200×64).
var kernelShapes = [][2]int{{64, 24}, {64, 64}, {40, 64}, {200, 64}}

func benchKernel(b *testing.B, kernel func(m *Matrix, x, y []float64), transpose bool) {
	for _, shape := range kernelShapes {
		rows, cols := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			m := New(rows, cols)
			for i := range m.Data {
				m.Data[i] = r.NormFloat64()
			}
			x, y := make([]float64, cols), make([]float64, rows)
			if transpose {
				x, y = y, x
			}
			for i := range x {
				x[i] = r.NormFloat64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(m, x, y)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*cols), "ns/MAC")
		})
	}
}

func BenchmarkMulVec(b *testing.B) {
	benchKernel(b, (*Matrix).MulVec, false)
}

func BenchmarkMulVecT(b *testing.B) {
	benchKernel(b, (*Matrix).MulVecT, true)
}
