package nn

import (
	"math"
	"testing"

	"pet/internal/rng"
)

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ForwardAt(x, k) is Forward(x)[k] bit for bit, and a Backward of a dy
// one-hot at k after it leaves the same gradients and input gradient as
// after a full Forward — even when the net's caches hold another input.
func TestForwardAtMatchesForwardBitwise(t *testing.T) {
	r := rng.New(21)
	for _, tc := range []struct {
		sizes []int
		act   Activation
	}{
		{[]int{18, 21, 13, 30}, ActReLU},
		{[]int{18, 64, 64, 200}, ActReLU},
		{[]int{16, 64, 64, 8}, ActTanh},
		{[]int{5, 3}, ActTanh},
	} {
		full := NewMLP(tc.sizes, tc.act, rng.New(7))
		one := NewMLP(tc.sizes, tc.act, rng.New(7))
		x, other := make([]float64, tc.sizes[0]), make([]float64, tc.sizes[0])
		for i := range x {
			x[i], other[i] = r.Float64()*2-1, r.Float64()*2-1
		}
		outs := tc.sizes[len(tc.sizes)-1]
		dy := make([]float64, outs)
		for k := 0; k < outs; k++ {
			want := append([]float64(nil), full.Forward(x)...)
			one.Forward(other) // stale caches ForwardAt must replace
			if got := one.ForwardAt(x, k); math.Float64bits(got) != math.Float64bits(want[k]) {
				t.Fatalf("%v: ForwardAt(x, %d) = %v, Forward(x)[%d] = %v", tc.sizes, k, got, k, want[k])
			}

			dy[k] = want[k] - 0.25
			dxFull := append([]float64(nil), full.Backward(dy)...)
			dxOne := one.Backward(dy)
			dy[k] = 0
			if !sameFloatBits(dxFull, dxOne) {
				t.Fatalf("%v: k=%d: input gradients differ", tc.sizes, k)
			}
			for g, grad := range full.Grads() {
				if !sameFloatBits(grad, one.Grads()[g]) {
					t.Fatalf("%v: k=%d: gradient group %d differs", tc.sizes, k, g)
				}
			}
		}
	}
}

// BackwardParams accumulates what Backward does, bit for bit, over several
// samples, and leaves the first layer's input gradient untouched.
func TestBackwardParamsMatchesBackwardBitwise(t *testing.T) {
	r := rng.New(22)
	for _, sizes := range [][]int{{18, 21, 13, 30}, {18, 64, 64, 200}, {5, 3}} {
		full := NewMLP(sizes, ActReLU, rng.New(8))
		params := NewMLP(sizes, ActReLU, rng.New(8))
		first := params.layers[0].(*Linear)
		x, dy := make([]float64, sizes[0]), make([]float64, sizes[len(sizes)-1])
		for n := 0; n < 5; n++ {
			for i := range x {
				x[i] = r.Float64()*2 - 1
			}
			for i := range dy {
				dy[i] = r.Float64() - 0.5
			}
			full.Forward(x)
			full.Backward(dy)
			params.Forward(x)
			params.BackwardParams(dy)
		}
		for g, grad := range full.Grads() {
			if !sameFloatBits(grad, params.Grads()[g]) {
				t.Fatalf("%v: gradient group %d differs", sizes, g)
			}
		}
		for _, v := range first.dx {
			if v != 0 {
				t.Fatalf("%v: BackwardParams computed the first layer's input gradient", sizes)
			}
		}
	}
}
