// Package nn is a minimal neural-network substrate: linear layers with
// manual backprop, tanh/ReLU activations, an MLP container, the Adam
// optimizer, and stable categorical-distribution utilities. It reproduces
// the function class PET's PyTorch networks live in (small MLP policies and
// critics) using only the standard library.
//
// The API is per-sample: Forward caches activations for exactly one input,
// and Backward must follow the matching Forward. Gradients accumulate
// across samples until ZeroGrad, which is how minibatch SGD is expressed.
package nn

import (
	"math"

	"pet/internal/mat"
	"pet/internal/rng"
)

// Layer is one differentiable stage.
type Layer interface {
	// Forward computes the output for x and caches what Backward needs.
	Forward(x []float64) []float64
	// Backward consumes dL/dy and returns dL/dx, accumulating parameter
	// gradients along the way.
	Backward(dy []float64) []float64
	// Params and Grads return aligned parameter/gradient groups.
	Params() [][]float64
	Grads() [][]float64
}

// Linear is a fully connected layer y = Wx + b.
type Linear struct {
	W  *mat.Matrix
	B  []float64
	DW *mat.Matrix
	DB []float64

	in  []float64 // cached input
	out []float64
	dx  []float64
}

// NewLinear creates a layer with Xavier/Glorot-uniform initialization.
func NewLinear(in, out int, r *rng.Stream) *Linear {
	l := &Linear{
		W:   mat.New(out, in),
		B:   make([]float64, out),
		DW:  mat.New(out, in),
		DB:  make([]float64, out),
		out: make([]float64, out),
		dx:  make([]float64, in),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W.Data {
		l.W.Data[i] = (r.Float64()*2 - 1) * limit
	}
	return l
}

// Forward computes Wx + b.
func (l *Linear) Forward(x []float64) []float64 {
	l.in = x
	l.W.MulVec(x, l.out)
	for i := range l.out {
		l.out[i] += l.B[i]
	}
	return l.out
}

// forwardRow computes output k of Wx + b — the same float64 as Forward's —
// and caches x as Forward does, without touching the other outputs.
func (l *Linear) forwardRow(x []float64, k int) float64 {
	l.in = x
	return mat.Dot(l.W.Row(k), x) + l.B[k]
}

// Backward accumulates dW += dy·xᵀ, dB += dy and returns Wᵀ·dy.
func (l *Linear) Backward(dy []float64) []float64 {
	l.accumulate(dy)
	l.W.MulVecT(dy, l.dx)
	return l.dx
}

// accumulate is Backward without the input gradient: dW += dy·xᵀ, dB += dy.
func (l *Linear) accumulate(dy []float64) {
	l.DW.AddOuter(dy, l.in, 1)
	mat.Axpy(1, dy, l.DB)
}

// Params returns the weight and bias groups.
func (l *Linear) Params() [][]float64 { return [][]float64{l.W.Data, l.B} }

// Grads returns the gradient groups aligned with Params.
func (l *Linear) Grads() [][]float64 { return [][]float64{l.DW.Data, l.DB} }

// Tanh is an elementwise tanh activation.
type Tanh struct {
	out []float64
	dx  []float64
}

// NewTanh creates a tanh activation with scratch presized for width n, so
// the first Forward does not allocate. The zero value also works, sizing
// itself lazily on first use.
func NewTanh(n int) *Tanh {
	return &Tanh{out: make([]float64, n), dx: make([]float64, n)}
}

// Forward applies tanh elementwise.
func (t *Tanh) Forward(x []float64) []float64 {
	if len(t.out) != len(x) {
		t.out = make([]float64, len(x))
		t.dx = make([]float64, len(x))
	}
	for i, v := range x {
		t.out[i] = math.Tanh(v)
	}
	return t.out
}

// Backward applies dtanh = 1 - y².
func (t *Tanh) Backward(dy []float64) []float64 {
	for i, y := range t.out {
		t.dx[i] = dy[i] * (1 - y*y)
	}
	return t.dx
}

// Params returns no parameters.
func (t *Tanh) Params() [][]float64 { return nil }

// Grads returns no gradients.
func (t *Tanh) Grads() [][]float64 { return nil }

// ReLU is an elementwise max(0,x) activation.
type ReLU struct {
	in []float64
	dx []float64
}

// NewReLU creates a ReLU activation with scratch presized for width n. The
// zero value also works, sizing itself lazily on first use.
func NewReLU(n int) *ReLU {
	return &ReLU{in: make([]float64, n), dx: make([]float64, n)}
}

// Forward applies max(0, x) elementwise.
func (r *ReLU) Forward(x []float64) []float64 {
	if len(r.in) != len(x) {
		r.in = make([]float64, len(x))
		r.dx = make([]float64, len(x))
	}
	for i, v := range x {
		if v > 0 {
			r.in[i] = v
		} else {
			r.in[i] = 0
		}
	}
	return r.in
}

// Backward gates gradients by the activation mask.
func (r *ReLU) Backward(dy []float64) []float64 {
	for i, v := range r.in {
		if v > 0 {
			r.dx[i] = dy[i]
		} else {
			r.dx[i] = 0
		}
	}
	return r.dx
}

// Params returns no parameters.
func (r *ReLU) Params() [][]float64 { return nil }

// Grads returns no gradients.
func (r *ReLU) Grads() [][]float64 { return nil }
