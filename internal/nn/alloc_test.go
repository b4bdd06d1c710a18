package nn

import (
	"testing"

	"pet/internal/rng"
)

// The MLP forward pass must be allocation-free: every activation buffer is
// preallocated at construction, and Forward only fills them.
func TestMLPForwardZeroAllocs(t *testing.T) {
	m := NewMLP([]int{16, 64, 64, 8}, ActTanh, rng.New(1))
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	m.Forward(x) // nothing to warm, but keep symmetry with Backward
	allocs := testing.AllocsPerRun(100, func() { m.Forward(x) })
	if allocs != 0 {
		t.Fatalf("MLP.Forward allocates %.1f per call, want 0", allocs)
	}
}

// Backward accumulates into preallocated gradient buffers and returns the
// cached dx of the first layer: zero allocations.
func TestMLPBackwardZeroAllocs(t *testing.T) {
	m := NewMLP([]int{16, 64, 64, 8}, ActReLU, rng.New(2))
	x := make([]float64, 16)
	dy := make([]float64, 8)
	for i := range dy {
		dy[i] = 0.5
	}
	m.Forward(x)
	allocs := testing.AllocsPerRun(100, func() {
		m.Forward(x)
		m.Backward(dy)
	})
	if allocs != 0 {
		t.Fatalf("MLP.Forward+Backward allocates %.1f per call, want 0", allocs)
	}
}

// Softmax with a caller-provided destination must not touch the allocator.
func TestSoftmaxZeroAllocs(t *testing.T) {
	logits := []float64{0.1, -2, 3, 0.7}
	dst := make([]float64, len(logits))
	allocs := testing.AllocsPerRun(100, func() { Softmax(logits, dst) })
	if allocs != 0 {
		t.Fatalf("Softmax allocates %.1f per call, want 0", allocs)
	}
}

// ZeroGrad iterates the cached gradient groups; rebuilding the group slice
// per call would show up here.
func TestZeroGradZeroAllocs(t *testing.T) {
	m := NewMLP([]int{8, 32, 4}, ActTanh, rng.New(3))
	allocs := testing.AllocsPerRun(100, func() { m.ZeroGrad() })
	if allocs != 0 {
		t.Fatalf("MLP.ZeroGrad allocates %.1f per call, want 0", allocs)
	}
}

// The one-output forward pass fills the same preallocated buffers as
// Forward: zero allocations.
func TestMLPForwardAtZeroAllocs(t *testing.T) {
	m := NewMLP([]int{18, 64, 64, 200}, ActReLU, rng.New(4))
	x := make([]float64, 18)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	allocs := testing.AllocsPerRun(100, func() { m.ForwardAt(x, 7) })
	if allocs != 0 {
		t.Fatalf("MLP.ForwardAt allocates %.1f per call, want 0", allocs)
	}
}
