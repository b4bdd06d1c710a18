package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"pet/internal/rng"
)

// MLP is a feed-forward stack of layers.
type MLP struct {
	layers []Layer
	sizes  []int

	// Parameter/gradient groups are collected once at construction so the
	// hot training loop (ZeroGrad, optimizers) never rebuilds the slices.
	params [][]float64
	grads  [][]float64
}

// Activation selects the hidden nonlinearity of NewMLP.
type Activation int

// Supported activations.
const (
	ActTanh Activation = iota
	ActReLU
)

// NewMLP builds sizes[0] → sizes[1] → … → sizes[n-1] with the given hidden
// activation and a linear output layer.
func NewMLP(sizes []int, act Activation, r *rng.Stream) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{sizes: append([]int(nil), sizes...)}
	for i := 0; i < len(sizes)-1; i++ {
		m.layers = append(m.layers, NewLinear(sizes[i], sizes[i+1], r))
		if i < len(sizes)-2 {
			switch act {
			case ActTanh:
				m.layers = append(m.layers, NewTanh(sizes[i+1]))
			case ActReLU:
				m.layers = append(m.layers, NewReLU(sizes[i+1]))
			default:
				panic("nn: unknown activation")
			}
		}
	}
	for _, l := range m.layers {
		m.params = append(m.params, l.Params()...)
		m.grads = append(m.grads, l.Grads()...)
	}
	return m
}

// Sizes returns the layer widths the MLP was built with.
func (m *MLP) Sizes() []int { return append([]int(nil), m.sizes...) }

// Forward runs the stack on one input. The returned slice is reused across
// calls; copy it if it must outlive the next Forward.
func (m *MLP) Forward(x []float64) []float64 {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// ForwardAt returns Forward(x)[k], bit for bit, computing only output k:
// the hidden layers run in full and the output layer computes one row. It
// caches what a Backward needs whose dy is zero outside k; a Backward after
// ForwardAt with a dy nonzero elsewhere is a caller error. The slice the
// last Forward returned is not updated.
func (m *MLP) ForwardAt(x []float64, k int) float64 {
	last := len(m.layers) - 1
	for _, l := range m.layers[:last] {
		x = l.Forward(x)
	}
	return m.layers[last].(*Linear).forwardRow(x, k)
}

// Backward propagates dL/dy of the most recent Forward through the stack,
// accumulating parameter gradients, and returns dL/dx.
func (m *MLP) Backward(dy []float64) []float64 {
	for i := len(m.layers) - 1; i >= 0; i-- {
		dy = m.layers[i].Backward(dy)
	}
	return dy
}

// BackwardParams is Backward for a caller that does not read dL/dx: it
// accumulates the same parameter gradients, bit for bit, and skips the
// first layer's input-gradient product.
func (m *MLP) BackwardParams(dy []float64) {
	for i := len(m.layers) - 1; i > 0; i-- {
		dy = m.layers[i].Backward(dy)
	}
	m.layers[0].(*Linear).accumulate(dy)
}

// Params returns all parameter groups. The returned slice is owned by the
// MLP and must not be modified (the float data may be, that is the point).
func (m *MLP) Params() [][]float64 { return m.params }

// Grads returns all gradient groups, aligned with Params. The returned
// slice is owned by the MLP and must not be modified.
func (m *MLP) Grads() [][]float64 { return m.grads }

// ZeroGrad clears accumulated gradients.
func (m *MLP) ZeroGrad() { zeroGroups(m.Grads()) }

func zeroGroups(groups [][]float64) {
	for _, g := range groups {
		for i := range g {
			g[i] = 0
		}
	}
}

// Snapshot flattens all parameters into one vector (for target networks and
// model files).
func (m *MLP) Snapshot() []float64 {
	var out []float64
	for _, p := range m.Params() {
		out = append(out, p...)
	}
	return out
}

// Restore loads a Snapshot back into the parameters.
func (m *MLP) Restore(flat []float64) error {
	n := 0
	for _, p := range m.Params() {
		n += len(p)
	}
	if len(flat) != n {
		return fmt.Errorf("nn: snapshot has %d params, model has %d", len(flat), n)
	}
	for _, p := range m.Params() {
		copy(p, flat[:len(p)])
		flat = flat[len(p):]
	}
	return nil
}

// modelFile is the gob wire format for a saved MLP.
type modelFile struct {
	Sizes []int
	Act   int
	Flat  []float64
}

// Encode serializes the MLP (architecture + weights).
func (m *MLP) Encode() ([]byte, error) {
	act := ActTanh
	for _, l := range m.layers {
		if _, ok := l.(*ReLU); ok {
			act = ActReLU
		}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(modelFile{Sizes: m.sizes, Act: int(act), Flat: m.Snapshot()})
	return buf.Bytes(), err
}

// Decode reconstructs an MLP from Encode output.
func Decode(data []byte) (*MLP, error) {
	var f modelFile
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil {
		return nil, err
	}
	// The file comes from outside the process: check its architecture
	// against its weights before building it, so a malformed one is an
	// error rather than a panic in NewMLP or an allocation its own bytes
	// cannot back. Every width is at most the parameter count, so the
	// running sum cannot overflow.
	if len(f.Sizes) < 2 {
		return nil, fmt.Errorf("nn: model file has %d layer sizes, need at least 2", len(f.Sizes))
	}
	if a := Activation(f.Act); a != ActTanh && a != ActReLU {
		return nil, fmt.Errorf("nn: model file has unknown activation %d", f.Act)
	}
	params := 0
	for i, size := range f.Sizes {
		if size <= 0 || size > len(f.Flat) {
			return nil, fmt.Errorf("nn: model file layer %d has width %d for %d params", i, size, len(f.Flat))
		}
		if i > 0 {
			if params += f.Sizes[i-1]*size + size; params > len(f.Flat) {
				break
			}
		}
	}
	if params != len(f.Flat) {
		return nil, fmt.Errorf("nn: model file sizes %v do not match its %d params", f.Sizes, len(f.Flat))
	}
	m := NewMLP(f.Sizes, Activation(f.Act), rng.New(0))
	if err := m.Restore(f.Flat); err != nil {
		return nil, err
	}
	return m, nil
}
