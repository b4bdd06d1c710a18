package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"pet/internal/rng"
)

// numericalGrad estimates dL/dp for every parameter by central differences.
func numericalGrad(m *MLP, x []float64, loss func(y []float64) float64) []float64 {
	var grads []float64
	const h = 1e-6
	for _, group := range m.Params() {
		for i := range group {
			orig := group[i]
			group[i] = orig + h
			lp := loss(m.Forward(x))
			group[i] = orig - h
			lm := loss(m.Forward(x))
			group[i] = orig
			grads = append(grads, (lp-lm)/(2*h))
		}
	}
	return grads
}

func flatten(groups [][]float64) []float64 {
	var out []float64
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func TestMLPGradientCheck(t *testing.T) {
	r := rng.New(1)
	for _, act := range []Activation{ActTanh, ActReLU} {
		m := NewMLP([]int{3, 5, 2}, act, r)
		x := []float64{0.3, -0.7, 1.1}
		// L = Σ y_i².  dL/dy = 2y.
		loss := func(y []float64) float64 {
			s := 0.0
			for _, v := range y {
				s += v * v
			}
			return s
		}
		y := m.Forward(x)
		dy := make([]float64, len(y))
		for i, v := range y {
			dy[i] = 2 * v
		}
		m.ZeroGrad()
		m.Backward(dy)
		analytic := flatten(m.Grads())
		numeric := numericalGrad(m, x, loss)
		if len(analytic) != len(numeric) {
			t.Fatalf("grad length mismatch %d vs %d", len(analytic), len(numeric))
		}
		for i := range analytic {
			diff := math.Abs(analytic[i] - numeric[i])
			scale := math.Max(1, math.Abs(numeric[i]))
			if diff/scale > 1e-4 {
				t.Fatalf("act %d: grad %d mismatch: analytic %v numeric %v", act, i, analytic[i], numeric[i])
			}
		}
	}
}

func TestMLPBackwardInputGradient(t *testing.T) {
	r := rng.New(2)
	m := NewMLP([]int{2, 4, 1}, ActTanh, r)
	x := []float64{0.5, -0.2}
	loss := func(y []float64) float64 { return y[0] }
	m.Forward(x)
	m.ZeroGrad()
	dx := m.Backward([]float64{1})
	// Central differences on the input.
	const h = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		lp := loss(m.Forward(x))
		x[i] = orig - h
		lm := loss(m.Forward(x))
		x[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(dx[i]-num) > 1e-5 {
			t.Fatalf("dx[%d] = %v, numeric %v", i, dx[i], num)
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	r := rng.New(3)
	m := NewMLP([]int{2, 3, 1}, ActTanh, r)
	x1, x2 := []float64{1, 0}, []float64{0, 1}
	// Two backwards without ZeroGrad must sum gradients.
	m.Forward(x1)
	m.Backward([]float64{1})
	g1 := append([]float64(nil), flatten(m.Grads())...)
	m.ZeroGrad()
	m.Forward(x2)
	m.Backward([]float64{1})
	g2 := append([]float64(nil), flatten(m.Grads())...)
	m.ZeroGrad()
	m.Forward(x1)
	m.Backward([]float64{1})
	m.Forward(x2)
	m.Backward([]float64{1})
	gBoth := flatten(m.Grads())
	for i := range gBoth {
		if math.Abs(gBoth[i]-(g1[i]+g2[i])) > 1e-12 {
			t.Fatalf("accumulation broken at %d", i)
		}
	}
}

func TestAdamLearnsRegression(t *testing.T) {
	// y = 2a - 3b + 1, learnable by a linear model inside an MLP.
	r := rng.New(4)
	m := NewMLP([]int{2, 8, 1}, ActTanh, r)
	opt := NewAdam(0.01, m)
	data := r.Split("data")
	var lastLoss float64
	for epoch := 0; epoch < 2000; epoch++ {
		a, b := data.Float64()*2-1, data.Float64()*2-1
		target := 2*a - 3*b + 1
		y := m.Forward([]float64{a, b})
		diff := y[0] - target
		lastLoss = diff * diff
		m.Backward([]float64{2 * diff})
		opt.Step()
	}
	if lastLoss > 0.05 {
		t.Fatalf("regression did not converge: final loss %v", lastLoss)
	}
}

func TestAdamLearnsXOR(t *testing.T) {
	r := rng.New(5)
	m := NewMLP([]int{2, 8, 1}, ActTanh, r)
	opt := NewAdam(0.02, m)
	cases := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	for epoch := 0; epoch < 3000; epoch++ {
		for _, c := range cases {
			y := m.Forward([]float64{c[0], c[1]})
			diff := y[0] - c[2]
			m.Backward([]float64{2 * diff})
		}
		opt.Step()
	}
	for _, c := range cases {
		y := m.Forward([]float64{c[0], c[1]})[0]
		if math.Abs(y-c[2]) > 0.2 {
			t.Fatalf("XOR(%v,%v) = %v, want %v", c[0], c[1], y, c[2])
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	r := rng.New(6)
	m := NewMLP([]int{2, 2}, ActTanh, r)
	opt := NewAdam(0.01, m)
	m.Forward([]float64{100, 100})
	m.Backward([]float64{1000, 1000})
	pre := opt.ClipGradNorm(1.0)
	if pre <= 1 {
		t.Fatalf("pre-clip norm = %v, expected large", pre)
	}
	total := 0.0
	for _, g := range m.Grads() {
		for _, v := range g {
			total += v * v
		}
	}
	if math.Sqrt(total) > 1.0001 {
		t.Fatalf("post-clip norm = %v > 1", math.Sqrt(total))
	}
}

func TestSnapshotRestore(t *testing.T) {
	r := rng.New(7)
	m := NewMLP([]int{3, 4, 2}, ActTanh, r)
	x := []float64{0.1, 0.2, 0.3}
	want := append([]float64(nil), m.Forward(x)...)
	snap := m.Snapshot()

	// Perturb, then restore.
	for _, p := range m.Params() {
		for i := range p {
			p[i] += 1
		}
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := m.Forward(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("Restore did not reproduce outputs")
		}
	}
	if err := m.Restore(snap[:3]); err == nil {
		t.Fatal("short snapshot accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rng.New(8)
	m := NewMLP([]int{4, 6, 3}, ActReLU, r)
	x := []float64{1, -1, 0.5, 2}
	want := append([]float64(nil), m.Forward(x)...)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Forward(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("decoded model differs")
		}
	}
	if _, err := Decode([]byte("junk")); err == nil {
		t.Fatal("junk decoded without error")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	logits := []float64{1, 2, 3, 1000} // huge logit: stability check
	p := Softmax(logits, nil)
	sum := 0.0
	for _, v := range p {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("invalid prob %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v", sum)
	}
	if p[3] < 0.999 {
		t.Fatalf("dominant logit prob = %v", p[3])
	}
	// Uniform logits → uniform probs, max entropy.
	u := Softmax([]float64{5, 5, 5, 5}, nil)
	if math.Abs(u[0]-0.25) > 1e-12 {
		t.Fatalf("uniform softmax = %v", u)
	}
	if math.Abs(Entropy(u)-math.Log(4)) > 1e-9 {
		t.Fatalf("entropy = %v, want ln 4", Entropy(u))
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	r := rng.New(9)
	probs := []float64{0.1, 0.6, 0.3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(probs, r)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("class %d freq %v, want %v", i, got, p)
		}
	}
}

func TestLogProbFloor(t *testing.T) {
	if lp := LogProb([]float64{0, 1}, 0); math.IsInf(lp, -1) {
		t.Fatal("LogProb returned -Inf")
	}
	if lp := LogProb([]float64{0.5, 0.5}, 1); math.Abs(lp-math.Log(0.5)) > 1e-12 {
		t.Fatalf("LogProb = %v", lp)
	}
}

func TestSoftmaxBackwardGradCheck(t *testing.T) {
	// Check dL/dlogits for L = -log softmax(logits)[k] (the policy-gradient
	// core) against central differences.
	logits := []float64{0.2, -0.5, 1.3}
	k := 2
	loss := func(l []float64) float64 {
		p := Softmax(l, nil)
		return -math.Log(p[k])
	}
	p := Softmax(logits, nil)
	dProbs := make([]float64, len(p))
	dProbs[k] = -1 / p[k]
	dLogits := SoftmaxBackward(p, dProbs, nil)
	const h = 1e-6
	for i := range logits {
		orig := logits[i]
		logits[i] = orig + h
		lp := loss(logits)
		logits[i] = orig - h
		lm := loss(logits)
		logits[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(dLogits[i]-num) > 1e-5 {
			t.Fatalf("dlogits[%d] = %v, numeric %v", i, dLogits[i], num)
		}
	}
}

func TestMLPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1-size MLP accepted")
		}
	}()
	NewMLP([]int{3}, ActTanh, rng.New(1))
}

// Decode reads model files from bundles, i.e. from outside the process: a
// file whose architecture does not match its weights is an error, never a
// panic in NewMLP or an allocation its own bytes cannot back.
func TestDecodeRejectsMalformedArchitecture(t *testing.T) {
	valid := modelFile{Sizes: []int{2, 3, 1}, Act: int(ActTanh), Flat: make([]float64, 2*3+3+3*1+1)}
	for name, f := range map[string]modelFile{
		"no sizes":           {Flat: valid.Flat},
		"one size":           {Sizes: []int{3}, Flat: valid.Flat},
		"zero width":         {Sizes: []int{2, 0, 1}, Flat: valid.Flat},
		"negative width":     {Sizes: []int{2, -3, 1}, Flat: valid.Flat},
		"unknown activation": {Sizes: valid.Sizes, Act: 7, Flat: valid.Flat},
		"too few weights":    {Sizes: valid.Sizes, Flat: valid.Flat[1:]},
		"too many weights":   {Sizes: valid.Sizes, Flat: append(valid.Flat, 0)},
		"huge layers":        {Sizes: []int{1 << 40, 1 << 40}, Flat: valid.Flat},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(f); err != nil {
			t.Fatal(err)
		}
		if m, err := Decode(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded an MLP of sizes %v", name, m.Sizes())
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(valid); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf.Bytes()); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
}
