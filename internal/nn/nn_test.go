package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// gradCheck compares a layer's analytic input and parameter gradients
// against central finite differences of a scalar loss L = Σ c_i·y_i with
// random coefficients c.
func gradCheck(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	y := layer.Forward(x, true)
	coef := make([]float32, len(y.Data))
	for i := range coef {
		coef[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		out := layer.Forward(x, true)
		var l float64
		for i, v := range out.Data {
			l += float64(coef[i]) * float64(v)
		}
		return l
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	grad := tensor.FromSlice(coef, y.Shape...)
	dx := layer.Backward(grad)

	const eps = 1e-3
	// Check input gradient at a sample of positions.
	for trial := 0; trial < 12 && trial < len(x.Data); trial++ {
		i := rng.Intn(len(x.Data))
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(dx.Data[i])
		if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
			t.Errorf("%s: d/dx[%d] analytic %g vs numeric %g", layer.Name(), i, ana, num)
		}
	}
	// Check parameter gradients at a sample of positions. The cached
	// analytic gradients were accumulated by the Backward above; Forward
	// calls in loss() do not touch them.
	for _, p := range layer.Params() {
		for trial := 0; trial < 8 && trial < len(p.W.Data); trial++ {
			i := rng.Intn(len(p.W.Data))
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.G.Data[i])
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Errorf("%s: d/d%s[%d] analytic %g vs numeric %g", layer.Name(), p.Name, i, ana, num)
			}
		}
	}
}

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.RandN(rng, 1)
	return x
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", 7, 5, rng)
	gradCheck(t, l, randInput(rng, 3, 7), 1e-2)
}

func TestLinearForwardValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("fc", 2, 2, rng)
	copy(l.Weight.W.Data, []float32{1, 2, 3, 4})
	copy(l.Bias.W.Data, []float32{10, 20})
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	y := l.Forward(x, false)
	if y.Data[0] != 13 || y.Data[1] != 27 {
		t.Errorf("Linear forward = %v, want [13 27]", y.Data)
	}
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("conv", tensor.ConvGeom{
		InC: 3, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1, OutC: 4,
	}, true, rng)
	gradCheck(t, c, randInput(rng, 2, 3, 6, 6), 1e-2)
}

func TestConvStridedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D("conv", tensor.ConvGeom{
		InC: 2, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1, Groups: 1, OutC: 3,
	}, false, rng)
	gradCheck(t, c, randInput(rng, 2, 2, 7, 7), 1e-2)
}

func TestDepthwiseConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D("dwconv", tensor.ConvGeom{
		InC: 4, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4, OutC: 4,
	}, false, rng)
	gradCheck(t, c, randInput(rng, 2, 4, 6, 6), 1e-2)
}

// A batched Forward spreads samples over goroutines; every output
// element and every cached im2col matrix must be bit-identical to the
// serial one-sample Forward of the same image. Run under -race, this
// also checks that samples touch disjoint state.
func TestConvBatchedForwardMatchesPerSample(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // fan out on any host
	for _, geom := range []tensor.ConvGeom{
		{InC: 4, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1, Groups: 2, OutC: 6},
		{InC: 4, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 4, OutC: 4},
	} {
		rng := rand.New(rand.NewSource(int64(geom.Groups)))
		c := NewConv2D("conv", geom, true, rng)
		c.Bias.W.RandN(rng, 1)
		const batch = 9
		x := randInput(rng, batch, geom.InC, geom.InH, geom.InW)
		y := c.Forward(x, false)
		cols := c.lastCols
		per := len(y.Data) / batch
		in := len(x.Data) / batch
		for s := 0; s < batch; s++ {
			ys := c.Forward(tensor.FromSlice(x.Data[s*in:(s+1)*in], 1, geom.InC, geom.InH, geom.InW), false)
			for i, v := range ys.Data {
				if got := y.Data[s*per+i]; math.Float32bits(got) != math.Float32bits(v) {
					t.Fatalf("groups %d sample %d output %d: batched %v, alone %v", geom.Groups, s, i, got, v)
				}
			}
			for grp, want := range c.lastCols {
				got := cols[s*geom.Groups+grp]
				for i, v := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
						t.Fatalf("groups %d sample %d group %d: cached im2col differs at %d", geom.Groups, s, grp, i)
					}
				}
			}
		}
	}
}

func TestConvBadGroupsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for indivisible groups")
		}
	}()
	NewConv2D("bad", tensor.ConvGeom{InC: 3, InH: 4, InW: 4, KH: 1, KW: 1,
		Stride: 1, Groups: 2, OutC: 4}, false, rand.New(rand.NewSource(0)))
}

func TestReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gradCheck(t, NewReLU("relu"), randInput(rng, 4, 10), 1e-2)
}

func TestReLU6Caps(t *testing.T) {
	r := NewReLU6("relu6")
	x := tensor.FromSlice([]float32{-1, 3, 9}, 1, 3)
	y := r.Forward(x, false)
	if y.Data[0] != 0 || y.Data[1] != 3 || y.Data[2] != 6 {
		t.Errorf("ReLU6 forward = %v", y.Data)
	}
	g := r.Backward(tensor.FromSlice([]float32{1, 1, 1}, 1, 3))
	if g.Data[0] != 0 || g.Data[1] != 1 || g.Data[2] != 0 {
		t.Errorf("ReLU6 backward = %v", g.Data)
	}
}

func TestSigmoidGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gradCheck(t, NewSigmoid("sig"), randInput(rng, 3, 6), 1e-2)
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gradCheck(t, NewMaxPool2D("pool", 2, 2), randInput(rng, 2, 3, 6, 6), 1e-2)
}

func TestAvgPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gradCheck(t, NewAvgPool2D("pool", 2, 2), randInput(rng, 2, 3, 6, 6), 1e-2)
}

func TestGlobalAvgPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	gradCheck(t, NewGlobalAvgPool2D("gap"), randInput(rng, 2, 4, 5, 5), 1e-2)
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gradCheck(t, NewBatchNorm2D("bn", 3), randInput(rng, 4, 3, 4, 4), 2e-2)
}

func TestBatchNormTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bn := NewBatchNorm2D("bn", 2)
	x := randInput(rng, 8, 2, 4, 4)
	// Run training forward many times so running stats converge.
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	yTrain := bn.Forward(x, true)
	yEval := bn.Forward(x, false)
	var maxDiff float64
	for i := range yTrain.Data {
		d := math.Abs(float64(yTrain.Data[i] - yEval.Data[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.1 {
		t.Errorf("train/eval batch norm diverge by %v after stat convergence", maxDiff)
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bn := NewBatchNorm2D("bn", 1)
	x := randInput(rng, 16, 1, 4, 4)
	x.Scale(5)
	for i := range x.Data {
		x.Data[i] += 3
	}
	y := bn.Forward(x, true)
	var mean, sq float64
	for _, v := range y.Data {
		mean += float64(v)
	}
	mean /= float64(len(y.Data))
	for _, v := range y.Data {
		d := float64(v) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(y.Data)))
	if math.Abs(mean) > 1e-4 || math.Abs(std-1) > 1e-2 {
		t.Errorf("batch norm output mean %v std %v, want ~0/~1", mean, std)
	}
}

func TestResidualGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	body := NewSequential("body",
		NewConv2D("c1", tensor.ConvGeom{InC: 3, InH: 5, InW: 5, KH: 3, KW: 3,
			Stride: 1, Pad: 1, Groups: 1, OutC: 3}, true, rng),
	)
	gradCheck(t, NewResidual("res", body, nil), randInput(rng, 2, 3, 5, 5), 1e-2)
}

func TestResidualWithProjectionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	body := NewSequential("body",
		NewConv2D("c1", tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3,
			Stride: 2, Pad: 1, Groups: 1, OutC: 4}, true, rng),
	)
	proj := NewConv2D("proj", tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 1, KW: 1,
		Stride: 2, Pad: 0, Groups: 1, OutC: 4}, true, rng)
	gradCheck(t, NewResidual("res", body, proj), randInput(rng, 2, 2, 6, 6), 1e-2)
}

func TestSEBlockGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	gradCheck(t, NewSEBlock("se", 4, 2, rng), randInput(rng, 2, 4, 4, 4), 2e-2)
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("flat")
	x := tensor.New(2, 3, 4, 4)
	y := f.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 48 {
		t.Fatalf("flatten shape = %v", y.Shape)
	}
	g := f.Backward(y)
	if len(g.Shape) != 4 || g.Shape[3] != 4 {
		t.Fatalf("unflatten shape = %v", g.Shape)
	}
}

func TestDropout(t *testing.T) {
	d := NewDropout("drop", 0.5, 42)
	x := tensor.New(1, 1000)
	x.Fill(1)
	y := d.Forward(x, true)
	zeros := 0
	var sum float64
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		}
		sum += float64(v)
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropout zeroed %d of 1000 at p=0.5", zeros)
	}
	// Inverted dropout keeps the expected activation sum.
	if sum < 800 || sum > 1200 {
		t.Errorf("dropout sum %v, want ~1000", sum)
	}
	// Backward masks the same positions.
	g := d.Backward(y)
	for i := range g.Data {
		if (y.Data[i] == 0) != (g.Data[i] == 0) {
			t.Fatal("dropout backward mask mismatch")
		}
	}
	// Eval mode is identity.
	ye := d.Forward(x, false)
	for _, v := range ye.Data {
		if v != 1 {
			t.Fatal("dropout eval mode should be identity")
		}
	}
	if ge := d.Backward(ye); ge.Data[0] != 1 {
		t.Fatal("dropout eval backward should be identity")
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 1, 1, 1}, 2, 2)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Errorf("uniform logits loss = %v, want ln 2", loss)
	}
	// Gradient rows sum to zero.
	if math.Abs(float64(grad.Data[0]+grad.Data[1])) > 1e-6 {
		t.Errorf("grad row does not sum to 0: %v", grad.Data[:2])
	}
}

func TestSoftmaxCrossEntropyGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	logits := randInput(rng, 3, 5)
	targets := []int{1, 4, 0}
	_, grad := SoftmaxCrossEntropy(logits, targets)
	const eps = 1e-3
	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(len(logits.Data))
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, targets)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, targets)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 1e-3 {
			t.Errorf("CE grad[%d] analytic %v vs numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	p := Softmax(randInput(rng, 4, 7))
	for s := 0; s < 4; s++ {
		var sum float64
		for j := 0; j < 7; j++ {
			sum += float64(p.Data[s*7+j])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("softmax row %d sums to %v", s, sum)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	if a := Accuracy(logits, []int{0, 1}); a != 1 {
		t.Errorf("Accuracy = %v, want 1", a)
	}
	if a := Accuracy(logits, []int{1, 0}); a != 0 {
		t.Errorf("Accuracy = %v, want 0", a)
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	e := NewEmbedding("emb", 10, 4, rng)
	out := e.Forward([]int{3, 3, 7})
	for j := 0; j < 4; j++ {
		if out.Data[j] != out.Data[4+j] {
			t.Fatal("same token should yield identical embeddings")
		}
	}
	grad := tensor.New(3, 4)
	grad.Fill(1)
	e.Backward(grad)
	if e.Weight.G.Data[3*4] != 2 { // token 3 appears twice
		t.Errorf("embedding grad for repeated token = %v, want 2", e.Weight.G.Data[3*4])
	}
	if e.Weight.G.Data[7*4] != 1 {
		t.Errorf("embedding grad = %v, want 1", e.Weight.G.Data[7*4])
	}
	if e.Weight.G.Data[0] != 0 {
		t.Error("untouched token row has gradient")
	}
}

// LSTM gradient check: both parameter and input gradients against finite
// differences of a random linear loss over the output sequence.
func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	l := NewLSTM("lstm", 3, 4, rng)
	x := randInput(rng, 5, 2, 3) // T=5, B=2, In=3
	coef := make([]float32, 5*2*4)
	for i := range coef {
		coef[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		out := l.Forward(x)
		var s float64
		for i, v := range out.Data {
			s += float64(coef[i]) * float64(v)
		}
		return s
	}
	l.Forward(x)
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	dx := l.Backward(tensor.FromSlice(coef, 5, 2, 4))
	const eps = 1e-3
	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(len(x.Data))
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dx.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Errorf("LSTM d/dx[%d] analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
	for _, p := range l.Params() {
		for trial := 0; trial < 6; trial++ {
			i := rng.Intn(len(p.W.Data))
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(p.G.Data[i])) > 1e-2*(1+math.Abs(num)) {
				t.Errorf("LSTM d/d%s[%d] analytic %v vs numeric %v", p.Name, i, p.G.Data[i], num)
			}
		}
	}
}

func TestSGDReducesLossOnRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	model := NewSequential("mlp",
		NewLinear("fc1", 4, 16, rng),
		NewReLU("r1"),
		NewLinear("fc2", 16, 1, rng),
	)
	opt := NewSGD(0.05, 0.9, 0)
	// Fit y = sum(x).
	x := randInput(rng, 32, 4)
	target := make([]float32, 32)
	for s := 0; s < 32; s++ {
		for j := 0; j < 4; j++ {
			target[s] += x.Data[s*4+j]
		}
	}
	lossAt := func() float64 {
		y := model.Forward(x, false)
		var l float64
		for s := 0; s < 32; s++ {
			d := float64(y.Data[s] - target[s])
			l += d * d
		}
		return l / 32
	}
	initial := lossAt()
	for epoch := 0; epoch < 200; epoch++ {
		model.ZeroGrad()
		y := model.Forward(x, true)
		grad := tensor.New(32, 1)
		for s := 0; s < 32; s++ {
			grad.Data[s] = 2 * (y.Data[s] - target[s]) / 32
		}
		model.Backward(grad)
		opt.Step(model.Params())
	}
	final := lossAt()
	if final > initial/10 {
		t.Errorf("SGD failed to fit: initial %v final %v", initial, final)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	l := NewLinear("fc", 3, 1, rng)
	opt := NewAdam(0.05, 0)
	x := randInput(rng, 16, 3)
	for epoch := 0; epoch < 400; epoch++ {
		l.Weight.ZeroGrad()
		l.Bias.ZeroGrad()
		y := l.Forward(x, true)
		grad := tensor.New(16, 1)
		for s := 0; s < 16; s++ {
			grad.Data[s] = 2 * (y.Data[s] - 5)
		}
		l.Backward(grad)
		opt.Step(l.Params())
	}
	y := l.Forward(x, false)
	for s := 0; s < 16; s++ {
		if math.Abs(float64(y.Data[s]-5)) > 0.5 {
			t.Fatalf("Adam failed to fit constant: %v", y.Data[s])
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", true, 2)
	p.G.Data[0] = 3
	p.G.Data[1] = 4
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Errorf("pre-clip norm = %v", norm)
	}
	var after float64
	for _, g := range p.G.Data {
		after += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(after)-1) > 1e-5 {
		t.Errorf("post-clip norm = %v, want 1", math.Sqrt(after))
	}
	// Below the threshold, gradients are untouched.
	p.G.Data[0], p.G.Data[1] = 0.3, 0.4
	ClipGradNorm([]*Param{p}, 1)
	if p.G.Data[0] != 0.3 {
		t.Error("clip modified small gradients")
	}
}

func TestSequentialParamsAndZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := NewSequential("net",
		NewLinear("fc1", 2, 3, rng),
		NewReLU("r"),
		NewLinear("fc2", 3, 2, rng),
	)
	ps := s.Params()
	if len(ps) != 4 {
		t.Fatalf("got %d params, want 4", len(ps))
	}
	ps[0].G.Fill(5)
	s.ZeroGrad()
	if ps[0].G.Data[0] != 0 {
		t.Error("ZeroGrad did not clear gradients")
	}
	if s.Name() != "net" {
		t.Error("Sequential name")
	}
}

func TestSoftmaxCrossEntropyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(2, 3), []int{0})
}
