package intinfer

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// The lane-differential test. Each trial draws a seeded random
// geometry, compiles it twice — once as Build leaves it, once forced
// onto the direct 64-bit reference (forceDirect) — and requires every
// surviving lane to reproduce the reference bit for bit:
//
//	gemm8     packed int8 GEMM, every convolution
//	gemv_f64  float64 GEMV, linears on the general per-image path
//	express   float64 GEMV, all-linear plans one image at a time
//	linear8   packed int8 GEMM, all-linear micro-batches of 2+ images
//
// Each lane's check reads its trq_intinfer_dispatch_total{path=…}
// counter afterwards, so a lane that silently stopped being dispatched
// fails the test instead of passing it vacuously.

// lanePaths are the dispatch lanes a plan can take, in the order the
// dispatch counter registers them.
var lanePaths = []string{"gemm8", "gemv_f64", "direct", "express", "linear8"}

// dispatched reads every lane's dispatch counter from reg.
func dispatched(reg *obs.Registry) map[string]int64 {
	n := make(map[string]int64, len(lanePaths))
	for _, path := range lanePaths {
		n[path] = reg.Counter("trq_intinfer_dispatch_total", "path", path).Value()
	}
	return n
}

// laneGen draws random layers with unique names and random biases (the
// constructors start biases at zero, which would leave the bias fold
// untested).
type laneGen struct {
	rng *rand.Rand
	n   int
}

func (g *laneGen) name(kind string) string {
	g.n++
	return fmt.Sprintf("%s%d", kind, g.n)
}

func (g *laneGen) randomize(bias *nn.Param) {
	for i := range bias.W.Data {
		bias.W.Data[i] = float32(g.rng.NormFloat64() * 0.2)
	}
}

func (g *laneGen) conv(inC, h, w, outC, kh, kw, stride, pad, groups int) *nn.Conv2D {
	c := nn.NewConv2D(g.name("conv"), tensor.ConvGeom{InC: inC, InH: h, InW: w,
		KH: kh, KW: kw, Stride: stride, Pad: pad, Groups: groups, OutC: outC}, true, g.rng)
	g.randomize(c.Bias)
	return c
}

func (g *laneGen) linear(in, out int) *nn.Linear {
	l := nn.NewLinear(g.name("fc"), in, out, g.rng)
	g.randomize(l.Bias)
	return l
}

// relu returns a plain ReLU, a capped one, or nothing, so fused and
// unfused activations and the relu6 clamp window all occur.
func (g *laneGen) relu() []nn.Layer {
	switch g.rng.Intn(3) {
	case 0:
		return []nn.Layer{nn.NewReLU(g.name("relu"))}
	case 1:
		return []nn.Layer{nn.NewReLU6(g.name("relu6"))}
	}
	return nil
}

// divisor returns a random divisor of n.
func (g *laneGen) divisor(n int) int {
	var ds []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds[g.rng.Intn(len(ds))]
}

// convModel draws a small CNN: two to four blocks, each a plain conv
// (grouped, stride and padding up to 3 — padding as wide as the kernel
// or wider included — any kernel from 1×1 to 5×5, odd and even),
// a depthwise conv, or a residual block with an identity or a projection
// shortcut, then a GAP or flatten head into one or two linears.
func (g *laneGen) convModel() *models.ImageModel {
	rng := g.rng
	c, h, w := 1+rng.Intn(4), 5+rng.Intn(6), 5+rng.Intn(6)
	m := &models.ImageModel{Name: "lane-cnn", InC: c, InH: h, InW: w, Classes: 2 + rng.Intn(5)}
	var layers []nn.Layer
	for blocks := 2 + rng.Intn(3); blocks > 0; blocks-- {
		switch block := rng.Intn(4); block {
		case 0: // plain, possibly grouped; padding may reach the kernel
			pad := rng.Intn(4)
			kh, kw := 1+rng.Intn(min(5, h+2*pad)), 1+rng.Intn(min(5, w+2*pad))
			groups := g.divisor(c)
			outC := groups * (1 + rng.Intn(max(1, 8/groups)))
			cv := g.conv(c, h, w, outC, kh, kw, 1+rng.Intn(3), pad, groups)
			layers = append(layers, cv)
			c, h, w = outC, cv.Geom.OutH, cv.Geom.OutW
		case 1: // depthwise
			k := 1 + 2*rng.Intn(2)
			cv := g.conv(c, h, w, c, k, k, 1+rng.Intn(3), k/2, c)
			layers = append(layers, cv)
			h, w = cv.Geom.OutH, cv.Geom.OutW
		default: // residual: 2 keeps the shape for an identity shortcut
			stride, outC := 1, c
			if block == 3 {
				stride, outC = 1+rng.Intn(2), 1+rng.Intn(8)
			}
			k1, k2 := 1+2*rng.Intn(3), 1+2*rng.Intn(2)
			c1 := g.conv(c, h, w, outC, k1, k1, stride, k1/2, 1)
			oh, ow := c1.Geom.OutH, c1.Geom.OutW
			body := []nn.Layer{c1}
			body = append(body, g.relu()...)
			body = append(body, g.conv(outC, oh, ow, outC, k2, k2, 1, k2/2, g.divisor(outC)))
			var proj nn.Layer // a nil interface: the identity shortcut
			if stride != 1 || outC != c {
				proj = nn.NewSequential(g.name("proj"), g.conv(c, h, w, outC, 1, 1, stride, 0, 1))
			}
			layers = append(layers, nn.NewResidual(g.name("res"),
				nn.NewSequential(g.name("body"), body...), proj))
			c, h, w = outC, oh, ow
		}
		layers = append(layers, g.relu()...)
		if h >= 4 && w >= 4 && rng.Intn(4) == 0 {
			layers = append(layers, nn.NewMaxPool2D(g.name("pool"), 2, 2))
			h, w = (h-2)/2+1, (w-2)/2+1
		}
	}
	in := c * h * w
	if rng.Intn(2) == 0 {
		layers = append(layers, nn.NewGlobalAvgPool2D(g.name("gap")))
		in = c
	} else {
		layers = append(layers, nn.NewFlatten(g.name("flatten")))
	}
	if rng.Intn(2) == 0 {
		hidden := 1 + rng.Intn(40)
		layers = append(layers, g.linear(in, hidden))
		layers = append(layers, g.relu()...)
		in = hidden
	}
	layers = append(layers, g.linear(in, m.Classes))
	m.Net = nn.NewSequential("net", layers...)
	return m
}

// mlpModel draws an all-linear model: a 1×h×w input (4 to 144 values)
// through one to three hidden layers of 1 to 300 units.
func (g *laneGen) mlpModel() *models.ImageModel {
	rng := g.rng
	h, w := 2+rng.Intn(11), 2+rng.Intn(11)
	m := &models.ImageModel{Name: "lane-mlp", InC: 1, InH: h, InW: w, Classes: 2 + rng.Intn(11)}
	layers := []nn.Layer{nn.NewFlatten(g.name("flatten"))}
	in := h * w
	for hidden := 1 + rng.Intn(3); hidden > 0; hidden-- {
		out := 1 + rng.Intn(300)
		layers = append(layers, g.linear(in, out))
		layers = append(layers, g.relu()...)
		in = out
	}
	layers = append(layers, g.linear(in, m.Classes))
	m.Net = nn.NewSequential("net", layers...)
	return m
}

// laneOptions draws compile options: plain 8-bit codes or a
// term-revealed budget, and a wide intra-image worker budget.
func (g *laneGen) laneOptions(calib [][]float32) Options {
	opts := Options{Calibration: calib, IntraWorkers: 3}
	if g.rng.Intn(2) == 0 {
		opts.GroupSize, opts.GroupBudget = 8, 4+g.rng.Intn(9)
	}
	return opts
}

// randomTiles gives every packed step a random blocking geometry:
// tiles never change results, so any of them must still match direct.
func randomTiles(rng *rand.Rand, steps []step) {
	tiles := []kernels.Tile{{}, {MR: 4}, {MR: 8}, {MR: 16}}
	for i := range steps {
		st := &steps[i]
		if st.pack8 != nil || st.pack8lin != nil {
			st.tile = tiles[rng.Intn(len(tiles))]
		}
		randomTiles(rng, st.body)
		randomTiles(rng, st.proj)
	}
}

// countKind reports how many steps of kind k a chain holds, and how
// many of those carry packed conv panels.
func countKind(steps []step, k kind) (n, packed int) {
	for i := range steps {
		st := &steps[i]
		if st.kind == k {
			n++
			if st.pack8 != nil {
				packed++
			}
		}
		for _, sub := range [][]step{st.body, st.proj} {
			a, b := countKind(sub, k)
			n, packed = n+a, packed+b
		}
	}
	return n, packed
}

// lanePair builds the plan twice from one model: fast as Build leaves it
// (wired to its own registry, with random tiles) and direct forced onto
// the reference paths.
func lanePair(t *testing.T, rng *rand.Rand, m *models.ImageModel, opts Options) (fast, direct *Plan, reg *obs.Registry) {
	t.Helper()
	reg = obs.New()
	opts.Obs = reg
	fast, err := Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	randomTiles(rng, fast.steps)
	opts.Obs = nil
	direct, err = Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	forceDirect(direct)
	return fast, direct, reg
}

func TestLanesMatchDirect(t *testing.T) {
	t.Setenv("TRQ_AUTOTUNE", "off") // randomTiles covers the tile space
	old := intraMinWork
	defer func() { intraMinWork = old }()

	rng := rand.New(rand.NewSource(2024))
	g := &laneGen{rng: rng}
	for trial := 0; trial < 32; trial++ {
		// Odd trials force the intra-image row fan-out on every layer so
		// the chunk workers run under the race detector too.
		intraMinWork = old
		if trial%2 == 1 {
			intraMinWork = 1
		}
		t.Run(fmt.Sprintf("conv%d", trial), func(t *testing.T) { laneConvTrial(t, rng, g) })
		t.Run(fmt.Sprintf("mlp%d", trial), func(t *testing.T) { laneMLPTrial(t, rng, g) })
	}
}

// laneConvTrial checks gemm8 (every conv) and the general-path
// gemv_f64 (the linear head) against direct.
func laneConvTrial(t *testing.T, rng *rand.Rand, g *laneGen) {
	m := g.convModel()
	ds := datasets.ImageClasses(24, m.Classes, m.InC, m.InH, m.InW, rng.Int63())
	fast, direct, reg := lanePair(t, rng, m, g.laneOptions(ds.Images[:16]))
	convs, packed := countKind(fast.steps, kindConv)
	if convs == 0 || packed != convs {
		t.Fatalf("%d of %d convs admitted to the packed path, want all", packed, convs)
	}
	assertSameLogits(t, fast, direct, ds.Images[16:], "conv")
	n := dispatched(reg)
	images := int64(len(ds.Images[16:]))
	linears, _ := countKind(fast.steps, kindLinear)
	if n["gemm8"] < int64(convs)*images || n["gemv_f64"] != int64(linears)*images {
		t.Fatalf("dispatch %v: want ≥ %d gemm8 and %d gemv_f64 calls", n, int64(convs)*images, int64(linears)*images)
	}
	if n["direct"] != 0 || n["express"] != 0 || n["linear8"] != 0 {
		t.Fatalf("dispatch %v: a conv plan took a lane it does not own", n)
	}
}

// laneMLPTrial checks the express lane, the general-path gemv_f64
// (express dispatch switched off) and linear8 at batch sizes around the
// panel width and the chunk width against direct.
func laneMLPTrial(t *testing.T, rng *rand.Rand, g *laneGen) {
	m := g.mlpModel()
	ds := datasets.ImageClasses(16+2*linear8Cols, m.Classes, m.InC, m.InH, m.InW, rng.Int63())
	calib, test := ds.Images[:16], ds.Images[16:]
	opts := g.laneOptions(calib)
	fast, direct, reg := lanePair(t, rng, m, opts)
	// Every linear8 plan must be expressible (kernels.AccumFitsU8 ⇒
	// kernels.ExactF64): linear8Chunk sends a lone image to runExpress.
	if !fast.express || !fast.linear8 {
		t.Fatalf("MLP plan express=%v linear8=%v, want both", fast.express, fast.linear8)
	}
	linears, _ := countKind(fast.steps, kindLinear)

	// express: one image at a time.
	assertSameLogits(t, fast, direct, test[:8], "express")
	if n := dispatched(reg); n["express"] != 8 || n["gemv_f64"] != int64(8*linears) {
		t.Fatalf("dispatch %v after 8 express images: want 8 express, %d gemv_f64", n, 8*linears)
	}

	// gemv_f64 on the general path: the same kernels, dispatched step by
	// step through execLinear.
	semiReg := obs.New()
	opts.Obs = semiReg
	semi, err := Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	semi.express = false
	assertSameLogits(t, semi, direct, test[:8], "gemv_f64")
	if n := dispatched(semiReg); n["gemv_f64"] != int64(8*linears) || n["express"] != 0 || n["direct"] != 0 {
		t.Fatalf("dispatch %v on the general path: want %d gemv_f64 and nothing else", n, 8*linears)
	}

	// linear8: predictions at every batch size through both batch
	// drivers, and the logits of every batched chunk read straight off
	// the lane's code matrix.
	want := make([]int, len(test))
	for i, img := range test {
		cls, err := direct.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cls
	}
	for _, b := range []int{1, 2, 7, 8, 65} {
		before := dispatched(reg)
		got, err := fast.InferBatch(test[:b])
		if err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
		par, err := fast.InferBatchParallel(test[:b], 2)
		if err != nil {
			t.Fatalf("b=%d parallel: %v", b, err)
		}
		for i := range got {
			if got[i] != want[i] || par[i] != want[i] {
				t.Fatalf("b=%d image %d: serial %d, parallel %d, direct %d", b, i, got[i], par[i], want[i])
			}
		}
		// Chunks of one image take express; every wider chunk linear8.
		chunks, singles := 0, 0
		for off := 0; off < b; off += linear8Cols {
			if b-off == 1 {
				singles++
			} else {
				chunks++
			}
		}
		after := dispatched(reg)
		if d := after["linear8"] - before["linear8"]; d != int64(2*chunks*linears) {
			t.Fatalf("b=%d: %d linear8 dispatches, want %d", b, d, 2*chunks*linears)
		}
		if d := after["express"] - before["express"]; d != int64(2*singles) {
			t.Fatalf("b=%d: %d express dispatches, want %d", b, d, 2*singles)
		}
		if b > 1 && b <= linear8Cols {
			for j, logits := range linear8Logits(t, fast, test[:b]) {
				dl, _, err := direct.Infer(test[j])
				if err != nil {
					t.Fatal(err)
				}
				for r := range dl {
					if logits[r] != dl[r] {
						t.Fatalf("b=%d image %d logit %d: linear8 %v, direct %v", b, j, r, logits[r], dl[r])
					}
				}
			}
		}
	}
	if n := dispatched(reg); n["direct"] != 0 || n["gemm8"] != 0 {
		t.Fatalf("dispatch %v: an MLP plan took a lane it does not own", n)
	}
}

// linear8Logits runs one chunk of 2 ≤ b ≤ linear8Cols images through
// the batched lane and returns every image's logits, read from the
// lane's final code matrix the way Infer scales codes.
func linear8Logits(t *testing.T, p *Plan, images [][]float32) [][]float32 {
	t.Helper()
	s := p.scratch(1, nil)
	b := len(images)
	err := p.linear8Chunk(images, make([]int, b), s)
	out := make([][]float32, b)
	for j := range out {
		out[j] = make([]float32, p.classes)
		for r := range out[j] {
			out[j][r] = float32(s.lin32[r*b+j]) * p.outScale
		}
	}
	p.released(s)
	p.arena.Put(s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDispatchPathsRegistered pins the lane set: the dispatch counter
// registers exactly one series per surviving lane.
func TestDispatchPathsRegistered(t *testing.T) {
	m, train, _ := trainedMLP(t)
	reg := obs.New()
	if _, err := Build(m, Options{Calibration: train.Images[:16], Obs: reg}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for key := range reg.Snapshot().Counters {
		if path, ok := strings.CutPrefix(key, `trq_intinfer_dispatch_total{path="`); ok {
			got = append(got, strings.TrimSuffix(path, `"}`))
		}
	}
	want := slices.Clone(lanePaths)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("dispatch paths %v, want exactly %v", got, want)
	}
}
