package intinfer

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/qsim"
)

// forceDirect rewrites a plan's steps to the golden fallback paths: conv
// and linear steps lose their packed panels and float64 copies, so exec
// takes execConvDirect / execLinearDirect with 64-bit accumulation.
func forceDirect(p *Plan) {
	p.express = false
	p.linear8 = false
	var walk func(steps []step)
	walk = func(steps []step) {
		for i := range steps {
			st := &steps[i]
			st.wf64 = nil
			st.bf64 = nil
			st.pack8 = nil
			st.pack8lin = nil
			if st.kind == kindResidual {
				walk(st.body)
				if st.proj != nil {
					walk(st.proj)
				}
			}
		}
	}
	walk(p.steps)
}

// buildPair builds the same model twice and downgrades one copy to the
// direct reference paths. Build is deterministic, so any divergence
// between the two plans' outputs is a kernel-path bug.
func buildPair(t *testing.T, m *models.ImageModel, opts Options) (fast, direct *Plan) {
	t.Helper()
	fast, err := Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err = Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	forceDirect(direct)
	return fast, direct
}

func assertSameLogits(t *testing.T, fast, direct *Plan, images [][]float32, label string) {
	t.Helper()
	for i, img := range images {
		fl, fc, err := fast.Infer(img)
		if err != nil {
			t.Fatalf("%s: fast path image %d: %v", label, i, err)
		}
		dl, dc, err := direct.Infer(img)
		if err != nil {
			t.Fatalf("%s: direct path image %d: %v", label, i, err)
		}
		if fc != dc {
			t.Fatalf("%s: image %d: fast class %d, direct class %d", label, i, fc, dc)
		}
		for j := range fl {
			if fl[j] != dl[j] {
				t.Fatalf("%s: image %d logit %d: fast %v, direct %v", label, i, j, fl[j], dl[j])
			}
		}
	}
}

// TestGemmPathMatchesDirectSweep is the golden equivalence sweep: conv
// architectures covering plain, strided, pooled, residual, grouped
// (depthwise) and 1x1 convolutions at randomized geometries, each
// checked bit-exact between the im2col+GEMM lowering and the direct
// 7-deep reference loop. The models are deliberately left untrained —
// random weights exercise the kernels just as hard, and only exact
// equality is asserted.
func TestGemmPathMatchesDirectSweep(t *testing.T) {
	type family struct {
		name  string
		build func(models.CNNGeom, int64) *models.ImageModel
	}
	families := []family{
		{"vgg", models.NewVGGStyle},
		{"resnet", models.NewResNetStyle},
		{"mobilenet", models.NewMobileNetStyle},
	}
	geoms := []models.CNNGeom{
		{InC: 1, InH: 8, InW: 8, Classes: 3},
		{InC: 3, InH: 8, InW: 8, Classes: 4},
		{InC: 2, InH: 9, InW: 7, Classes: 5}, // non-square, odd sizes
	}
	seed := int64(31)
	for _, fam := range families {
		for _, g := range geoms {
			seed++
			m := fam.build(g, seed)
			qsim.FoldBatchNorm(m)
			ds := datasets.ImageClasses(24, g.Classes, g.InC, g.InH, g.InW, seed+100)
			fast, direct := buildPair(t, m, Options{Calibration: ds.Images[:16]})
			assertSameLogits(t, fast, direct, ds.Images[16:24], fam.name)
		}
	}
}

// TestExpressLaneMatchesGeneralPath pins the all-linear express lane
// (float64 codes end to end) against the general integer path.
func TestExpressLaneMatchesGeneralPath(t *testing.T) {
	m, train, test := trainedMLP(t)
	fast, direct := buildPair(t, m, Options{Calibration: train.Images[:32]})
	if !fast.express {
		t.Fatal("MLP plan did not take the express lane")
	}
	assertSameLogits(t, fast, direct, test.Images[:32], "express")

	// The general (non-express) integer GEMV must also agree: disable
	// only the express dispatch but keep the f64 kernels.
	semi, err := Build(m, Options{Calibration: train.Images[:32]})
	if err != nil {
		t.Fatal(err)
	}
	semi.express = false
	assertSameLogits(t, semi, direct, test.Images[:32], "f64-linear")
}

// TestClassifySteadyStateAllocs pins the zero-allocation contract: after
// arena warmup, Classify must not touch the heap — for the express MLP
// lane and for the packed conv pipeline alike.
func TestClassifySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fakes misses under the race detector")
	}
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:32], IntraWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	img := test.Images[0]
	if _, err := plan.Classify(img); err != nil { // warm the arena
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := plan.Classify(img); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("express Classify allocates %.2f objects per call, want 0", n)
	}

	// The conv models size the padded-input and panel buffers from
	// different geometries: plain 3×3 stacks (VGG), 1×1 stride-2
	// projections (ResNet) and depthwise groups (MobileNet). A buffer
	// sized short of any step panics the run instead of allocating.
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	for _, cm := range []*models.ImageModel{
		models.NewVGGStyle(g, 41), models.NewResNetStyle(g, 41), models.NewMobileNetStyle(g, 41),
	} {
		qsim.FoldBatchNorm(cm)
		ds := datasets.ImageClasses(16, g.Classes, g.InC, g.InH, g.InW, 42)
		cplan, err := Build(cm, Options{Calibration: ds.Images, IntraWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if convs, packed := countKind(cplan.steps, kindConv); packed != convs {
			t.Fatalf("%s: %d of %d convs packed, want all", cm.Name, packed, convs)
		}
		if _, err := cplan.Classify(ds.Images[0]); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := cplan.Classify(ds.Images[0]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s Classify allocates %.2f objects per call, want 0", cm.Name, n)
		}
	}
}

// TestParallelPathsUnderContention exercises both parallelism levels at
// once — batch workers via InferBatchParallel and intra-image row
// partitioning forced on by dropping intraMinWork — so the race
// detector (tier-2) sees the full concurrent surface, and the results
// still match the serial path exactly.
func TestParallelPathsUnderContention(t *testing.T) {
	old := intraMinWork
	intraMinWork = 1 // force row fan-out on every layer
	defer func() { intraMinWork = old }()

	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:32], IntraWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plan.InferBatch(test.Images[:48])
	if err != nil {
		t.Fatal(err)
	}
	par, err := plan.InferBatchParallel(test.Images[:48], 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if par[i] != serial[i] {
			t.Fatalf("image %d: parallel %d, serial %d", i, par[i], serial[i])
		}
	}

	// A conv model walks the GEMM fan-out rather than the GEMV one.
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	cm := models.NewVGGStyle(g, 43)
	qsim.FoldBatchNorm(cm)
	ds := datasets.ImageClasses(32, g.Classes, g.InC, g.InH, g.InW, 44)
	cplan, err := Build(cm, Options{Calibration: ds.Images[:16], IntraWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cplan.InferBatch(ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cplan.InferBatchParallel(ds.Images, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs {
		if cp[i] != cs[i] {
			t.Fatalf("conv image %d: parallel %d, serial %d", i, cp[i], cs[i])
		}
	}
}

// TestParallelErrorStopsWorkers checks the first-error cancellation: a
// bad image early in a long batch must surface the error (and flip the
// shared stop flag the workers poll).
func TestParallelErrorStopsWorkers(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float32, 0, 120)
	batch = append(batch, make([]float32, 3)) // wrong size: fails immediately
	for len(batch) < 120 {
		batch = append(batch, test.Images[len(batch)%len(test.Images)])
	}
	if _, err := plan.InferBatchParallel(batch, 4); err == nil {
		t.Fatal("bad image did not surface an error")
	}
}
