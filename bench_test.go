// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark per artifact, plus microbenchmarks of the
// primitives (HESE encoding, receding-water revealing, tMAC processing).
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/demoplan"
	"repro/internal/experiments"
	"repro/internal/hw/systolic"
	"repro/internal/hw/tmac"
	"repro/internal/intinfer"
	"repro/internal/kernels/autotune"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/qsim"
	"repro/internal/term"
)

func TestMain(m *testing.M) {
	// Keep the artifact benchmarks tractable on one core; cmd/trbench
	// without -quick uses the full DefaultScale.
	experiments.SetScale(experiments.Scale{
		DigitsTrain: 600, DigitsTest: 250,
		ImagesTrain: 320, ImagesTest: 160,
		CNNEpochs:     3,
		LMTrainTokens: 5000, LMValid: 1000,
		LMEpochs: 1,
	})
	// Plan builds tune tiles against a temporary cache, so the tests and
	// benchmarks neither write under the home directory nor read picks
	// an earlier run left there.
	dir, err := os.MkdirTemp("", "trq-autotune-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := 1
	if err := os.Setenv("TRQ_AUTOTUNE_CACHE", filepath.Join(dir, "autotune.json")); err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// --- One benchmark per paper artifact ---

func BenchmarkFig3TermDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5TermPairHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8cEncodingCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8c(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15MLPSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig15MLP()
	}
}

func BenchmarkFig15CNNSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig15CNN("resnet"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15LSTMSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig15LSTM()
	}
}

func BenchmarkFig16GroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17Isolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18QuantError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig18(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19SystemGains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RenderFig19(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIControlRegisters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIMACResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableII()
	}
}

func BenchmarkTableIIIMACComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIV(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Primitive microbenchmarks ---

func BenchmarkEncodeBinary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		term.EncodeBinary(int32(i&255 - 127))
	}
}

func BenchmarkEncodeBooth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		term.EncodeBooth(int32(i&255 - 127))
	}
}

func BenchmarkEncodeHESE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		term.EncodeHESE(int32(i&255 - 127))
	}
}

func BenchmarkCountTermsHESE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		term.CountTerms(int32(i&255-127), term.HESE)
	}
}

func BenchmarkRevealGroup8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int32, 8)
	for i := range vals {
		vals[i] = int32(rng.Intn(255) - 127)
	}
	group := make([]term.Expansion, len(vals))
	for i, v := range vals {
		group[i] = term.EncodeHESE(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Reveal(group, 12)
	}
}

func BenchmarkRevealValues1K(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int32, 1024)
	for i := range vals {
		vals[i] = int32(rng.Intn(255) - 127)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RevealValues(vals, term.HESE, 8, 12)
	}
}

func BenchmarkTMACGroup8(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	w := make([]int32, 8)
	x := make([]int32, 8)
	for i := range w {
		w[i] = int32(rng.Intn(255) - 127)
		x[i] = int32(rng.Intn(128))
	}
	wExp, _ := core.RevealValues(w, term.HESE, 8, 12)
	xExp, _ := core.TruncateData(x, term.HESE, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := tmac.NewTMAC(wExp)
		if _, err := cell.ProcessGroup(xExp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPMACGroup8(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	w := make([]int32, 8)
	x := make([]int32, 8)
	for i := range w {
		w[i] = int32(rng.Intn(255) - 127)
		x[i] = int32(rng.Intn(128))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := tmac.NewPMAC(w)
		if _, err := cell.ProcessGroup(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSystolicTMAC64x256(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	w := make([][]int32, 64)
	for i := range w {
		w[i] = make([]int32, 256)
		for j := range w[i] {
			w[i][j] = int32(rng.Intn(255) - 127)
		}
	}
	x := make([][]int32, 256)
	for i := range x {
		x[i] = make([]int32, 8)
		for j := range x[i] {
			x[i][j] = int32(rng.Intn(128))
		}
	}
	cfg := systolic.Config{Rows: 16, Cols: 8, Mode: systolic.TMAC,
		GroupSize: 8, GroupBudget: 12, DataTerms: 3,
		WeightEnc: term.HESE, DataEnc: term.HESE}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := systolic.MatMul(cfg, w, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSDRMinimize(b *testing.B) {
	e := term.EncodeBoothRadix2(0x5A5A)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		term.MinimizeSDR(e)
	}
}

func BenchmarkIntegerInferenceMLP(b *testing.B) {
	train := datasets.DigitsNoisy(400, 0.2, 91)
	test := datasets.DigitsNoisy(64, 0.2, 92)
	m := models.NewMLP(64, 93)
	cfg := models.DefaultTrain
	cfg.Epochs = 2
	models.Train(m, train, cfg)
	plan, err := intinfer.Build(m, intinfer.Options{
		Calibration: train.Images[:32], GroupSize: 8, GroupBudget: 12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.InferBatch(test.Images); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegerInferenceCNN(b *testing.B) {
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	all := datasets.ImageClassesHard(120, g.Classes, g.InC, g.InH, g.InW, 0.4, 0.4, 96)
	train, test := all.Split(88)
	m := models.NewResNetStyle(g, 97)
	cfg := models.DefaultTrain
	cfg.Epochs = 1
	models.Train(m, train, cfg)
	qsim.FoldBatchNorm(m)
	plan, err := intinfer.Build(m, intinfer.Options{
		Calibration: train.Images[:32], GroupSize: 8, GroupBudget: 12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.InferBatch(test.Images); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFamilyBuild times the cold compile trserve pays at boot and on
// every reload: .trq bytes → artifact.DecodeModel →
// demoplan.FamilyFromModel over the default budget ladder, with a fresh
// autotune cache each iteration so tile tuning is paid every time.
func benchFamilyBuild(b *testing.B, name string) {
	m, hidden, _, err := demoplan.ModelByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := artifact.WriteModel(&buf, m, hidden, artifact.WriteOptions{
		GroupSize: demoplan.QuantGroupSize, GroupBudget: demoplan.QuantGroupBudget}); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.Cleanup(autotune.Reset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.Setenv("TRQ_AUTOTUNE_CACHE", filepath.Join(dir, fmt.Sprintf("autotune-%d.json", i)))
		autotune.Reset()
		rm, _, err := artifact.DecodeModel(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := demoplan.FamilyFromModel(rm, nil, demoplan.DefaultBudgets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFamilyBuildMLP(b *testing.B) { benchFamilyBuild(b, "mlp") }

func BenchmarkFamilyBuildCNN(b *testing.B) { benchFamilyBuild(b, "cnn") }

// BenchmarkIntegerInferenceCNNObs is the observability-enabled twin of
// BenchmarkIntegerInferenceCNN: same model, same batch, with a live
// registry collecting step latencies, dispatch counts, and arena
// gauges. Comparing the two (`go test -bench 'IntegerInferenceCNN'`)
// measures the enabled-path cost; the disabled path is the plain
// benchmark itself, which must stay within 2% of the seed (the hot loop
// only gained nil-checks — see DESIGN.md §9 for measured figures).
func BenchmarkIntegerInferenceCNNObs(b *testing.B) {
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	all := datasets.ImageClassesHard(120, g.Classes, g.InC, g.InH, g.InW, 0.4, 0.4, 96)
	train, test := all.Split(88)
	m := models.NewResNetStyle(g, 97)
	cfg := models.DefaultTrain
	cfg.Epochs = 1
	models.Train(m, train, cfg)
	qsim.FoldBatchNorm(m)
	reg := obs.New()
	plan, err := intinfer.Build(m, intinfer.Options{
		Calibration: train.Images[:32], GroupSize: 8, GroupBudget: 12, Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.InferBatch(test.Images); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegerInferenceMLPObs(b *testing.B) {
	train := datasets.DigitsNoisy(400, 0.2, 91)
	test := datasets.DigitsNoisy(64, 0.2, 92)
	m := models.NewMLP(64, 93)
	cfg := models.DefaultTrain
	cfg.Epochs = 2
	models.Train(m, train, cfg)
	reg := obs.New()
	plan, err := intinfer.Build(m, intinfer.Options{
		Calibration: train.Images[:32], GroupSize: 8, GroupBudget: 12, Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.InferBatch(test.Images); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSystolicParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(94))
	w := make([][]int32, 64)
	for i := range w {
		w[i] = make([]int32, 128)
		for j := range w[i] {
			w[i][j] = int32(rng.Intn(255) - 127)
		}
	}
	x := make([][]int32, 128)
	for i := range x {
		x[i] = make([]int32, 8)
		for j := range x[i] {
			x[i][j] = int32(rng.Intn(128))
		}
	}
	cfg := systolic.Config{Rows: 16, Cols: 8, Mode: systolic.TMAC,
		GroupSize: 8, GroupBudget: 12, DataTerms: 3,
		WeightEnc: term.HESE, DataEnc: term.HESE}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := systolic.MatMulParallel(cfg, w, x, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTMACPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(95))
	wv := make([]int32, 8)
	xv := make([]int32, 8)
	for i := range wv {
		wv[i] = int32(rng.Intn(255) - 127)
		xv[i] = int32(rng.Intn(128))
	}
	wExp, _ := core.RevealValues(wv, term.HESE, 8, 12)
	xExp, _ := core.TruncateData(xv, term.HESE, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regs, err := tmac.LoadGroup(wExp, xExp)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tmac.NewPipeline(regs).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
