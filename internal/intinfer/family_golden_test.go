package intinfer_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/artifact"
	"repro/internal/demoplan"
	"repro/internal/intinfer"
	"repro/internal/qsim"
)

// Every rung of both demo families, compiled in one pass from the .trq
// artifact the way trserve boots, must carry the same weight codes,
// biases and scales, and produce the same logits, as a Build of that
// budget alone that quantizes and reveals its weights afresh.
func TestFamilyRungsMatchPerRungBuild(t *testing.T) {
	for _, name := range []string{"mlp", "cnn"} {
		m, hidden, test, err := demoplan.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := artifact.WriteModel(&buf, m, hidden, artifact.WriteOptions{
			GroupSize: demoplan.QuantGroupSize, GroupBudget: demoplan.QuantGroupBudget}); err != nil {
			t.Fatal(err)
		}
		fm, _, err := artifact.DecodeModel(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		fam, err := demoplan.FamilyFromModel(fm, nil, demoplan.DefaultBudgets)
		if err != nil {
			t.Fatal(err)
		}
		rm, _, err := artifact.DecodeModel(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		qsim.FoldBatchNorm(rm)
		for _, b := range fam.Budgets() {
			want, err := intinfer.BuildPerRung(rm, intinfer.Options{
				Calibration: demoplan.Calibration(rm), GroupSize: demoplan.QuantGroupSize, GroupBudget: b})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := fam.Plan(b)
			if err := intinfer.DiffCompiled(got, want); err != nil {
				t.Fatalf("%s budget %d: %v", name, b, err)
			}
			for i, img := range test.Images {
				gl, gc, err := got.Infer(img)
				if err != nil {
					t.Fatal(err)
				}
				wl, wc, err := want.Infer(img)
				if err != nil {
					t.Fatal(err)
				}
				if gc != wc {
					t.Fatalf("%s budget %d image %d: class %d, per-rung build %d", name, b, i, gc, wc)
				}
				for j := range wl {
					if math.Float32bits(gl[j]) != math.Float32bits(wl[j]) {
						t.Fatalf("%s budget %d image %d logit %d: %v, per-rung build %v", name, b, i, j, gl[j], wl[j])
					}
				}
			}
		}
	}
}
