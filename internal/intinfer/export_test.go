package intinfer

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/quant"
	"repro/internal/term"
)

// BuildPerRung compiles one budget the way every rung was compiled
// before a family shared one scan: each weight tensor quantized and
// revealed afresh with core.RevealValues, row by row. It is the
// reference the one-pass family compile is checked against.
func BuildPerRung(m *models.ImageModel, opts Options) (*Plan, error) {
	if err := normalizeOptions(&opts); err != nil {
		return nil, err
	}
	scales, outScale, err := calibrate(m, opts.Calibration)
	if err != nil {
		return nil, err
	}
	c := &compiler{opts: opts, scales: scales,
		weights: func(_ string, w []float32, rows, cols int) ([]int32, float32) {
			p := quant.MaxAbsParams(w, opts.WeightBits)
			codes := p.QuantizeSlice(w)
			if k := opts.GroupBudget; k > 0 {
				for r := 0; r < rows; r++ {
					_, revealed := core.RevealValues(codes[r*cols:(r+1)*cols], term.HESE, opts.GroupSize, k)
					copy(codes[r*cols:(r+1)*cols], revealed)
				}
			}
			return codes, p.Scale
		}}
	return c.build(m, outScale)
}

// DiffCompiled reports the first difference between two plans' compiled
// weight codes, biases, scales and requantization multipliers, or nil
// when they agree everywhere.
func DiffCompiled(a, b *Plan) error {
	if a.inScale != b.inScale || a.outScale != b.outScale || a.groupBudget != b.groupBudget {
		return fmt.Errorf("plan scales/budget differ: in %v/%v out %v/%v budget %d/%d",
			a.inScale, b.inScale, a.outScale, b.outScale, a.groupBudget, b.groupBudget)
	}
	return diffSteps(a.steps, b.steps)
}

func diffSteps(a, b []step) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d steps vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := &a[i], &b[i]
		switch {
		case x.name != y.name || x.kind != y.kind:
			return fmt.Errorf("step %d: %s vs %s", i, x.name, y.name)
		case !slices.Equal(x.weights, y.weights):
			return fmt.Errorf("%s: weight codes differ", x.name)
		case !slices.Equal(x.bias, y.bias):
			return fmt.Errorf("%s: biases differ", x.name)
		case x.inScale != y.inScale || x.wScale != y.wScale || x.outScale != y.outScale ||
			x.mult != y.mult || x.lo != y.lo || x.hi != y.hi:
			return fmt.Errorf("%s: scales differ", x.name)
		}
		if err := diffSteps(x.body, y.body); err != nil {
			return fmt.Errorf("%s body: %w", x.name, err)
		}
		if err := diffSteps(x.proj, y.proj); err != nil {
			return fmt.Errorf("%s proj: %w", x.name, err)
		}
	}
	return nil
}
