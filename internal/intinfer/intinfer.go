// Package intinfer compiles trained models into integer-only inference
// plans — the deployment form the paper's hardware executes. Weights are
// 8-bit codes (optionally term-revealed), activations are 8-bit codes
// with static per-layer scales from a calibration pass, accumulators are
// 32-bit, and biases fold into the accumulator at the combined scale.
// No floating point touches the data path between the input quantizer
// and the logits.
//
// The engine supports conv / linear / ReLU / max pool / global average
// pool / flatten chains plus residual blocks (both branches requantize to
// a common scale so the skip-add is a plain integer addition). Fold batch
// norms first (qsim.FoldBatchNorm); squeeze-excite topologies are
// rejected at build time.
package intinfer

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/kernels/autotune"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/term"
)

// Options configures the compilation.
type Options struct {
	// WeightBits for the uniform quantization step (8 in the paper).
	WeightBits int
	// GroupSize/GroupBudget, when GroupBudget > 0, term-reveal the weight
	// codes at build time (HESE encoding).
	GroupSize, GroupBudget int
	// Budgets, when non-empty, is the group-budget ladder BuildFamily
	// compiles: one calibration pass and one shared weight artifact
	// serving every listed budget (see Family). Build itself compiles a
	// single budget and ignores this field; callers wanting the run-time
	// accuracy/latency dial go through BuildFamily.
	Budgets []int
	// Calibration images (flat, model geometry) for the static
	// activation scales; at least one is required.
	Calibration [][]float32
	// IntraWorkers bounds the goroutines a single Infer may fan a large
	// layer's GEMM rows out to (0 = GOMAXPROCS). InferBatchParallel
	// divides this budget by its batch workers so the two levels of
	// parallelism compose.
	IntraWorkers int
	// Obs, when non-nil, registers this plan's runtime metrics (per-step
	// latency histograms, kernel-dispatch counters, arena gauges; see
	// DESIGN.md §9) with the given registry. Nil leaves observability
	// off: the inference paths then pay only nil-checks (~1ns each, no
	// clock reads, no pprof labels). Plans sharing a registry share
	// series — step labels collide only if step names do.
	Obs *obs.Registry
	// ProfileLabels additionally tags inferences with runtime/pprof
	// labels ("layer" around each step, "image" around batch positions)
	// so CPU profiles attribute samples to plan structure. The label
	// plumbing allocates a context and label map per tagged region —
	// tens of heap objects per image — which violates the steady-state
	// zero-alloc arena contract, so it is opt-in even when Obs is set;
	// counters, gauges and latency histograms stay allocation-free
	// either way.
	ProfileLabels bool
}

// step kinds.
type kind int

const (
	kindConv kind = iota
	kindLinear
	kindReLU
	kindMaxPool
	kindFlatten
	kindGAP
	kindResidual
)

// step is one compiled operation.
type step struct {
	kind kind
	name string

	// conv / linear
	geom       *convGeom
	weights    []int32 // quantized (and revealed) codes, row-major
	bias       []int32 // bias at the accumulator scale (sw*sx)
	inScale    float32 // sx: static input scale
	wScale     float32 // sw
	outScale   float32 // sy: static output scale
	rows, cols int     // linear dims (rows=out, cols=in)
	mult       float64 // requant multiplier sw·sx/sy, fixed at build
	// Post-requant clamp bounds. [-127, 127] by default; a ReLU folded
	// into this step at compile time raises lo to 0 (and lowers hi to the
	// relu6-style cap), which is bit-identical to running the ReLU as its
	// own pass over the requantized codes.
	lo, hi int32
	// Float64 copies of the codes for the linear fast path: float64
	// multiplies dual-issue on the FP ports while int32 multiplies are
	// confined to one, and kernels.ExactF64 proves the arithmetic stays
	// integer-exact, so results are bit-identical to the direct
	// reference. Nil when the step was not admitted.
	wf64, bf64 []float64
	// pack8[g] is group g's weight matrix in packed panel form for the
	// int8 SIMD GEMM, built once at compile time; nil when the conv was
	// not admitted (kernels.AccumFitsU8).
	pack8 []*kernels.PackedA
	// pack8lin is the linear analogue, present only on plans admitted to
	// the batched lane (Plan.linear8): micro-batches of B ≥ 2 images run
	// through it as one M×B×K GEMM. A single image would waste 15/16 of
	// each 16-wide panel, so it takes the float64 lane instead.
	pack8lin *kernels.PackedA
	// tile is the autotuned blocking geometry for the packed kernels
	// (zero value = unblocked). Tiles never change results, only memory
	// traversal, so this is a pure perf knob picked per (CPU features,
	// geometry) by internal/kernels/autotune.
	tile kernels.Tile

	// max pool
	k, stride int
	// relu cap in output codes (0 = none)
	capCode int32

	// residual: both branches produce codes at the residual's target
	// scale; a nil proj means the identity shortcut, rescaled from
	// shortcutScale to the target.
	body, proj    []step
	shortcutScale float32
	targetScale   float32
}

type convGeom struct {
	inC, inH, inW, outC, kh, kw, stride, pad, groups, outH, outW int
	// colBase and tapOff are the packed lane's gather tables into the
	// padded input (kernels.ConvOffsets): one entry per output pixel and
	// one per tap of a group, shared by every group.
	colBase, tapOff []int
}

// Plan is a compiled integer inference program. A Plan is immutable
// after Build; all mutable inference state lives in scratch arenas
// recycled through the internal pool, so any number of goroutines may
// run Infer/Classify concurrently.
type Plan struct {
	steps         []step
	inC, inH, inW int
	classes       int
	inScale       float32
	outScale      float32
	groupBudget   int // the TR group budget the weights were revealed at

	// Arena geometry, fixed by finalize at build time.
	maxAct       int  // largest activation (elements) any step produces
	maxPadded    int  // largest padded offset-u8 conv input (bytes, packed path)
	maxPackB     int  // largest packed B panel buffer (bytes, packed path)
	maxLin       int  // widest buffer a float64-path linear step touches
	lin8Buf      int  // offset-u8/code matrix capacity of the packed linear lane
	express      bool // whole plan is flatten + float64-path linears
	linear8      bool // whole plan is flatten + packed linears (batched int8 lane)
	bufCount     int  // activation buffers one inference needs concurrently
	intraWorkers int
	// arena pools *scratch. It is a pointer so a Family can point every
	// budget rung at one shared pool: the rungs' arena geometries are
	// unified to the family max at build, so any rung's inference can run
	// out of any pooled scratch.
	arena *sync.Pool
	pm    planMetrics // observability handles; zero value = disabled
}

// InputDims returns the image geometry the plan expects: channels,
// height, width. An Infer call must supply exactly c*h*w values.
func (p *Plan) InputDims() (c, h, w int) { return p.inC, p.inH, p.inW }

// Classes returns the number of output classes the plan produces.
func (p *Plan) Classes() int { return p.classes }

// GroupBudget returns the TR group budget k this plan's weights were
// revealed at (0: no term revealing). For a Family rung this is the
// rung's position on the accuracy/latency dial.
func (p *Plan) GroupBudget() int { return p.groupBudget }

// normalizeOptions applies the compilation defaults and validates the
// pieces Build and BuildFamily share.
func normalizeOptions(opts *Options) error {
	if opts.WeightBits == 0 {
		opts.WeightBits = 8
	}
	if len(opts.Calibration) == 0 {
		return fmt.Errorf("intinfer: calibration images required")
	}
	if opts.GroupBudget > 0 && opts.GroupSize < 1 {
		return fmt.Errorf("intinfer: group budget %d needs a group size", opts.GroupBudget)
	}
	return nil
}

// Build compiles the model. The model itself is left unmodified.
func Build(m *models.ImageModel, opts Options) (*Plan, error) {
	if err := normalizeOptions(&opts); err != nil {
		return nil, err
	}
	plans, err := compileLadder(m, opts, []int{opts.GroupBudget})
	if err != nil {
		return nil, err
	}
	return plans[0], nil
}

// compileLadder compiles the model once per budget (ascending, no
// duplicates), returning one plan per budget. Build is the one-budget
// case. The calibration pass runs once, since activation scales depend
// only on the float model, and each weight tensor is quantized and
// revealed once for every budget (weightLadder): the rungs differ only
// in which weight terms survive revealing.
func compileLadder(m *models.ImageModel, opts Options, budgets []int) ([]*Plan, error) {
	// Calibration: capture every weight layer's input activations and the
	// network output to fix static scales.
	scales, outScale, err := calibrate(m, opts.Calibration)
	if err != nil {
		return nil, err
	}
	wl := &weightLadder{bits: opts.WeightBits, groupSize: opts.GroupSize,
		budgets: budgets, layers: make(map[string]ladderCodes)}
	plans := make([]*Plan, len(budgets))
	for r, b := range budgets {
		o := opts
		o.GroupBudget = b
		c := &compiler{opts: o, scales: scales,
			weights: func(name string, w []float32, rows, cols int) ([]int32, float32) {
				return wl.codes(name, w, rows, cols, r)
			}}
		// Compile errors come from the model's structure, never from
		// the budget, so the first rung reports them for all.
		if plans[r], err = c.build(m, outScale); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// weightLadder quantizes and reveals each weight tensor once for every
// budget of a ladder, on the first rung that asks for it.
type weightLadder struct {
	bits, groupSize int
	budgets         []int
	layers          map[string]ladderCodes // by layer name
}

// ladderCodes is one weight tensor's codes at every budget of the ladder
// (parallel to weightLadder.budgets) and the quantization scale they
// share: revealing drops terms but never rescales.
type ladderCodes struct {
	rungs [][]int32
	scale float32
}

// codes returns the rows×cols weight tensor w of the named layer as
// codes revealed at budgets[rung]. Each row is revealed on its own, so
// groups never straddle rows; budget 0 keeps the plain quantized codes.
func (wl *weightLadder) codes(name string, w []float32, rows, cols, rung int) ([]int32, float32) {
	if lc, ok := wl.layers[name]; ok {
		return lc.rungs[rung], lc.scale
	}
	p := quant.MaxAbsParams(w, wl.bits)
	codes := p.QuantizeSlice(w)
	lc := ladderCodes{rungs: make([][]int32, len(wl.budgets)), scale: p.Scale}
	ks := wl.budgets // ascending, so budget 0 (no revealing) can only lead
	if ks[0] == 0 {
		lc.rungs[0] = codes
		ks = ks[1:]
	}
	first := len(wl.budgets) - len(ks) // rung of ks[0]
	for j := range ks {
		lc.rungs[first+j] = make([]int32, len(codes))
	}
	for row := 0; row < rows && len(ks) > 0; row++ {
		lo, hi := row*cols, (row+1)*cols
		for j, vals := range core.RevealLadder(codes[lo:hi], term.HESE, wl.groupSize, ks) {
			copy(lc.rungs[first+j][lo:hi], vals)
		}
	}
	wl.layers[name] = lc
	return lc.rungs[rung], lc.scale
}

// build compiles the model against the compiler's calibration scales
// and weight codes.
func (c *compiler) build(m *models.ImageModel, outScale float32) (*Plan, error) {
	opts := c.opts
	p := &Plan{inC: m.InC, inH: m.InH, inW: m.InW, classes: m.Classes,
		outScale: outScale, groupBudget: opts.GroupBudget}
	var flat []nn.Layer
	if err := flattenChain(m.Net, &flat); err != nil {
		return nil, err
	}
	inScale, err := c.chainInputScale(flat)
	if err != nil {
		return nil, err
	}
	p.inScale = inScale
	steps, err := c.compileChain(flat, inScale, outScale)
	if err != nil {
		return nil, err
	}
	p.steps = fuseActivations(steps)
	p.finalize(opts)
	return p, nil
}

// fuseActivations folds a ReLU that immediately follows a conv or linear
// step into that step's requantization clamp, eliminating one pass over
// the activation. Requantizing to [-127, 127] and then applying
// ReLU/ReLU-cap is pointwise identical to a single clamp to
// [0, min(cap, 127)], so the fusion is bit-exact. Residual branches are
// fused recursively; a ReLU that follows any other step kind (pool,
// residual add) stays a standalone pass.
func fuseActivations(steps []step) []step {
	out := steps[:0]
	for i := 0; i < len(steps); i++ {
		st := steps[i]
		if st.kind == kindResidual {
			st.body = fuseActivations(st.body)
			if st.proj != nil {
				st.proj = fuseActivations(st.proj)
			}
		}
		if (st.kind == kindConv || st.kind == kindLinear) &&
			i+1 < len(steps) && steps[i+1].kind == kindReLU {
			relu := steps[i+1]
			st.lo = 0
			if relu.capCode > 0 && relu.capCode < st.hi {
				st.hi = relu.capCode
			}
			i++
		}
		out = append(out, st)
	}
	return out
}

// finalize sizes the scratch arena: it simulates the step chain's shapes
// to find the largest activation and packed-conv buffers, counts how many
// activation buffers one inference holds concurrently (residual branches
// pin extra buffers), and arms the pool.
func (p *Plan) finalize(opts Options) {
	p.maxAct = p.inC * p.inH * p.inW
	p.sizeChain(p.steps, p.inC, p.inH, p.inW)
	p.bufCount = chainBufs(p.steps, 0)
	p.prepareF64(p.steps)
	p.express = expressible(p.steps)
	p.linear8 = p.packLinears()
	p.tuneSteps()
	p.intraWorkers = opts.IntraWorkers
	if p.intraWorkers < 1 {
		p.intraWorkers = runtime.GOMAXPROCS(0)
	}
	p.initMetrics(opts.Obs)
	p.pm.labels = p.pm.enabled && opts.ProfileLabels
	p.arena = &sync.Pool{New: func() any { return p.newScratch() }}
}

// packLinears admits a plan to the batched packed-int8 lane: nothing
// but shape-only flattens and linear steps, with at least one linear,
// each passing kernels.AccumFitsU8. Only an admitted plan keeps the
// packed panels (pack8lin) and sizes the lane's scratch; it reports
// whether the plan was admitted. Such plans carry a k×B offset-u8
// activation matrix between layers and run each layer as one M×B×K GEMM
// instead of B GEMVs. Admission implies the float64 lane's
// (kernels.AccumFitsU8 ⇒ kernels.ExactF64), so an admitted plan is also
// expressible and can run a lone image there.
func (p *Plan) packLinears() bool {
	packs := make([]*kernels.PackedA, len(p.steps))
	linears := 0
	for i := range p.steps {
		st := &p.steps[i]
		switch st.kind {
		case kindFlatten:
		case kindLinear:
			// The compensated-bias magnitude only the pack computes
			// decides admission, so pack first and keep the panels only
			// if the bound holds.
			pa := kernels.PackA(st.weights, st.bias, st.rows, st.cols)
			if !kernels.AccumFitsU8(st.cols, maxAbs32(st.weights), pa.BiasMax()) {
				return false
			}
			packs[i] = pa
			linears++
		default:
			return false
		}
	}
	for i, pa := range packs {
		if pa == nil {
			continue
		}
		// The offset-u8 ping-pong matrices and the int32 code matrix
		// hold up to max(k, m) rows by linear8Cols columns; the PackB
		// panel buffer must fit the widest layer.
		st := &p.steps[i]
		st.pack8lin = pa
		p.lin8Buf = max(p.lin8Buf, max(st.cols, st.rows)*linear8Cols)
		p.maxPackB = max(p.maxPackB, kernels.PackBSize(st.cols, linear8Cols))
	}
	return linears > 0
}

// tuneSteps asks the autotuner for a tile per packed step, keyed by the
// geometry the kernel will actually run: per-group dimensions for
// convs, the micro-batch chunk width for batch-lane linears. All of a
// plan's geometries go to one autotune.PickAll, so a cold cache is
// written once per plan build. Tile choice never affects results
// (kernels.Tile), so a plan built with a cold cache and one built with a
// warm cache are bit-identical — the warm build just skips the
// measurement.
func (p *Plan) tuneSteps() {
	packed, geoms := p.tuneGeoms(p.steps, nil, nil)
	if len(geoms) == 0 {
		return
	}
	for i, t := range autotune.PickAll(geoms) {
		packed[i].tile = t
	}
}

// tuneGeoms appends every packed step in steps (descending into
// residual branches) and the geometry its kernel runs.
func (p *Plan) tuneGeoms(steps []step, packed []*step, geoms []autotune.Geometry) ([]*step, []autotune.Geometry) {
	for i := range steps {
		st := &steps[i]
		switch {
		case st.kind == kindConv && st.pack8 != nil:
			g := st.geom
			packed = append(packed, st)
			geoms = append(geoms, autotune.Geometry{M: g.outC / g.groups,
				K: (g.inC / g.groups) * g.kh * g.kw, N: g.outH * g.outW})
		case st.kind == kindLinear && st.pack8lin != nil:
			packed = append(packed, st)
			geoms = append(geoms, autotune.Geometry{M: st.rows, K: st.cols, N: linear8Cols})
		case st.kind == kindResidual:
			packed, geoms = p.tuneGeoms(st.body, packed, geoms)
			if st.proj != nil {
				packed, geoms = p.tuneGeoms(st.proj, packed, geoms)
			}
		}
	}
	return packed, geoms
}

// prepareF64 materializes float64 copies of every admissible linear
// step's codes and records the widest such input for the scratch arena's
// conversion buffer. Admission requires the dot product to stay exactly
// representable in float64 (kernels.ExactF64); a linear it rejects runs
// the direct 64-bit reference.
func (p *Plan) prepareF64(steps []step) {
	for i := range steps {
		st := &steps[i]
		switch st.kind {
		case kindLinear:
			if !kernels.ExactF64(st.cols, maxAbs32(st.weights), 127, maxAbs32(st.bias)) {
				continue
			}
			st.wf64 = make([]float64, len(st.weights))
			for j, w := range st.weights {
				st.wf64[j] = float64(w)
			}
			st.bf64 = make([]float64, len(st.bias))
			for j, b := range st.bias {
				st.bf64[j] = float64(b)
			}
			if st.cols > p.maxLin {
				p.maxLin = st.cols
			}
			if st.rows > p.maxLin {
				p.maxLin = st.rows
			}
		case kindResidual:
			p.prepareF64(st.body)
			if st.proj != nil {
				p.prepareF64(st.proj)
			}
		}
	}
}

// expressible reports whether a plan can run entirely on the float64
// express lane: nothing but shape-only flattens and float64-path linear
// steps, with at least one linear. Such plans keep the activation as
// integral float64 codes from the quantizer through the logits.
func expressible(steps []step) bool {
	linears := 0
	for i := range steps {
		switch steps[i].kind {
		case kindFlatten:
		case kindLinear:
			if steps[i].wf64 == nil {
				return false
			}
			linears++
		default:
			return false
		}
	}
	return linears > 0
}

func (p *Plan) noteAct(n int) {
	if n > p.maxAct {
		p.maxAct = n
	}
}

// sizeChain mirrors the shape propagation of exec, recording every
// intermediate activation size and packed-conv footprint. It returns the
// chain's output shape.
func (p *Plan) sizeChain(steps []step, c, h, w int) (int, int, int) {
	for i := range steps {
		st := &steps[i]
		switch st.kind {
		case kindConv:
			g := st.geom
			c, h, w = g.outC, g.outH, g.outW
			p.noteAct(c * h * w)
			if st.pack8 != nil {
				// Packed path: padded offset-u8 input + one group's panels.
				p.maxPadded = max(p.maxPadded, g.inC*(g.inH+2*g.pad)*(g.inW+2*g.pad))
				p.maxPackB = max(p.maxPackB, kernels.PackBSize(len(g.tapOff), len(g.colBase)))
			}
		case kindLinear:
			c, h, w = st.rows, 1, 1
			p.noteAct(st.rows)
		case kindMaxPool:
			h = (h-st.k)/st.stride + 1
			w = (w-st.k)/st.stride + 1
			p.noteAct(c * h * w)
		case kindGAP:
			h, w = 1, 1
			p.noteAct(c)
		case kindResidual:
			bc, bh, bw := p.sizeChain(st.body, c, h, w)
			if st.proj != nil {
				p.sizeChain(st.proj, c, h, w)
			}
			c, h, w = bc, bh, bw
		}
	}
	return c, h, w
}

// chainBufs returns the peak number of arena buffers live while a chain
// executes, given `held` buffers pinned by enclosing residuals. A chain
// always owns its current activation (+1); out-of-place steps briefly
// hold input and output together (+2); a residual pins its input while
// its branches run, then holds input, body result and skip at the add.
func chainBufs(steps []step, held int) int {
	peak := held + 2 // current activation + one out-of-place output
	for i := range steps {
		st := &steps[i]
		if st.kind != kindResidual {
			continue
		}
		if b := chainBufs(st.body, held+1); b > peak {
			peak = b
		}
		if st.proj != nil {
			// input + body result pinned while the projection runs
			if b := chainBufs(st.proj, held+2); b > peak {
				peak = b
			}
		} else if held+3 > peak { // input + body + identity skip
			peak = held + 3
		}
	}
	return peak
}

// compiler threads the calibration scales and the weight codes through
// the recursive chain compilation.
type compiler struct {
	opts   Options
	scales map[string]float32
	// weights returns a layer's rows×cols weight tensor w as codes at
	// this plan's budget, and their scale.
	weights func(name string, w []float32, rows, cols int) ([]int32, float32)
}

// flattenChain expands nested sequentials into a flat op list, keeping
// Residual nodes intact for recursive compilation.
func flattenChain(s *nn.Sequential, out *[]nn.Layer) error {
	for _, l := range s.Layers {
		switch v := l.(type) {
		case *nn.Sequential:
			if err := flattenChain(v, out); err != nil {
				return err
			}
		case *nn.SEBlock:
			return fmt.Errorf("intinfer: %T is not supported", l)
		case *nn.BatchNorm2D:
			return fmt.Errorf("intinfer: fold batch norm %s before building (qsim.FoldBatchNorm)", v.Name())
		default:
			*out = append(*out, l)
		}
	}
	return nil
}

// chainInputScale is the calibrated scale of the first weight layer
// reachable in the chain (descending into residual bodies: both branches
// observed the same input tensor, so their first-layer scales agree).
func (c *compiler) chainInputScale(chain []nn.Layer) (float32, error) {
	for _, l := range chain {
		switch v := l.(type) {
		case *nn.Conv2D, *nn.Linear:
			s, ok := c.scales[l.Name()]
			if !ok {
				return 0, fmt.Errorf("intinfer: no calibration for %s", l.Name())
			}
			return s, nil
		case *nn.Residual:
			var body []nn.Layer
			seq, ok := v.Body.(*nn.Sequential)
			if !ok {
				return 0, fmt.Errorf("intinfer: residual body must be a Sequential")
			}
			if err := flattenChain(seq, &body); err != nil {
				return 0, err
			}
			return c.chainInputScale(body)
		}
	}
	return 0, fmt.Errorf("intinfer: chain has no weight layers")
}

// nextTarget returns the scale the activation must be requantized to
// after position idx: the input scale of the next weight layer in the
// chain (descending into residuals), or the chain's final target.
func (c *compiler) nextTarget(chain []nn.Layer, idx int, final float32) (float32, error) {
	for _, l := range chain[idx+1:] {
		switch l.(type) {
		case *nn.Conv2D, *nn.Linear, *nn.Residual:
			return c.chainInputScale(chain[idx+1:])
		}
	}
	return final, nil
}

// compileChain compiles a feed-forward chain whose input arrives at
// inScale and whose output must leave at outScale.
func (c *compiler) compileChain(chain []nn.Layer, inScale, outScale float32) ([]step, error) {
	var steps []step
	cur := inScale // scale of the activation flowing between steps
	for idx, l := range chain {
		switch v := l.(type) {
		case *nn.Conv2D:
			sx, ok := c.scales[v.Name()]
			if !ok {
				return nil, fmt.Errorf("intinfer: no calibration for %s", v.Name())
			}
			sy, err := c.nextTarget(chain, idx, outScale)
			if err != nil {
				return nil, err
			}
			st, err := c.compileConv(v, sx, sy)
			if err != nil {
				return nil, err
			}
			steps = append(steps, st)
			cur = sy
		case *nn.Linear:
			sx, ok := c.scales[v.Name()]
			if !ok {
				return nil, fmt.Errorf("intinfer: no calibration for %s", v.Name())
			}
			sy, err := c.nextTarget(chain, idx, outScale)
			if err != nil {
				return nil, err
			}
			st, err := c.compileLinear(v, sx, sy)
			if err != nil {
				return nil, err
			}
			steps = append(steps, st)
			cur = sy
		case *nn.Residual:
			sy, err := c.nextTarget(chain, idx, outScale)
			if err != nil {
				return nil, err
			}
			st, err := c.compileResidual(v, cur, sy)
			if err != nil {
				return nil, err
			}
			steps = append(steps, st)
			cur = sy
		case *nn.ReLU:
			st := step{kind: kindReLU, name: v.Name()}
			if v.Cap > 0 {
				// Codes clamp at 127 anyway, so saturating the cap there
				// is behaviour-preserving even for tiny scales.
				st.capCode = code8(math.Round(float64(v.Cap) / float64(cur)))
			}
			steps = append(steps, st)
		case *nn.MaxPool2D:
			steps = append(steps, step{kind: kindMaxPool, name: v.Name(),
				k: v.K, stride: v.Stride})
		case *nn.GlobalAvgPool2D:
			// Integer mean preserves the scale; the preceding weight
			// layer already requantized to the next layer's input scale.
			steps = append(steps, step{kind: kindGAP, name: v.Name()})
		case *nn.Flatten:
			steps = append(steps, step{kind: kindFlatten, name: v.Name()})
		case *nn.Identity, *nn.Dropout:
			// no-ops at inference
		default:
			return nil, fmt.Errorf("intinfer: unsupported layer %T (%s)", l, l.Name())
		}
	}
	return steps, nil
}

// compileResidual compiles both branches to produce codes at the target
// scale, so the add is a plain integer addition.
func (c *compiler) compileResidual(r *nn.Residual, inScale, target float32) (step, error) {
	seq, ok := r.Body.(*nn.Sequential)
	if !ok {
		return step{}, fmt.Errorf("intinfer: residual body must be a Sequential")
	}
	var bodyChain []nn.Layer
	if err := flattenChain(seq, &bodyChain); err != nil {
		return step{}, err
	}
	body, err := c.compileChain(bodyChain, inScale, target)
	if err != nil {
		return step{}, err
	}
	st := step{kind: kindResidual, name: r.Name(), body: body,
		shortcutScale: inScale, targetScale: target}
	if r.Proj != nil {
		pseq, ok := r.Proj.(*nn.Sequential)
		if !ok {
			return step{}, fmt.Errorf("intinfer: residual projection must be a Sequential")
		}
		var projChain []nn.Layer
		if err := flattenChain(pseq, &projChain); err != nil {
			return step{}, err
		}
		st.proj, err = c.compileChain(projChain, inScale, target)
		if err != nil {
			return step{}, err
		}
	}
	return st, nil
}

// calibrate runs the float model over the calibration set with hooks
// capturing max-abs statistics.
func calibrate(m *models.ImageModel, images [][]float32) (map[string]float32, float32, error) {
	maxabs := make(map[string]float32)
	var restore []func()
	record := func(name string) nn.MatMulHook {
		return func(which string, data *tensor.Tensor) *tensor.Tensor {
			// Record even an all-zero input: its layer still needs a
			// scale (the zero max-abs maps to 1 below).
			a := data.MaxAbs()
			if cur, ok := maxabs[name]; !ok || a > cur {
				maxabs[name] = a
			}
			return data
		}
	}
	nn.Walk(m.Net, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			old := v.Hook
			v.Hook = record(v.Name())
			restore = append(restore, func() { v.Hook = old })
		case *nn.Linear:
			old := v.Hook
			v.Hook = record(v.Name())
			restore = append(restore, func() { v.Hook = old })
		}
	})
	out := m.Forward(images, false)
	for i := len(restore) - 1; i >= 0; i-- {
		restore[i]()
	}
	scales := make(map[string]float32, len(maxabs))
	qmax := float32(127)
	for name, a := range maxabs {
		if a == 0 {
			a = 1
		}
		scales[name] = a / qmax
	}
	oMax := out.MaxAbs()
	if oMax == 0 {
		oMax = 1
	}
	return scales, oMax / qmax, nil
}

// maxAbs32 returns the largest magnitude in a code slice.
func maxAbs32(v []int32) int64 {
	var m int64
	for _, c := range v {
		a := int64(c)
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

func (c *compiler) compileConv(v *nn.Conv2D, sx, sy float32) (step, error) {
	g := v.Geom
	kk := (g.InC / g.Groups) * g.KH * g.KW
	codes, sw := c.weights(v.Name(), v.Weight.W.Data, g.OutC, kk)
	geom := &convGeom{inC: g.InC, inH: g.InH, inW: g.InW, outC: g.OutC,
		kh: g.KH, kw: g.KW, stride: g.Stride, pad: g.Pad,
		groups: g.Groups, outH: g.OutH, outW: g.OutW}
	geom.colBase, geom.tapOff = kernels.ConvOffsets(g.InC/g.Groups, g.InH, g.InW,
		g.KH, g.KW, g.Stride, g.Pad, g.OutH, g.OutW)
	st := step{kind: kindConv, name: v.Name(), geom: geom,
		weights: codes, inScale: sx, wScale: sw, outScale: sy,
		mult: float64(sw) * float64(sx) / float64(sy), lo: -127, hi: 127}
	st.bias = make([]int32, g.OutC)
	if v.Bias != nil {
		acc := float64(sw) * float64(sx)
		for i, b := range v.Bias.W.Data {
			st.bias[i] = sat32(math.Round(float64(b) / acc))
		}
	}
	packConvWeights(&st, kk)
	return st, nil
}

// packConvWeights builds the packed-panel form of an admitted conv's
// weights, one PackedA per group. Admission (kernels.AccumFitsU8)
// depends on each group's compensated-bias magnitude, which only the
// pack itself computes, so packing is speculative: if any group fails
// the bound, pack8 stays nil and the step runs the direct reference.
func packConvWeights(st *step, kk int) {
	g := st.geom
	oPerG := g.outC / g.groups
	wmax := maxAbs32(st.weights)
	packs := make([]*kernels.PackedA, g.groups)
	for grp := range packs {
		pa := kernels.PackA(st.weights[grp*oPerG*kk:][:oPerG*kk],
			st.bias[grp*oPerG:][:oPerG], oPerG, kk)
		if !kernels.AccumFitsU8(kk, wmax, pa.BiasMax()) {
			return
		}
		packs[grp] = pa
	}
	st.pack8 = packs
}

func (c *compiler) compileLinear(v *nn.Linear, sx, sy float32) (step, error) {
	codes, sw := c.weights(v.Name(), v.Weight.W.Data, v.Out, v.In)
	st := step{kind: kindLinear, name: v.Name(), rows: v.Out, cols: v.In,
		weights: codes, inScale: sx, wScale: sw, outScale: sy,
		mult: float64(sw) * float64(sx) / float64(sy), lo: -127, hi: 127}
	st.bias = make([]int32, v.Out)
	acc := float64(sw) * float64(sx)
	for i, b := range v.Bias.W.Data {
		st.bias[i] = sat32(math.Round(float64(b) / acc))
	}
	return st, nil
}
