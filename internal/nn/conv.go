package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over (batch, C, H, W) activations,
// supporting grouped and depthwise convolution. The filter weight has
// shape (OutC, InC/Groups, KH, KW). Implementation lowers each
// (sample, group) to a matmul via im2col.
type Conv2D struct {
	label  string
	Geom   tensor.ConvGeom
	Weight *Param
	Bias   *Param // nil when disabled (e.g. followed by batch norm)
	// Hook, when set, observes and may rewrite the input activations
	// before the convolution (see Linear.Hook).
	Hook MatMulHook

	lastCols []*tensor.Tensor // cached per (sample, group)
	lastB    int
}

// NewConv2D builds a convolution layer. Pass withBias=false when the conv
// feeds a batch norm.
func NewConv2D(label string, geom tensor.ConvGeom, withBias bool, rng *rand.Rand) *Conv2D {
	if geom.Groups < 1 {
		geom.Groups = 1
	}
	if geom.InC%geom.Groups != 0 || geom.OutC%geom.Groups != 0 {
		panic(fmt.Sprintf("nn: conv channels %d/%d not divisible by groups %d",
			geom.InC, geom.OutC, geom.Groups))
	}
	geom = geom.Out()
	c := &Conv2D{label: label, Geom: geom}
	cPerG := geom.InC / geom.Groups
	c.Weight = NewParam(label+".weight", true, geom.OutC, cPerG, geom.KH, geom.KW)
	heInit(c.Weight.W, rng, cPerG*geom.KH*geom.KW)
	if withBias {
		c.Bias = NewParam(label+".bias", false, geom.OutC)
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.label }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias == nil {
		return []*Param{c.Weight}
	}
	return []*Param{c.Weight, c.Bias}
}

// Forward implements Layer. Samples are independent, so the batch is
// spread over min(GOMAXPROCS, batch) goroutines; each sample writes only
// its own output rows and lastCols slots and runs the same arithmetic
// it would serially, so results are bit-identical at any worker count.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.Geom
	if c.Hook != nil {
		x = c.Hook(c.label, x)
	}
	b := x.Shape[0]
	c.lastB = b
	out := tensor.New(b, g.OutC, g.OutH, g.OutW)
	c.lastCols = make([]*tensor.Tensor, b*g.Groups)
	workers := min(runtime.GOMAXPROCS(0), b)
	if workers <= 1 {
		for s := 0; s < b; s++ {
			c.forwardSample(x, out, s)
		}
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := w; s < b; s += workers {
				c.forwardSample(x, out, s)
			}
		}()
	}
	wg.Wait()
	return out
}

// forwardSample convolves sample s of x into its rows of out, caching
// the sample's im2col matrices for Backward.
func (c *Conv2D) forwardSample(x, out *tensor.Tensor, s int) {
	g := c.Geom
	oPerG := g.OutC / g.Groups
	kk := (g.InC / g.Groups) * g.KH * g.KW
	spatial := g.OutH * g.OutW
	img := tensor.FromSlice(x.Data[s*g.InC*g.InH*g.InW:(s+1)*g.InC*g.InH*g.InW],
		g.InC, g.InH, g.InW)
	for grp := 0; grp < g.Groups; grp++ {
		cols := tensor.Im2Col(img, g, grp)
		c.lastCols[s*g.Groups+grp] = cols
		wMat := tensor.FromSlice(c.Weight.W.Data[grp*oPerG*kk:(grp+1)*oPerG*kk], oPerG, kk)
		res := tensor.MatMul(wMat, cols)
		dst := out.Data[(s*g.OutC+grp*oPerG)*spatial:]
		copy(dst[:oPerG*spatial], res.Data)
	}
	if c.Bias != nil {
		for oc := 0; oc < g.OutC; oc++ {
			bias := c.Bias.W.Data[oc]
			row := out.Data[(s*g.OutC+oc)*spatial : (s*g.OutC+oc+1)*spatial]
			for i := range row {
				row[i] += bias
			}
		}
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	b := c.lastB
	oPerG := g.OutC / g.Groups
	cPerG := g.InC / g.Groups
	kk := cPerG * g.KH * g.KW
	spatial := g.OutH * g.OutW
	dx := tensor.New(b, g.InC, g.InH, g.InW)
	for s := 0; s < b; s++ {
		for grp := 0; grp < g.Groups; grp++ {
			gMat := tensor.FromSlice(
				grad.Data[(s*g.OutC+grp*oPerG)*spatial:(s*g.OutC+(grp+1)*oPerG)*spatial],
				oPerG, spatial)
			cols := c.lastCols[s*g.Groups+grp]
			// dW += g·colsᵀ
			dW := tensor.MatMulTransB(gMat, cols)
			wSlice := c.Weight.G.Data[grp*oPerG*kk : (grp+1)*oPerG*kk]
			for i, v := range dW.Data {
				wSlice[i] += v
			}
			// dcols = Wᵀ·g, scattered back to the input gradient.
			wMat := tensor.FromSlice(c.Weight.W.Data[grp*oPerG*kk:(grp+1)*oPerG*kk], oPerG, kk)
			dCols := tensor.MatMulTransA(wMat, gMat)
			img := tensor.FromSlice(dx.Data[s*g.InC*g.InH*g.InW:(s+1)*g.InC*g.InH*g.InW],
				g.InC, g.InH, g.InW)
			tensor.Col2Im(dCols, g, grp, img)
		}
	}
	if c.Bias != nil {
		for s := 0; s < b; s++ {
			for oc := 0; oc < g.OutC; oc++ {
				row := grad.Data[(s*g.OutC+oc)*spatial : (s*g.OutC+oc+1)*spatial]
				var sum float32
				for _, v := range row {
					sum += v
				}
				c.Bias.G.Data[oc] += sum
			}
		}
	}
	return dx
}
