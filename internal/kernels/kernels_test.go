package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// naiveConv is the reference the im2col + GEMM lowering must match
// bit-for-bit: the direct 6-deep convolution loop over a single group,
// returning the raw accumulators.
func naiveConv(src, w, bias []int32, c, h, wid, outC, kh, kw, stride, pad, outH, outW int) []int32 {
	out := make([]int32, outC*outH*outW)
	kk := c * kh * kw
	for oc := 0; oc < outC; oc++ {
		row := w[oc*kk : (oc+1)*kk]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				acc := bias[oc]
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= wid {
								continue
							}
							acc += row[(ci*kh+ky)*kw+kx] * src[(ci*h+iy)*wid+ix]
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out
}

func randCodes(rng *rand.Rand, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(255) - 127)
	}
	return out
}

// refGemm is the naive oracle the packed kernels are checked against:
// bias ⊕ A·B for an m×k A and a k×n B (row-major), accumulated in
// int64 so no operand range can overflow it.
func refGemm(a, b, bias []int32, m, n, k int) []int64 {
	out := make([]int64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := int64(bias[i])
			for q := 0; q < k; q++ {
				acc += int64(a[i*k+q]) * int64(b[q*n+j])
			}
			out[i*n+j] = acc
		}
	}
	return out
}

// TestGemmNilBiasAndOddRows checks the packed GEMM's raw accumulators
// for the shapes the m%4 sweep of TestGemm8RowsMatchesGemmRequant does
// not reach: fewer than four rows (a single, partly padded panel) and a
// zero bias, where only PackA's u8-offset compensation remains in the
// panel bias. A unit multiplier and a full-int32 clamp leave every
// accumulator unrounded, so the output must equal A·B exactly.
func TestGemmNilBiasAndOddRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8} {
		n, k := 6, 9
		a := randCodes(rng, m*k)
		b := randCodes(rng, k*n)
		pa := PackA(a, make([]int32, m), m, k)
		bu := make([]uint8, k*n)
		OffsetU8(bu, b)
		pb := make([]uint8, PackBSize(k, n))
		PackB(pb, bu, k, n)
		got := make([]int32, m*n)
		Gemm8Rows(got, pa, pb, n, 0, pa.MP, 1, math.MinInt32, math.MaxInt32)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want int32
				for q := 0; q < k; q++ {
					want += a[i*k+q] * b[q*n+j]
				}
				if got[i*n+j] != want {
					t.Fatalf("m=%d (%d,%d): got %d want %d", m, i, j, got[i*n+j], want)
				}
			}
		}
	}
}

// packedConv runs one convolution group through the executor's packed
// lowering — PadU8 input, PackConvB and PackA panels, Gemm8Rows with the
// requant fused — and returns the output codes.
func packedConv(src, w, bias []int32, c, h, wid, outC, kh, kw, stride, pad, outH, outW int,
	mult float64, lo, hi int32) []int32 {
	kk := c * kh * kw
	n := outH * outW
	padded := make([]uint8, c*(h+2*pad)*(wid+2*pad))
	PadU8(padded, src, c, h, wid, pad)
	colBase, tapOff := ConvOffsets(c, h, wid, kh, kw, stride, pad, outH, outW)
	pb := make([]uint8, PackBSize(kk, n))
	PackConvB(pb, padded, colBase, tapOff)
	pa := PackA(w, bias, outC, kk)
	out := make([]int32, outC*n)
	Gemm8Rows(out, pa, pb, n, 0, pa.MP, mult, lo, hi)
	return out
}

func TestIm2colGemmMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type geom struct{ c, h, w, outC, kh, kw, stride, pad int }
	cases := []geom{
		{1, 5, 5, 3, 3, 3, 1, 1},
		{3, 8, 8, 8, 3, 3, 1, 1},
		{4, 7, 9, 5, 3, 3, 2, 1}, // non-square, strided
		{2, 6, 6, 4, 1, 1, 1, 0}, // 1x1
		{3, 9, 7, 6, 5, 3, 2, 2}, // non-square kernel, big pad
		{1, 4, 4, 2, 3, 3, 1, 0}, // no pad
	}
	for _, g := range cases {
		outH := (g.h+2*g.pad-g.kh)/g.stride + 1
		outW := (g.w+2*g.pad-g.kw)/g.stride + 1
		kk := g.c * g.kh * g.kw
		src := randCodes(rng, g.c*g.h*g.w)
		w := randCodes(rng, g.outC*kk)
		bias := randCodes(rng, g.outC)
		mult := 1.0 / float64(1+rng.Intn(4000))
		want := naiveConv(src, w, bias, g.c, g.h, g.w, g.outC, g.kh, g.kw, g.stride, g.pad, outH, outW)
		got := packedConv(src, w, bias, g.c, g.h, g.w, g.outC, g.kh, g.kw, g.stride, g.pad, outH, outW,
			mult, -127, 127)
		for i := range want {
			if r := refRequant(int64(want[i]), mult, -127, 127); got[i] != r {
				t.Fatalf("geom %+v: element %d: packed %d, naive %d", g, i, got[i], r)
			}
		}
	}
}
