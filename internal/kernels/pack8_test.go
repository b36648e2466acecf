package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// refRequant is the scalar requantization the packed path fuses: the
// same float64 multiply, magic-constant round and clamp sequence as
// intinfer's requant.
func refRequant(acc int64, mult float64, lo, hi int32) int32 {
	f := float64(acc)*mult + roundMagic - roundMagic
	flo, fhi := float64(lo), float64(hi)
	if f > fhi {
		f = fhi
	} else if f < flo {
		f = flo
	}
	return int32(f)
}

// TestGemm8RowsMatchesGemmRequant is the golden identity the packed
// path rests on: for every m%4 × n%16 edge remainder and odd/even k,
// PackA + PackB + Gemm8Rows must equal the naive int64 GEMM followed by
// scalar requantization, bit for bit. On AVX2 hardware this exercises the
// assembly tile; elsewhere the portable twin — both must pass.
func TestGemm8RowsMatchesGemmRequant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ms := []int{4, 5, 6, 7, 12}    // every m%4 remainder
	ns := []int{16, 17, 30, 33, 1} // every n%16 remainder incl. the gemv shape
	ks := []int{1, 2, 9, 27, 64}   // odd and even depths
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				w := randCodes(rng, m*k)
				bias := make([]int32, m)
				for i := range bias {
					bias[i] = int32(rng.Intn(20001) - 10000)
				}
				x := randCodes(rng, k*n)

				// Reference: naive GEMM then scalar requant.
				mult := 1.0 / float64(1+rng.Intn(200))
				lo, hi := int32(-127), int32(127)
				if rng.Intn(2) == 0 {
					lo = 0 // fused-ReLU window
				}
				ref := make([]int32, m*n)
				for i, v := range refGemm(w, x, bias, m, n, k) {
					ref[i] = refRequant(v, mult, lo, hi)
				}

				// Packed path.
				pa := PackA(w, bias, m, k)
				xu := make([]uint8, k*n)
				OffsetU8(xu, x)
				pb := make([]uint8, PackBSize(k, n))
				PackB(pb, xu, k, n)
				got := make([]int32, m*n)
				Gemm8Rows(got, pa, pb, n, 0, pa.MP, mult, lo, hi)

				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("m=%d n=%d k=%d: element %d: packed=%d, ref=%d",
							m, n, k, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestGemm8RowsPanelPartition checks that disjoint panel ranges compose
// to the full result — the property InferBatchParallel's intra-image
// row partitioning relies on.
func TestGemm8RowsPanelPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, n, k := 11, 35, 18
	w := randCodes(rng, m*k)
	bias := randCodes(rng, m)
	x := randCodes(rng, k*n)
	pa := PackA(w, bias, m, k)
	xu := make([]uint8, k*n)
	OffsetU8(xu, x)
	pb := make([]uint8, PackBSize(k, n))
	PackB(pb, xu, k, n)
	mult, lo, hi := 0.031, int32(-127), int32(127)

	whole := make([]int32, m*n)
	Gemm8Rows(whole, pa, pb, n, 0, pa.MP, mult, lo, hi)

	parts := make([]int32, m*n)
	for p := 0; p < pa.MP; p++ {
		Gemm8Rows(parts, pa, pb, n, p, p+1, mult, lo, hi)
	}
	for i := range whole {
		if whole[i] != parts[i] {
			t.Fatalf("element %d: whole=%d, per-panel=%d", i, whole[i], parts[i])
		}
	}
}

// TestGemm8RowsSaturationBoundary drives the accumulator to the largest
// magnitudes AccumFitsU8 admits — max-magnitude weights against
// max-offset activations with a bias near the int32 rim — and checks
// the packed kernel against the naive int64 GEMM at the extremes, for
// the one-column shape and a full tile plus an edge.
func TestGemm8RowsSaturationBoundary(t *testing.T) {
	const m, k = 4, 32
	w := make([]int32, m*k)
	for i := range w {
		if i%2 == 0 {
			w[i] = 127
		} else {
			w[i] = -127
		}
	}
	bias := []int32{2146000000, -2146000000, 0, 1}
	pa := PackA(w, bias, m, k)
	if !AccumFitsU8(k, 127, pa.BiasMax()) {
		t.Fatalf("boundary geometry not admitted: k=%d wmax=127 biasMax=%d", k, pa.BiasMax())
	}
	for _, n := range []int{1, 17} {
		x := make([]int32, k*n)
		for i := range x {
			x[i] = 127 // offset-u8 image 255, the admission bound's worst case
		}
		ref := make([]int32, m*n)
		for i, v := range refGemm(w, x, bias, m, n, k) {
			ref[i] = refRequant(v, 1e-7, -127, 127)
		}
		xu := make([]uint8, k*n)
		OffsetU8(xu, x)
		pb := make([]uint8, PackBSize(k, n))
		PackB(pb, xu, k, n)
		got := make([]int32, m*n)
		Gemm8Rows(got, pa, pb, n, 0, pa.MP, 1e-7, -127, 127)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("n=%d element %d: packed=%d, ref=%d", n, i, got[i], ref[i])
			}
		}
	}
}

// TestPackACompensation pins the u8-offset identity at the pack level:
// the packed bias must be bias − 128·Σw per row, and BiasMax must track
// its largest magnitude before saturation.
func TestPackACompensation(t *testing.T) {
	w := []int32{1, -2, 3, 0, 127, -127} // rows: Σ=2, Σ=0
	bias := []int32{10, -5}
	pa := PackA(w, bias, 2, 3)
	if pa.bias[0] != 10-128*2 || pa.bias[1] != -5 {
		t.Fatalf("compensated bias = %v, want [%d %d]", pa.bias[:2], 10-128*2, -5)
	}
	if want := int64(128*2 - 10); pa.BiasMax() != want {
		t.Fatalf("BiasMax = %d, want %d", pa.BiasMax(), want)
	}
	// Padded rows (m=2 → one 4-row panel) must carry zero weights and bias.
	if pa.MP != 1 || pa.KQ != 2 {
		t.Fatalf("MP=%d KQ=%d, want 1, 2", pa.MP, pa.KQ)
	}
	for _, b := range pa.bias[2:] {
		if b != 0 {
			t.Fatalf("pad bias = %d, want 0", b)
		}
	}
	// Odd-k pad tap: entries at q=2 (pair 1 slot 1) must be zero.
	for r := 0; r < 4; r++ {
		if pa.data[1*8+r*2+1] != 0 {
			t.Fatalf("row %d pad tap nonzero", r)
		}
	}
}

// TestAccumFitsU8 pins the admission bound and its relation to
// ExactF64: packed admission is strictly stronger, so every packed
// linear can also run the float64 GEMV (the executor sends a batch of
// one image there).
func TestAccumFitsU8(t *testing.T) {
	if !AccumFitsU8(27, 127, 1<<20) {
		t.Fatal("small conv geometry must fit")
	}
	k := int(math.MaxInt32 / (255 * 127))
	if AccumFitsU8(k+1, 127, 0) {
		t.Fatal("bound must reject k just past the limit")
	}
	// At the largest admitted k, the uncompensated bias can be as large
	// as biasMax + 128·k·wmax; the float64 bound must still hold.
	if !AccumFitsU8(k, 127, 0) || !ExactF64(k, 127, 127, 128*int64(k)*127) {
		t.Fatal("AccumFitsU8 must imply ExactF64 for the uncompensated bias")
	}
}

// TestOffsetU8 covers the conversion the batched linear lane and
// PadU8's interior copy run.
func TestOffsetU8(t *testing.T) {
	src := []int32{-127, -1, 0, 1, 127}
	dst := make([]uint8, len(src))
	OffsetU8(dst, src)
	for i, v := range src {
		if int32(dst[i]) != v+128 {
			t.Fatalf("OffsetU8(%d) = %d, want %d", v, dst[i], v+128)
		}
	}
}

// TestPackBPadding pins the 128 (offset-zero) fill for pad columns and
// the odd-k pad tap, which is what makes edge tiles safe to compute at
// full width.
func TestPackBPadding(t *testing.T) {
	k, n := 3, 5
	src := make([]uint8, k*n)
	for i := range src {
		src[i] = uint8(i + 1)
	}
	dst := make([]uint8, PackBSize(k, n))
	PackB(dst, src, k, n)
	kq := (k + 1) / 2
	for q := 0; q < kq; q++ {
		grp := dst[q*32:][:32]
		for j := 0; j < 16; j++ {
			w0, w1 := grp[2*j], grp[2*j+1]
			var e0, e1 uint8 = 128, 128
			if j < n {
				e0 = src[2*q*n+j]
				if 2*q+1 < k {
					e1 = src[(2*q+1)*n+j]
				}
			}
			if w0 != e0 || w1 != e1 {
				t.Fatalf("q=%d j=%d: got (%d,%d), want (%d,%d)", q, j, w0, w1, e0, e1)
			}
		}
	}
}

// refIm2col is the naive per-element patch builder, the reference
// PackConvB's gather is checked against: padding taps are zero.
func refIm2col(dst, src []int32, c, h, w, kh, kw, stride, pad, outH, outW int) {
	n := outH * outW
	for ci := 0; ci < c; ci++ {
		plane := src[ci*h*w:][:h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				drow := dst[((ci*kh+ky)*kw+kx)*n:][:n]
				idx := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride + kx - pad
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							drow[idx] = 0
						} else {
							drow[idx] = plane[iy*w+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// gatherPatch reads the offset-u8 patch matrix PackConvB sees through
// ConvOffsets' tables over a PadU8 buffer: element (t, j) is
// padded[colBase[j]+tapOff[t]], laid out k×n like refIm2col's.
func gatherPatch(padded []uint8, colBase, tapOff []int) []uint8 {
	n := len(colBase)
	out := make([]uint8, len(tapOff)*n)
	for t, off := range tapOff {
		for j, base := range colBase {
			out[t*n+j] = padded[base+off]
		}
	}
	return out
}

// TestIm2colU8MatchesIm2col pins the offset-u8 im2col image the packed
// lane consumes — the padded input read through the gather tables — to
// the naive int32 patch matrix, element by element.
func TestIm2colU8MatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type geom struct{ c, h, w, kh, kw, stride, pad int }
	for _, g := range []geom{
		{3, 8, 8, 3, 3, 1, 1},
		{2, 7, 9, 3, 3, 2, 1},
		{1, 6, 6, 3, 3, 1, 0},
		{2, 9, 7, 5, 3, 2, 2},
	} {
		outH := (g.h+2*g.pad-g.kh)/g.stride + 1
		outW := (g.w+2*g.pad-g.kw)/g.stride + 1
		src := randCodes(rng, g.c*g.h*g.w)
		want := make([]int32, g.c*g.kh*g.kw*outH*outW)
		refIm2col(want, src, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, outH, outW)
		padded := make([]uint8, g.c*(g.h+2*g.pad)*(g.w+2*g.pad))
		PadU8(padded, src, g.c, g.h, g.w, g.pad)
		colBase, tapOff := ConvOffsets(g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, outH, outW)
		got := gatherPatch(padded, colBase, tapOff)
		for i := range want {
			if int32(got[i])-128 != want[i] {
				t.Fatalf("%+v: element %d: u8=%d, ref=%d", g, i, got[i], want[i])
			}
		}
	}
}

// TestIm2colBorderOnlyFill pins PadU8's border-only 128 fill on a
// buffer full of stale scratch bytes: every frame byte must read 128
// and every interior byte its code's offset image, so no stale byte
// survives, and the gathered patch matrix must equal the naive one for
// both pad cases, strided variants and a 1×1 conv.
func TestIm2colBorderOnlyFill(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	type geom struct{ c, h, w, kh, kw, stride, pad int }
	for _, g := range []geom{
		{2, 8, 8, 3, 3, 1, 0},
		{2, 8, 8, 3, 3, 1, 1},
		{1, 7, 9, 3, 3, 2, 0},
		{1, 7, 9, 3, 3, 2, 1},
		{3, 9, 7, 5, 3, 2, 2},
		{2, 6, 6, 1, 1, 1, 0},
	} {
		outH := (g.h+2*g.pad-g.kh)/g.stride + 1
		outW := (g.w+2*g.pad-g.kw)/g.stride + 1
		src := randCodes(rng, g.c*g.h*g.w)
		hp, wp := g.h+2*g.pad, g.w+2*g.pad
		padded := stale(g.c * hp * wp)
		PadU8(padded, src, g.c, g.h, g.w, g.pad)
		for ci := 0; ci < g.c; ci++ {
			for y := 0; y < hp; y++ {
				for x := 0; x < wp; x++ {
					want := int32(128)
					iy, ix := y-g.pad, x-g.pad
					if iy >= 0 && iy < g.h && ix >= 0 && ix < g.w {
						want += src[(ci*g.h+iy)*g.w+ix]
					}
					if got := padded[(ci*hp+y)*wp+x]; int32(got) != want {
						t.Fatalf("%+v: plane %d (%d,%d): got %d, want %d", g, ci, y, x, got, want)
					}
				}
			}
		}
		want := make([]int32, g.c*g.kh*g.kw*outH*outW)
		refIm2col(want, src, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, outH, outW)
		colBase, tapOff := ConvOffsets(g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, outH, outW)
		got := gatherPatch(padded, colBase, tapOff)
		for i := range want {
			if int32(got[i])-128 != want[i] {
				t.Fatalf("%+v: element %d: got %d, want %d", g, i, int32(got[i])-128, want[i])
			}
		}
	}
}

// TestRowSpan pins the border arithmetic of one tap along one row: the
// output columns [lo, hi) whose tap kx lands in the data. The gather
// reads a padded 1×w row through ConvOffsets (kernel pad+1 tall, so tap
// ky = pad hits the data row), and must stay inside the buffer and read
// the data exactly on [lo, hi) and the 128 frame elsewhere, including a
// strided tap right of the data and padding wider than the output.
func TestRowSpan(t *testing.T) {
	cases := []struct {
		w, kx, stride, pad, outW int
		lo, hi                   int
	}{
		{8, 0, 1, 0, 6, 0, 6}, // pad-free: whole row
		{8, 0, 1, 1, 8, 1, 8}, // left border from kx < pad
		{8, 2, 1, 1, 8, 0, 7}, // right border from kx > pad
		{7, 0, 2, 1, 4, 1, 4}, // strided left border
		{7, 2, 2, 1, 4, 0, 3}, // strided right border
		{4, 0, 1, 3, 4, 3, 4}, // pad wider than data
		{2, 4, 2, 2, 1, 0, 0}, // strided tap right of the data
		{3, 4, 2, 1, 1, 0, 0}, // and with less padding than the tap
		{1, 0, 1, 2, 1, 1, 1}, // padding wider than the whole output
	}
	for _, c := range cases {
		src := make([]int32, c.w)
		for i := range src {
			src[i] = int32(i + 1) // never 0, so data never reads as frame
		}
		wp := c.w + 2*c.pad
		padded := stale((1 + 2*c.pad) * wp)
		PadU8(padded, src, 1, 1, c.w, c.pad)
		kh, kw := c.pad+1, c.kx+1
		colBase, tapOff := ConvOffsets(1, 1, c.w, kh, kw, c.stride, c.pad, 1, c.outW)
		off := tapOff[c.pad*kw+c.kx]
		for ox := 0; ox < c.outW; ox++ {
			idx := colBase[ox] + off
			if idx >= len(padded) {
				t.Fatalf("%+v: ox=%d reads byte %d of a %d-byte buffer", c, ox, idx, len(padded))
			}
			ix := ox*c.stride + c.kx - c.pad
			in := ix >= 0 && ix < c.w
			if in != (ox >= c.lo && ox < c.hi) {
				t.Fatalf("%+v: ox=%d predicate mismatch", c, ox)
			}
			want := uint8(128)
			if in {
				want = uint8(src[ix] + 128)
			}
			if padded[idx] != want {
				t.Fatalf("%+v: ox=%d gathered %d, want %d", c, ox, padded[idx], want)
			}
		}
	}
}

// TestPackConvBMatchesIm2colPackB pins the one-pass gather to the
// two-pass lowering it replaces: PackConvB over PadU8's padded input
// must write exactly the bytes PackB writes over the offset-u8 image of
// the naive patch matrix. Both buffers start as stale bytes, so a frame
// byte PadU8 skips or a panel byte PackConvB skips fails the test.
// Hand-picked rows cover stride above the kernel, padding as wide as
// the kernel or wider, a strided tap right of the data, padding wider
// than the whole output, odd k, n off a multiple of 16 and 1×1
// pointwise convs; seeded random geometries cover the rest.
func TestPackConvBMatchesIm2colPackB(t *testing.T) {
	type geom struct{ c, h, w, kh, kw, stride, pad int }
	geoms := []geom{
		{3, 8, 8, 3, 3, 1, 1},
		{2, 7, 9, 3, 3, 2, 1},
		{1, 6, 6, 3, 3, 1, 0},
		{2, 9, 7, 5, 3, 2, 2},
		{2, 8, 8, 3, 3, 1, 0},
		{2, 8, 8, 3, 3, 1, 1},
		{1, 7, 9, 3, 3, 2, 0},
		{1, 7, 9, 3, 3, 2, 1},
		{3, 9, 7, 5, 3, 2, 2},
		{2, 6, 6, 1, 1, 1, 0}, // pointwise
		{3, 8, 8, 1, 1, 2, 0}, // strided 1×1 projection
		{1, 8, 8, 3, 3, 1, 1}, // left border from kx < pad, right from kx > pad
		{1, 7, 7, 3, 3, 2, 1}, // strided left and right borders
		{1, 4, 4, 7, 7, 1, 3}, // pad wider than the data
		{1, 4, 4, 3, 3, 1, 3}, // pad wider than the kernel
		{2, 2, 3, 2, 2, 2, 3}, // pad wider than the kernel, strided
		{1, 2, 2, 5, 5, 2, 2}, // strided tap right of the data
		{1, 3, 3, 5, 5, 2, 1}, // and with less padding than the tap
		{1, 1, 1, 5, 5, 1, 2}, // padding wider than the whole output
		{2, 9, 9, 1, 1, 3, 0}, // stride above the kernel
		{1, 7, 7, 2, 2, 3, 1}, // stride above the kernel, padded
	}
	rng := rand.New(rand.NewSource(47))
	for len(geoms) < 200 {
		g := geom{c: 1 + rng.Intn(4), h: 1 + rng.Intn(12), w: 1 + rng.Intn(12),
			stride: 1 + rng.Intn(4), pad: rng.Intn(5)}
		g.kh = 1 + rng.Intn(min(6, g.h+2*g.pad))
		g.kw = 1 + rng.Intn(min(6, g.w+2*g.pad))
		geoms = append(geoms, g)
	}
	for _, g := range geoms {
		outH := (g.h+2*g.pad-g.kh)/g.stride + 1
		outW := (g.w+2*g.pad-g.kw)/g.stride + 1
		src := randCodes(rng, g.c*g.h*g.w)
		kk := g.c * g.kh * g.kw
		n := outH * outW
		patch := make([]int32, kk*n)
		refIm2col(patch, src, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, outH, outW)
		u8 := make([]uint8, kk*n)
		OffsetU8(u8, patch)
		want := make([]uint8, PackBSize(kk, n))
		PackB(want, u8, kk, n)

		padded := stale(g.c * (g.h + 2*g.pad) * (g.w + 2*g.pad))
		PadU8(padded, src, g.c, g.h, g.w, g.pad)
		colBase, tapOff := ConvOffsets(g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, outH, outW)
		if len(colBase) != n || len(tapOff) != kk {
			t.Fatalf("%+v: tables %d×%d, want %d×%d", g, len(tapOff), len(colBase), kk, n)
		}
		got := stale(len(want))
		PackConvB(got, padded, colBase, tapOff)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: byte %d: gathered %d, im2col+PackB %d", g, i, got[i], want[i])
			}
		}
	}
}

// stale returns n bytes of leftover arena content, which a kernel that
// owns its output must overwrite.
func stale(n int) []uint8 {
	b := make([]uint8, n)
	for i := range b {
		b[i] = 0xAB
	}
	return b
}
