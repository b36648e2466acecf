package kernels

import "math"

// Packed int8 GEMM path. Each weight matrix is repacked once at
// plan-build time into microkernel-shaped panels, the activations are
// gathered straight into panels as offset-u8 bytes, and the
// requantization epilogue is fused into the 4×16 register tile, so
// per-image work is one pass over int8-range data with no int32
// round-trip buffer.
//
// Layouts (MR = 4 output rows, NR = 16 output columns, KU = 2 taps):
//
//	A (weights, packed once by PackA): row panels of 4 rows. Panel p
//	holds rows 4p..4p+3 as KQ = ⌈k/2⌉ groups of 8 int16 entries
//	[r0k0 r0k1 r1k0 r1k1 r2k0 r2k1 r3k0 r3k1] — each row's tap pair
//	is one 32-bit lane for VPBROADCASTD. Codes are int8-range; the
//	int16 storage is what VPMADDWD multiplies directly. Rows past m
//	and taps past k pad with zero.
//
//	B (activations, packed per image: a convolution's by PackConvB from
//	its padded input, a batched linear's by PackB): column panels of 16.
//	Panel c holds columns 16c..16c+15 as KQ groups of 32 bytes
//	[c0k0 c0k1 c1k0 c1k1 … c15k0 c15k1] — one VPMOVZXBW pair-load per
//	8 columns. Entries are offset-u8 codes (x+128 ∈ [1,255], the
//	u8-offset trick); pad columns and pad taps hold 128 (offset zero).
//
// The u8 offset makes every B entry non-negative so one widening load
// feeds VPMADDWD without a sign fixup per element; the constant it
// injects, 128·Σ_q w[i,q] per output row, is folded into the packed
// bias at PackA time, so the kernel applies the exact correction for
// free with the bias add. Exactness: |Σ(x+128)·w| ≤ k·255·|w|max and
// the compensated bias both fit int32 under AccumFitsU8, VPMADDWD is
// exact on (≤255)×(≤127) pairs, and the epilogue performs the same
// float64 multiply/magic-round/clamp sequence as the scalar requant,
// so the packed path is bit-identical to a 64-bit integer GEMM followed
// by requant.

// PackedA is a weight matrix in packed panel form, built once at plan
// time by PackA and shared read-only by every inference.
type PackedA struct {
	data []int16 // MP panels × KQ × 8 entries
	bias []int32 // compensated bias, padded to 4·MP rows
	// M×K are the logical matrix dimensions; KQ = ⌈K/2⌉ tap pairs and
	// MP = ⌈M/4⌉ row panels describe the padded panel grid.
	M, K, KQ, MP int

	biasMax int64 // max |compensated bias| before int32 saturation
}

// PackA repacks an m×k row-major weight-code matrix (and its
// accumulator-scale bias, len m) into panel form. The returned panels
// embed the u8-offset compensation: bias[i] − 128·Σ_q w[i,q]. A
// compensated bias that overflows int32 is saturated here and the
// overflow is visible through BiasMax, which AccumFitsU8 rejects — a
// saturated pack never reaches the kernel.
func PackA(w, bias []int32, m, k int) *PackedA {
	kq := (k + 1) / 2
	mp := (m + 3) / 4
	pa := &PackedA{data: make([]int16, mp*kq*8), bias: make([]int32, mp*4),
		M: m, K: k, KQ: kq, MP: mp}
	for i := 0; i < m; i++ {
		row := w[i*k : (i+1)*k]
		panel := pa.data[(i/4)*kq*8:]
		r := i % 4
		var rowSum int64
		for q, c := range row {
			// Weight codes are int8-range by the quantizer's contract;
			// int16 panel storage is exact.
			panel[(q/2)*8+r*2+q%2] = int16(c) //trlint:checked int8-range code into int16
			rowSum += int64(c)
		}
		comp := int64(bias[i]) - 128*rowSum
		if a := comp; a < 0 {
			a = -a
			if a > pa.biasMax {
				pa.biasMax = a
			}
		} else if a > pa.biasMax {
			pa.biasMax = a
		}
		if comp > math.MaxInt32 {
			comp = math.MaxInt32
		} else if comp < math.MinInt32 {
			comp = math.MinInt32
		}
		pa.bias[i] = int32(comp)
	}
	return pa
}

// BiasMax returns the largest compensated-bias magnitude, the bias
// term of the AccumFitsU8 admission bound.
func (pa *PackedA) BiasMax() int64 { return pa.biasMax }

// AccumFitsU8 reports whether the packed kernel's int32 accumulator is
// overflow-free: B entries are offset-u8 codes bounded by 255, so a
// k-deep dot against |w| ≤ wmax plus a compensated bias of magnitude ≤
// biasMax must satisfy k·255·wmax + biasMax ≤ MaxInt32. It implies
// ExactF64(k, wmax, 127, |bias|) for the uncompensated bias (|bias| ≤
// biasMax + 128·k·wmax, and k·255·wmax + biasMax < 2^31 ≪ 2^53), so
// every packed linear can also run the float64 GEMV.
func AccumFitsU8(k int, wmax, biasMax int64) bool {
	return int64(k)*255*wmax+biasMax <= math.MaxInt32
}

// PackBSize returns the byte length PackB needs for a k×n matrix.
func PackBSize(k, n int) int { return ((k + 1) / 2) * ((n + 15) / 16) * 32 }

// PackB lays a k×n row-major offset-u8 matrix out into column panels
// (see the layout comment above) — the batched linear lane's operand.
// dst must have PackBSize(k, n) bytes; pad columns and a pad tap for
// odd k are written as 128 so they contribute exactly zero against real
// or zero-padded weights.
func PackB(dst, src []uint8, k, n int) {
	kq := (k + 1) / 2
	for cp := 0; cp*16 < n; cp++ {
		j0 := cp * 16
		cols := min(n-j0, 16)
		out := dst[cp*kq*32:][:kq*32]
		for q := 0; q < kq; q++ {
			o := out[q*32:][:32]
			r0 := src[2*q*n+j0:][:cols]
			if 2*q+1 < k {
				r1 := src[(2*q+1)*n+j0:][:cols]
				for j, v := range r0 {
					o[2*j] = v
					o[2*j+1] = r1[j]
				}
			} else {
				for j, v := range r0 {
					o[2*j] = v
					o[2*j+1] = 128
				}
			}
			fill128(o[2*cols:])
		}
	}
}

// PadU8 copies c channel planes of h×w int8-range codes into dst as
// offset-u8 bytes, each plane framed by pad columns and rows of 128 (the
// offset image of zero), so dst holds c planes of (h+2·pad)×(w+2·pad)
// bytes. Only the frame is filled; the interior is written once from
// src. Activation codes are clamped to [-127, 127] by every producer,
// so the offset stays in [1, 255].
func PadU8(dst []uint8, src []int32, c, h, w, pad int) {
	wp := w + 2*pad
	for ci := 0; ci < c; ci++ {
		plane := dst[ci*(h+2*pad)*wp:][:(h+2*pad)*wp]
		fill128(plane[:pad*wp])
		for y := 0; y < h; y++ {
			row := plane[(pad+y)*wp:][:wp]
			fill128(row[:pad])
			OffsetU8(row[pad:pad+w], src[(ci*h+y)*w:][:w])
			fill128(row[pad+w:])
		}
		fill128(plane[(pad+h)*wp:])
	}
}

// ConvOffsets returns the gather tables PackConvB reads a convolution's
// patch matrix through, for a c×h×w input padded by PadU8: colBase[j]
// is the padded-plane offset of output pixel j's top-left tap
// (oy·stride·Wp + ox·stride) and tapOff[t] that of tap t = (ci, ky, kx)
// relative to it (ci·Hp·Wp + ky·Wp + kx), so patch element (t, j) is
// padded[colBase[j]+tapOff[t]]. The tables depend only on geometry.
func ConvOffsets(c, h, w, kh, kw, stride, pad, outH, outW int) (colBase, tapOff []int) {
	hp, wp := h+2*pad, w+2*pad
	colBase = make([]int, 0, outH*outW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			colBase = append(colBase, oy*stride*wp+ox*stride)
		}
	}
	tapOff = make([]int, 0, c*kh*kw)
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				tapOff = append(tapOff, ci*hp*wp+ky*wp+kx)
			}
		}
	}
	return colBase, tapOff
}

// PackConvB gathers a convolution's B panels straight from its padded
// offset-u8 input (PadU8): patch element (t, j) is
// padded[colBase[j]+tapOff[t]] (ConvOffsets), written in PackB's panel
// layout for k = len(tapOff) taps by n = len(colBase) output pixels. The
// bytes equal PackB over the offset-u8 im2col patch matrix, with no
// patch matrix in between and no bounds logic: the padding taps read
// the 128 frame PadU8 wrote. dst must have PackBSize(k, n) bytes.
func PackConvB(dst, padded []uint8, colBase, tapOff []int) {
	k, n := len(tapOff), len(colBase)
	kq := (k + 1) / 2
	for cp := 0; cp*16 < n; cp++ {
		cb := colBase[cp*16 : min(cp*16+16, n)]
		out := dst[cp*kq*32:][:kq*32]
		for q := 0; q < kq; q++ {
			o := out[q*32:][:32]
			t0 := padded[tapOff[2*q]:]
			if 2*q+1 < k {
				t1 := padded[tapOff[2*q+1]:]
				for j, c := range cb {
					o[2*j] = t0[c]
					o[2*j+1] = t1[c]
				}
			} else {
				for j, c := range cb {
					o[2*j] = t0[c]
					o[2*j+1] = 128
				}
			}
			fill128(o[2*len(cb):])
		}
	}
}

func fill128(s []uint8) {
	for i := range s {
		s[i] = 128
	}
}

// OffsetU8 converts a slice of int8-range codes to the offset-u8
// domain: the batched linear lane's re-offset between layers, and
// PadU8's interior copy.
func OffsetU8(dst []uint8, src []int32) {
	for i, v := range src {
		dst[i] = uint8(v + 128) //trlint:checked codes are clamped to [-127,127], so +128 is in [1,255]
	}
}

// Gemm8Rows computes output row panels [p0, p1) of the packed GEMM
// with the requantization fused: dst rows 4·p0 … min(4·p1, m) of the
// m×n result receive requant(bias ⊕ A·B) directly as int8-range codes,
// with no intermediate int32 matrix. pb holds the k×n B operand's
// panels (PackConvB or PackB output). Disjoint panel ranges write disjoint dst rows, so
// the intra-image row partitioning fans panels across goroutines with
// no synchronization.
func Gemm8Rows(dst []int32, pa *PackedA, pb []uint8, n, p0, p1 int, mult float64, lo, hi int32) {
	if haveGemm8 {
		gemm8ASM.Inc()
	} else {
		gemm8Portable.Inc()
	}
	np := (n + 15) / 16
	kq := pa.KQ
	flo, fhi := float64(lo), float64(hi)
	for p := p0; p < p1; p++ {
		apanel := pa.data[p*kq*8:][:kq*8]
		quad := pa.bias[4*p:][:4]
		rows := pa.M - 4*p
		if rows > 4 {
			rows = 4
		}
		for cp := 0; cp < np; cp++ {
			bpanel := pb[cp*kq*32:][:kq*32]
			cols := n - cp*16
			if rows == 4 && cols >= 16 {
				d := dst[4*p*n+cp*16:]
				if haveGemm8 {
					gemm8tile(d, n, apanel, bpanel, kq, quad, mult, flo, fhi)
				} else {
					gemm8tileGo(d, n, apanel, bpanel, kq, quad, mult, flo, fhi)
				}
				continue
			}
			// Edge tile: compute the full 4×16 tile into a spill buffer
			// (pad rows carry zero weights, pad columns 128-bytes; both
			// requantize to in-range garbage) and copy out the live part.
			if cols > 16 {
				cols = 16
			}
			var tile [64]int32
			if haveGemm8 {
				gemm8tile(tile[:], 16, apanel, bpanel, kq, quad, mult, flo, fhi)
			} else {
				gemm8tileGo(tile[:], 16, apanel, bpanel, kq, quad, mult, flo, fhi)
			}
			for r := 0; r < rows; r++ {
				copy(dst[(4*p+r)*n+cp*16:][:cols], tile[r*16:][:cols])
			}
		}
	}
}

// gemm8tileGo is the portable tile kernel and the differential
// reference for the assembly twin: identical 4×16 tile shape, identical
// accumulation order per lane (each output column accumulates its own
// k-pairs in sequence — int32 addition is associative, so any k order
// matches), and the identical float64 requant sequence.
func gemm8tileGo(dst []int32, stride int, a []int16, b []uint8, kq int, bias []int32, mult, lo, hi float64) {
	var acc [4][16]int32
	for kp := 0; kp < kq; kp++ {
		bb := b[kp*32:][:32]
		aa := a[kp*8:][:8]
		for r := 0; r < 4; r++ {
			w0, w1 := int32(aa[r*2]), int32(aa[r*2+1])
			if w0 == 0 && w1 == 0 {
				continue
			}
			ar := &acc[r]
			for j := 0; j < 16; j++ {
				ar[j] += w0*int32(bb[2*j]) + w1*int32(bb[2*j+1])
			}
		}
	}
	for r := 0; r < 4; r++ {
		d := dst[r*stride:][:16]
		br := bias[r]
		for j, v := range acc[r] {
			// The same magic-constant round and clamp as requant; the
			// clamp bounds every value to the [lo, hi] code window.
			f := float64(v+br)*mult + roundMagic - roundMagic
			if f > hi {
				f = hi
			} else if f < lo {
				f = lo
			}
			d[j] = int32(f) //trlint:checked clamped to the [lo, hi] code window above
		}
	}
}
