package kernels

import (
	"math"
	"math/rand"
	"testing"
)

func TestTileNormalize(t *testing.T) {
	cases := []struct {
		in   Tile
		m    int
		want Tile
	}{
		{Tile{}, 64, Tile{}},
		{Tile{MR: 8}, 256, Tile{MR: 8}},
		{Tile{MR: 7}, 256, Tile{MR: 4}},  // rounded to whole panels
		{Tile{MR: 64}, 8, Tile{}},        // covers every row
		{Tile{MR: 8}, 8, Tile{}},         // exactly every row
		{Tile{MR: -4}, 256, Tile{}},      // negative is unset
		{Tile{MR: 1}, 256, Tile{MR: 4}},  // below one panel
		{Tile{MR: 32}, 33, Tile{MR: 32}}, // one row short of covering
	}
	for _, c := range cases {
		if got := c.in.Normalize(c.m); got != c.want {
			t.Errorf("%v.Normalize(%d) = %v, want %v", c.in, c.m, got, c.want)
		}
	}
	if s := (Tile{}).String(); s != "unblocked" {
		t.Errorf("zero tile renders %q", s)
	}
	if s := (Tile{MR: 8}).String(); s != "mr8" {
		t.Errorf("tile renders %q", s)
	}
}

func TestRowPanels(t *testing.T) {
	cases := []struct{ mr, mp, want int }{
		{0, 7, 7},  // unblocked: one pass over everything
		{8, 7, 2},  // 8 rows = 2 panels
		{4, 7, 1},  // one panel at a time
		{2, 7, 1},  // sub-panel MR still advances
		{64, 7, 7}, // larger than the matrix clamps
	}
	for _, c := range cases {
		if got := RowPanels(c.mr, c.mp); got != c.want {
			t.Errorf("RowPanels(%d, %d) = %d, want %d", c.mr, c.mp, got, c.want)
		}
	}
}

// TestGemm8TunedMatchesGemmRequant runs the full blocked driver — the
// loop the autotuner times and the executor's single-threaded path —
// against the naive GEMM + requant reference for every candidate-shaped
// tile across edge geometries. Bit-identical results for every tile is
// the property that lets the tuner pick by time alone.
func TestGemm8TunedMatchesGemmRequant(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	tiles := []Tile{{}, {MR: 4}, {MR: 8}, {MR: 16}, {MR: 32}}
	for _, m := range []int{1, 5, 12, 30} {
		for _, n := range []int{1, 17, 64} {
			for _, k := range []int{3, 27, 64} {
				w := randCodes(rng, m*k)
				bias := randCodes(rng, m)
				x := randCodes(rng, k*n)
				mult := 1.0 / float64(1+rng.Intn(200))
				lo, hi := int32(-127), int32(127)
				if rng.Intn(2) == 0 {
					lo = 0
				}
				ref := make([]int32, m*n)
				for i, v := range refGemm(w, x, bias, m, n, k) {
					ref[i] = refRequant(v, mult, lo, hi)
				}

				pa := PackA(w, bias, m, k)
				xu := make([]uint8, k*n)
				OffsetU8(xu, x)
				pb := make([]uint8, PackBSize(k, n))
				PackB(pb, xu, k, n)
				got := make([]int32, m*n)
				for _, tile := range tiles {
					for i := range got {
						got[i] = math.MinInt32
					}
					Gemm8Tuned(got, pa, pb, n, tile, mult, lo, hi)
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("m=%d n=%d k=%d tile=%v: element %d: tuned=%d, ref=%d",
								m, n, k, tile, i, got[i], ref[i])
						}
					}
				}
			}
		}
	}
}

// TestGemv8RowsMatchesGemmRequant is the packed GEMV differential, the
// one-column (n=1) shape every linear layer runs: PackA + offset +
// PackB + Gemm8Rows must equal the naive GEMV followed by scalar
// requant, bit for bit, across every m%4 remainder (including m < 4)
// and odd/even k (the odd tail exercises the 128 pad tap).
func TestGemv8RowsMatchesGemmRequant(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, m := range []int{1, 2, 3, 4, 5, 10, 64} {
		for _, k := range []int{1, 2, 9, 27, 144} {
			w := randCodes(rng, m*k)
			bias := make([]int32, m)
			for i := range bias {
				bias[i] = int32(rng.Intn(20001) - 10000)
			}
			x := randCodes(rng, k)
			mult := 1.0 / float64(1+rng.Intn(200))
			lo, hi := int32(-127), int32(127)
			if rng.Intn(2) == 0 {
				lo = 0
			}
			ref := make([]int32, m)
			for i, v := range refGemm(w, x, bias, m, 1, k) {
				ref[i] = refRequant(v, mult, lo, hi)
			}

			pa := PackA(w, bias, m, k)
			xu := make([]uint8, k)
			OffsetU8(xu, x)
			pb := make([]uint8, PackBSize(k, 1))
			PackB(pb, xu, k, 1)
			got := make([]int32, m)
			Gemm8Rows(got, pa, pb, 1, 0, pa.MP, mult, lo, hi)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("m=%d k=%d: row %d: packed=%d, ref=%d", m, k, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestGemv8RowsPanelPartition: for the one-column shape, disjoint panel
// ranges compose to the full vector, the property row-partitioned
// linear dispatch relies on.
func TestGemv8RowsPanelPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	m, k := 11, 18
	w := randCodes(rng, m*k)
	bias := randCodes(rng, m)
	x := randCodes(rng, k)
	pa := PackA(w, bias, m, k)
	xu := make([]uint8, k)
	OffsetU8(xu, x)
	pb := make([]uint8, PackBSize(k, 1))
	PackB(pb, xu, k, 1)
	mult, lo, hi := 0.031, int32(-127), int32(127)

	whole := make([]int32, m)
	Gemm8Rows(whole, pa, pb, 1, 0, pa.MP, mult, lo, hi)
	parts := make([]int32, m)
	for p := 0; p < pa.MP; p++ {
		Gemm8Rows(parts, pa, pb, 1, p, p+1, mult, lo, hi)
	}
	for i := range whole {
		if whole[i] != parts[i] {
			t.Fatalf("row %d: whole=%d, per-panel=%d", i, whole[i], parts[i])
		}
	}
}
