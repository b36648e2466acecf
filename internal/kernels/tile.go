package kernels

import "strconv"

// TuneVersion identifies the packed-kernel generation for the autotune
// disk cache (internal/kernels/autotune). Bump it whenever a change to
// the packed kernels, panel layouts, or the blocked driver below could
// shift the performance ranking of tiles — stale picks are then ignored
// because the cache file name embeds the version.
const TuneVersion = 2

// Tile is the blocking geometry of one packed-GEMM invocation. It never
// changes arithmetic — every output element accumulates its full k
// depth in registers in a fixed order regardless of blocking, so any
// Tile produces bit-identical results — it only reorders memory
// traversal, which is what lets the autotuner pick by time alone.
//
//	MR: output-row block in rows (multiple of 4, the panel height). The
//	    blocked driver walks row panels in MR-row groups, keeping each
//	    A block resident while the packed B panels stream past; it is
//	    also the granularity the intra-image fan-out hands a worker.
//
// The zero value means "unblocked": one pass over every row panel.
type Tile struct {
	MR int
}

// String renders the tile for cache files and logs.
func (t Tile) String() string {
	if t == (Tile{}) {
		return "unblocked"
	}
	return "mr" + strconv.Itoa(t.MR)
}

// Normalize clamps a tile to the legal blocking grid of an m-row
// problem: MR to whole 4-row panels within m. An MR that is unset, out
// of range, or covers every row collapses to 0 (unblocked), so
// equivalent tiles compare equal — the autotuner deduplicates
// candidates on the normalized form.
func (t Tile) Normalize(m int) Tile {
	mr := t.MR
	if mr <= 0 {
		return Tile{}
	}
	mr = max(mr-mr%4, 4)
	if mr >= m {
		return Tile{}
	}
	return Tile{MR: mr}
}

// RowPanels converts a tile's MR (rows) into the row-panel block the
// drivers iterate by, over a matrix of mp total panels: 0 (unblocked)
// or an MR covering every row yields mp.
func RowPanels(mr, mp int) int {
	if mr <= 0 {
		return mp
	}
	p := mr / 4
	if p < 1 {
		p = 1
	}
	if p > mp {
		p = mp
	}
	return p
}

// Gemm8Tuned is the single-threaded blocked driver over the packed
// kernel: it computes row panels in MR-row blocks against the packed B
// panels pb (PackB or PackConvB output for pa.K × n). Output is
// bit-identical to one Gemm8Rows over every panel for every tile
// (blocking only reorders traversal); this is both the execution shape
// the plan executor uses when it does not fan rows out and the exact
// loop the autotuner times. dst must hold m×n int32s.
func Gemm8Tuned(dst []int32, pa *PackedA, pb []uint8, n int, t Tile, mult float64, lo, hi int32) {
	mrp := RowPanels(t.MR, pa.MP)
	for p0 := 0; p0 < pa.MP; p0 += mrp {
		p1 := p0 + mrp
		if p1 > pa.MP {
			p1 = pa.MP
		}
		Gemm8Rows(dst, pa, pb, n, p0, p1, mult, lo, hi)
	}
}
