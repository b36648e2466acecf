// Package core implements Term Revealing (TR), the paper's primary
// contribution: a run-time, group-based quantization applied on top of
// conventionally quantized (fixed-point) DNN values.
//
// TR partitions the values participating in a dot product into groups of
// size g, decomposes each value into signed power-of-two terms, and keeps
// only the k largest-exponent terms across the whole group (the group
// budget), pruning the rest with a "receding water" scan from the highest
// exponent down (Fig. 6 of the paper). This bounds the term-pair
// multiplications per group to k·s (s = max terms per data value), far
// below the 7·7·g worst case of 8-bit values, enabling tightly
// synchronized processor arrays.
package core

import (
	"fmt"
	"math"

	"repro/internal/term"
)

// Config describes a TR setting.
type Config struct {
	// GroupSize is g, the number of values per group (1, 2, 3, 4, 8, 16,
	// ... in the paper). GroupSize 1 degenerates to per-value truncation.
	GroupSize int
	// GroupBudget is k, the number of terms budgeted to each group.
	GroupBudget int
	// DataTerms is s, the maximum number of leading terms kept per data
	// value after HESE encoding (Sec. V-A). Zero means unlimited.
	DataTerms int
	// WeightEncoding and DataEncoding select the term decomposition
	// applied to weight and data values before term selection.
	WeightEncoding term.Encoding
	DataEncoding   term.Encoding
}

// Alpha returns α = k/g, the average number of terms budgeted per value.
func (c Config) Alpha() float64 {
	return float64(c.GroupBudget) / float64(c.GroupSize)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.GroupSize < 1 {
		return fmt.Errorf("core: group size must be >= 1, got %d", c.GroupSize)
	}
	if c.GroupBudget < 1 {
		return fmt.Errorf("core: group budget must be >= 1, got %d", c.GroupBudget)
	}
	if c.DataTerms < 0 {
		return fmt.Errorf("core: data terms must be >= 0, got %d", c.DataTerms)
	}
	return nil
}

// String renders the setting the way the paper reports it.
func (c Config) String() string {
	return fmt.Sprintf("TR(g=%d,k=%d,s=%d,%v/%v)",
		c.GroupSize, c.GroupBudget, c.DataTerms, c.WeightEncoding, c.DataEncoding)
}

// smallGroup is the largest group size served by the stack-allocated
// fast paths in Reveal and Waterline — covers every group size the paper
// evaluates (g ≤ 16).
const smallGroup = 16

// groupStats returns the total term count and the largest exponent
// present across a group — the shared prologue of Reveal and Waterline.
func groupStats(group []term.Expansion) (total, maxExp int) {
	maxExp = -1
	for _, e := range group {
		total += len(e)
		if me := e.MaxExp(); me > maxExp {
			maxExp = me
		}
	}
	return total, maxExp
}

// recede runs the receding-water scan: one waterline level at a time
// from maxExp down to 2^0, visiting group members in order within a
// level (Fig. 6, where the budget is exhausted mid-row and the remaining
// terms at that level are pruned). It stops once limit terms are kept
// and returns the level it stopped at, or 0 when the group ran out of
// terms first. next (one zeroed cursor per member) ends holding each
// member's kept-term count. A non-nil order is extended with the member
// index of every kept term in the order the scan kept it, so the first b
// entries of the order are what budget b keeps.
func recede(group []term.Expansion, maxExp, limit int, next []int, order *[]int) int {
	remaining := limit
	for exp := maxExp; exp >= 0; exp-- {
		for i, e := range group {
			if next[i] < len(e) && int(e[next[i]].Exp) == exp {
				next[i]++
				if order != nil {
					*order = append(*order, i)
				}
				remaining--
				if remaining == 0 {
					return exp
				}
			}
		}
	}
	return 0
}

// cursors returns n zeroed per-member cursors: paper-scale groups
// (g ≤ 16) use buf on the caller's stack, only oversized groups pay for
// a heap slice.
func cursors(buf *[smallGroup]int, n int) []int {
	if n > smallGroup {
		return make([]int, n)
	}
	c := buf[:n]
	clear(c)
	return c
}

// groupBudget scales budget to a group of n members (n < groupSize only
// for a tail group), rounding up so α is preserved at the boundary.
func groupBudget(budget, n, groupSize int) int {
	return (budget*n + groupSize - 1) / groupSize
}

// countReveal records one group revealed at budget against the TR
// counters.
func countReveal(total, budget int) {
	mRevealGroups.Inc()
	if total <= budget {
		mTermsKept.Add(int64(total))
		return
	}
	mTermsKept.Add(int64(budget))
	mTermsPruned.Add(int64(total - budget))
}

// Reveal applies the receding-water algorithm to a group of expansions,
// returning for each member the prefix that survives the group budget
// (see recede for the scan order). Groups with no more than budget terms
// are returned unchanged.
//
// The returned expansions alias the inputs (they are prefixes); callers
// that need independent storage should Clone.
func Reveal(group []term.Expansion, budget int) []term.Expansion {
	out := make([]term.Expansion, len(group))
	total, maxExp := groupStats(group)
	countReveal(total, budget)
	if total <= budget {
		copy(out, group)
		return out
	}
	var buf [smallGroup]int
	kept := cursors(&buf, len(group))
	recede(group, maxExp, budget, kept, nil)
	for i, e := range group {
		out[i] = e[:kept[i]]
	}
	return out
}

// Waterline returns the exponent at which the receding-water scan stops
// for the given group and budget: terms with exponents strictly below the
// returned level are guaranteed pruned. It returns -1 when no pruning
// occurs (the group fits its budget).
func Waterline(group []term.Expansion, budget int) int {
	level := waterline(group, budget)
	mWaterline.Observe(float64(level))
	return level
}

func waterline(group []term.Expansion, budget int) int {
	total, maxExp := groupStats(group)
	if total <= budget {
		return -1
	}
	var buf [smallGroup]int
	return recede(group, maxExp, budget, cursors(&buf, len(group)), nil)
}

// RevealValues encodes vals with enc, partitions them into consecutive
// groups of groupSize, applies the receding-water selection with budget,
// and returns both the revealed expansions and the truncated integer
// values they reconstruct to. A tail group shorter than groupSize receives
// a proportionally scaled budget (rounded up), so α is preserved at the
// boundary.
//
// Encoding goes through the term package's int8 lookup table, so the
// returned expansions alias shared read-only storage: re-slice freely,
// but Clone before modifying terms in place.
func RevealValues(vals []int32, enc term.Encoding, groupSize, budget int) ([]term.Expansion, []int32) {
	exps := make([]term.Expansion, len(vals))
	for i, v := range vals {
		exps[i] = term.EncodeCached(v, enc)
	}
	out := make([]int32, len(vals))
	for start := 0; start < len(vals); start += groupSize {
		end := min(start+groupSize, len(vals))
		revealed := Reveal(exps[start:end], groupBudget(budget, end-start, groupSize))
		for j, e := range revealed {
			exps[start+j] = e
			out[start+j] = e.Value()
		}
	}
	return exps, out
}

// RevealLadder is RevealValues at every budget in budgets at once,
// returning only the values: out[r] holds vals revealed at budgets[r].
// Each value is encoded once and each group scanned once, because the
// receding-water order does not depend on the budget — every budget
// keeps a prefix of the same scan (the truncation-ready property). Tail
// groups rescale each budget and groups within a budget are copied,
// exactly as RevealValues does, and the TR counters advance as if
// RevealValues had run once per budget. Budgets must be positive.
func RevealLadder(vals []int32, enc term.Encoding, groupSize int, budgets []int) [][]int32 {
	out := make([][]int32, len(budgets))
	for r, b := range budgets {
		if b < 1 {
			panic(fmt.Sprintf("core: RevealLadder budget %d, want >= 1", b))
		}
		out[r] = make([]int32, len(vals))
	}
	exps := make([]term.Expansion, len(vals))
	for i, v := range vals {
		exps[i] = term.EncodeCached(v, enc)
	}
	var buf [smallGroup]int
	var order []int // reused across groups
	for start := 0; start < len(vals); start += groupSize {
		end := min(start+groupSize, len(vals))
		group := exps[start:end]
		total, maxExp := groupStats(group)
		limit := 0 // the longest prefix any truncating budget keeps
		for _, b := range budgets {
			if b = groupBudget(b, len(group), groupSize); b < total {
				limit = max(limit, b)
			}
		}
		order = order[:0]
		if limit > 0 {
			recede(group, maxExp, limit, cursors(&buf, len(group)), &order)
		}
		for r, b := range budgets {
			b = groupBudget(b, len(group), groupSize)
			countReveal(total, b)
			dst := out[r][start:end]
			if total <= b {
				for j, e := range group {
					dst[j] = e.Value()
				}
				continue
			}
			kept := cursors(&buf, len(group))
			for _, i := range order[:b] {
				kept[i]++
			}
			for j, e := range group {
				dst[j] = e[:kept[j]].Value()
			}
		}
	}
	return out
}

// TruncateData encodes each value with enc and keeps its top s terms (the
// per-value truncation applied to data under HESE; Sec. V-A). s <= 0
// leaves values untouched. Like RevealValues, the returned expansions
// alias the term package's shared encode cache and are read-only.
func TruncateData(vals []int32, enc term.Encoding, s int) ([]term.Expansion, []int32) {
	exps := make([]term.Expansion, len(vals))
	out := make([]int32, len(vals))
	for i, v := range vals {
		e := term.EncodeCached(v, enc)
		if s > 0 {
			e = term.TopTerms(e, s)
		}
		exps[i] = e
		out[i] = e.Value()
	}
	return exps, out
}

// DotTermPairs computes the dot product of two equally long vectors given
// as term expansions, using term-pair multiplications exactly as the tMAC
// hardware does: every (weight term, data term) pair contributes
// ±2^(ew+ex). It returns the dot product and the number of term pairs
// processed.
func DotTermPairs(w, x []term.Expansion) (int64, int) {
	if len(w) != len(x) {
		panic("core: mismatched vector lengths in DotTermPairs")
	}
	var sum int64
	pairs := 0
	for i := range w {
		for _, tw := range w[i] {
			for _, tx := range x[i] {
				p := int64(1) << (tw.Exp + tx.Exp)
				if tw.Neg != tx.Neg {
					p = -p
				}
				sum += p
				pairs++
			}
		}
	}
	mTermPairs.Add(int64(pairs))
	return sum, pairs
}

// TermPairCount returns the number of term-pair multiplications a grouped
// dot product of w and x requires (Σ r_i·k_i in Sec. III-D), without
// computing the product.
func TermPairCount(w, x []term.Expansion) int {
	if len(w) != len(x) {
		panic("core: mismatched vector lengths in TermPairCount")
	}
	n := 0
	for i := range w {
		n += len(w[i]) * len(x[i])
	}
	return n
}

// MaxTermPairsPerGroup returns the synchronization bound a TR group obeys:
// k·s term pairs when data values carry at most s terms (Sec. III-D/V-A).
// With s = 0 (unbounded) the bound uses 7 terms per data value, the 8-bit
// worst case.
func (c Config) MaxTermPairsPerGroup() int {
	s := c.DataTerms
	if s <= 0 {
		s = 7
	}
	return c.GroupBudget * s
}

// BaselineTermPairsPerGroup returns the worst-case pairs per group for
// conventional n-bit quantization without TR: (n-1)·(n-1)·g (each value
// has up to n-1 magnitude terms).
func BaselineTermPairsPerGroup(bits, groupSize int) int {
	t := bits - 1
	return t * t * groupSize
}

// SigmaBound returns the Sec. III-F upper bound on the truncation-induced
// relative error σ of a single value given the waterline exponent i:
// truncated terms are worth at most 2^i - 1 per value while kept terms are
// worth at least 2^(i+1) when α ≥ 1.5, so σ ≤ (2^i - 1)/2^(i+1) < 1/2.
func SigmaBound(waterline int) float64 {
	if waterline < 0 {
		return 0
	}
	num := math.Pow(2, float64(waterline)) - 1
	den := math.Pow(2, float64(waterline)+1)
	return num / den
}

// GroupError reports the reconstruction error TR introduced for a group:
// the summed absolute error Σ|v - v'| and the relative error
// Σ|v - v'| / Σ|v| (zero denominator yields zero).
func GroupError(orig, revealed []int32) (abs int64, rel float64) {
	var num, den int64
	for i := range orig {
		d := int64(orig[i]) - int64(revealed[i])
		if d < 0 {
			d = -d
		}
		num += d
		a := int64(orig[i])
		if a < 0 {
			a = -a
		}
		den += a
	}
	if den == 0 {
		return num, 0
	}
	return num, float64(num) / float64(den)
}

// MatMulTermPairs returns the exact number of term-pair multiplications
// required by the matrix product W·X, where wCounts[m][k] and
// xCounts[k][n] are per-element term counts. It exploits
// Σ_{m,k,n} w[m][k]·x[k][n] = Σ_k (Σ_m w[m][k])·(Σ_n x[k][n]) to run in
// O(MK + KN).
func MatMulTermPairs(wCounts, xCounts [][]int) int64 {
	if len(wCounts) == 0 || len(xCounts) == 0 {
		return 0
	}
	kDim := len(xCounts)
	if len(wCounts[0]) != kDim {
		panic("core: inner dimensions disagree in MatMulTermPairs")
	}
	wCol := make([]int64, kDim)
	for _, row := range wCounts {
		for k, c := range row {
			wCol[k] += int64(c)
		}
	}
	var total int64
	for k, row := range xCounts {
		var rowSum int64
		for _, c := range row {
			rowSum += int64(c)
		}
		total += wCol[k] * rowSum
	}
	return total
}
