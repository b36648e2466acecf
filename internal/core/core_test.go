package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/term"
)

func expand(vals []int32, enc term.Encoding) []term.Expansion {
	es := make([]term.Expansion, len(vals))
	for i, v := range vals {
		es[i] = term.Encode(v, enc)
	}
	return es
}

func values(es []term.Expansion) []int32 {
	vs := make([]int32, len(es))
	for i, e := range es {
		vs[i] = e.Value()
	}
	return vs
}

func TestConfigAlphaAndString(t *testing.T) {
	c := Config{GroupSize: 8, GroupBudget: 12, DataTerms: 3}
	if c.Alpha() != 1.5 {
		t.Errorf("Alpha = %v, want 1.5", c.Alpha())
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{GroupSize: 8, GroupBudget: 12, DataTerms: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, c := range []Config{
		{GroupSize: 0, GroupBudget: 1},
		{GroupSize: 1, GroupBudget: 0},
		{GroupSize: 1, GroupBudget: 1, DataTerms: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config %+v accepted", c)
		}
	}
}

// A concrete receding-water walk in the spirit of Fig. 6: group of g=3,
// budget k=4. w1=12 (2^3+2^2), w2=40 (2^5+2^3), w3=81 (2^6+2^4+2^0).
// Scan: 2^6:w3 (1), 2^5:w2 (2), 2^4:w3 (3), 2^3:w1 (4) — budget reached;
// w2's 2^3 at the same level and everything below is pruned. As in the
// paper's figure, w3 is quantized from 81 to 80.
func TestRevealFig6Walk(t *testing.T) {
	group := expand([]int32{12, 40, 81}, term.Binary)
	revealed := Reveal(group, 4)
	got := values(revealed)
	want := []int32{8, 32, 80}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("revealed = %v, want %v", got, want)
		}
	}
	total := 0
	for _, e := range revealed {
		total += len(e)
	}
	if total != 4 {
		t.Errorf("kept %d terms, want exactly the budget 4", total)
	}
	if wl := Waterline(group, 4); wl != 3 {
		t.Errorf("Waterline = %d, want 3", wl)
	}
}

// Fig. 7 group a: a group with exactly k terms suffers no error under TR,
// while 4-bit QT (which drops all 2^0 and 2^1 terms) does.
func TestRevealFig7GroupAExactBudget(t *testing.T) {
	// 19 = 2^4+2^1+2^0 (3 terms), 5 = 2^2+2^0 (2), 2 = 2^1 (1): 6 total.
	vals := []int32{19, 5, 2}
	group := expand(vals, term.Binary)
	revealed := Reveal(group, 6)
	got := values(revealed)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("TR with k=6 changed %v to %v; group has only 6 terms", vals, got)
		}
	}
	if wl := Waterline(group, 6); wl != -1 {
		t.Errorf("Waterline = %d, want -1 (no pruning)", wl)
	}
	// 4-bit QT keeps the top 4 bit positions 2^6..2^3 of an 8-bit value;
	// equivalently it truncates 2^0..2^2 terms here (scale shift by 3).
	// Every value in group a is damaged by that truncation.
	for _, v := range vals {
		qt := v &^ 7
		if qt == v && v < 8 {
			t.Fatalf("expected QT truncation error for %d", v)
		}
	}
}

// Sec. III-D bound: with budget k and data of at most 7 terms, the pairs
// per group are at most 7k, and Fig. 7's arithmetic: k=6 with s=7 gives
// 42 < the 4-bit QT bound 84 for g=3.
func TestMaxTermPairsPerGroupPaperNumbers(t *testing.T) {
	c := Config{GroupSize: 3, GroupBudget: 6}
	if got := c.MaxTermPairsPerGroup(); got != 42 {
		t.Errorf("MaxTermPairsPerGroup = %d, want 42", got)
	}
	if got := BaselineTermPairsPerGroup(4, 3); got != 27 {
		// 4-bit QT: 3 magnitude terms per value -> 3*3*3; the paper's "84"
		// counts 7-term data times 4-term weights times g: 7*4*3.
		t.Errorf("BaselineTermPairsPerGroup(4,3) = %d, want 27", got)
	}
	// The paper's Fig. 7 comparison: 7 (data terms) x 4 (weight terms) x 3.
	if got := 7 * 4 * 3; got != 84 {
		t.Errorf("paper arithmetic broken: %d", got)
	}
	// And the 8-bit baseline of Sec. VI-A: 7x7 = 49 pairs per multiply.
	if got := BaselineTermPairsPerGroup(8, 1); got != 49 {
		t.Errorf("BaselineTermPairsPerGroup(8,1) = %d, want 49", got)
	}
}

func TestRevealKeepsAtMostBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		g := 1 + rng.Intn(8)
		k := 1 + rng.Intn(12)
		vals := make([]int32, g)
		for i := range vals {
			vals[i] = int32(rng.Intn(255) - 127)
		}
		group := expand(vals, term.Binary)
		revealed := Reveal(group, k)
		total := 0
		for i, e := range revealed {
			total += len(e)
			// Kept terms are a prefix of the original expansion.
			for j := range e {
				if e[j] != group[i][j] {
					t.Fatalf("revealed term %v is not a prefix of %v", e, group[i])
				}
			}
		}
		if total > k {
			t.Fatalf("kept %d terms with budget %d", total, k)
		}
	}
}

func TestRevealPrunesOnlyBelowOrAtWaterline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		g := 2 + rng.Intn(6)
		k := 1 + rng.Intn(10)
		vals := make([]int32, g)
		for i := range vals {
			vals[i] = int32(rng.Intn(255) - 127)
		}
		group := expand(vals, term.Binary)
		wl := Waterline(group, k)
		revealed := Reveal(group, k)
		if wl == -1 {
			for i := range group {
				if len(revealed[i]) != len(group[i]) {
					t.Fatal("pruning happened although waterline reported none")
				}
			}
			continue
		}
		for i := range group {
			for j := len(revealed[i]); j < len(group[i]); j++ {
				if int(group[i][j].Exp) > wl {
					t.Fatalf("pruned term %v above waterline %d", group[i][j], wl)
				}
			}
			for _, kept := range revealed[i] {
				if int(kept.Exp) < wl {
					t.Fatalf("kept term %v below waterline %d", kept, wl)
				}
			}
		}
	}
}

// With binary encoding, TR never increases a value's magnitude and never
// flips its sign.
func TestRevealBinaryShrinksMagnitudeQuick(t *testing.T) {
	f := func(raw [6]int8, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		vals := make([]int32, len(raw))
		for i, v := range raw {
			vals[i] = int32(v)
		}
		_, out := RevealValues(vals, term.Binary, len(vals), k)
		for i := range vals {
			v, o := vals[i], out[i]
			if v >= 0 && (o < 0 || o > v) {
				return false
			}
			if v < 0 && (o > 0 || o < v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Per-value truncation bound: kept part ≥ 2^wl when nonzero; the
// truncated part is ≤ 2^(wl+1) - 1 (a value can lose its own term at the
// stop level when the budget runs out mid-row, plus every strictly lower
// term). This is the arithmetic behind the Sec. III-F σ bound, which
// assumes the clean case of truncation strictly below the waterline.
func TestRevealTruncationArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		g := 2 + rng.Intn(6)
		k := 1 + rng.Intn(8)
		vals := make([]int32, g)
		for i := range vals {
			vals[i] = int32(rng.Intn(128))
		}
		group := expand(vals, term.Binary)
		wl := Waterline(group, k)
		if wl < 0 {
			continue
		}
		revealed := Reveal(group, k)
		for i := range vals {
			kept := revealed[i].Value()
			trunc := vals[i] - kept
			if trunc < 0 {
				t.Fatalf("binary truncation increased value %d -> %d", vals[i], kept)
			}
			if int64(trunc) > int64(1)<<(wl+1)-1 {
				t.Fatalf("truncated %d exceeds 2^%d-1", trunc, wl+1)
			}
			if kept != 0 && int64(kept) < int64(1)<<wl {
				t.Fatalf("kept %d below 2^waterline %d", kept, wl)
			}
		}
	}
}

func TestSigmaBound(t *testing.T) {
	if SigmaBound(-1) != 0 {
		t.Error("SigmaBound(-1) should be 0")
	}
	prev := -1.0
	for wl := 0; wl < 10; wl++ {
		s := SigmaBound(wl)
		if s < prev {
			t.Fatalf("SigmaBound not monotone at %d", wl)
		}
		if s >= 0.5 {
			t.Fatalf("SigmaBound(%d) = %v, must stay below 1/2", wl, s)
		}
		prev = s
	}
}

// Sec. III-F: the relative error of a dot product with truncated data is
// bounded by the max per-value relative error when all weights share a
// sign and data are nonnegative.
func TestDotProductErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		g := 3
		w := make([]int32, g)
		x := make([]int32, g)
		for i := range w {
			w[i] = int32(1 + rng.Intn(126))
			x[i] = int32(1 + rng.Intn(126))
		}
		_, xt := RevealValues(x, term.Binary, g, 1+rng.Intn(6))
		var dot, dotT int64
		maxSigma := 0.0
		for i := range w {
			dot += int64(w[i]) * int64(x[i])
			dotT += int64(w[i]) * int64(xt[i])
			sigma := float64(x[i]-xt[i]) / float64(x[i])
			if sigma > maxSigma {
				maxSigma = sigma
			}
		}
		relErr := float64(dot-dotT) / float64(dot)
		if relErr > maxSigma+1e-12 {
			t.Fatalf("dot product rel err %v exceeds max sigma %v", relErr, maxSigma)
		}
	}
}

func TestRevealValuesTailGroupBudgetScales(t *testing.T) {
	// 10 values with group size 8: tail group of 2 gets ceil(k*2/8).
	vals := make([]int32, 10)
	for i := range vals {
		vals[i] = 127 // 7 terms each
	}
	exps, _ := RevealValues(vals, term.Binary, 8, 8)
	head := 0
	for _, e := range exps[:8] {
		head += len(e)
	}
	if head != 8 {
		t.Errorf("head group kept %d terms, want 8", head)
	}
	tail := 0
	for _, e := range exps[8:] {
		tail += len(e)
	}
	if tail != 2 { // ceil(8*2/8) = 2
		t.Errorf("tail group kept %d terms, want 2", tail)
	}
}

func TestTruncateData(t *testing.T) {
	exps, out := TruncateData([]int32{127, 31, 5, 0}, term.HESE, 2)
	// HESE(127) = 2^7 - 2^0; both terms kept.
	if out[0] != 127 {
		t.Errorf("HESE top-2 of 127 = %d, want 127", out[0])
	}
	// HESE(31) = 2^5 - 2^0, 2 terms.
	if out[1] != 31 {
		t.Errorf("HESE top-2 of 31 = %d, want 31", out[1])
	}
	if out[2] != 5 || out[3] != 0 {
		t.Errorf("unexpected truncation %v", out)
	}
	for _, e := range exps {
		if len(e) > 2 {
			t.Errorf("expansion %v exceeds s=2", e)
		}
	}
	// s=0 leaves values untouched.
	_, same := TruncateData([]int32{89, -77}, term.Binary, 0)
	if same[0] != 89 || same[1] != -77 {
		t.Errorf("s=0 altered values: %v", same)
	}
}

func TestDotTermPairsMatchesDirectDot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		w := make([]int32, n)
		x := make([]int32, n)
		for i := range w {
			w[i] = int32(rng.Intn(255) - 127)
			x[i] = int32(rng.Intn(255) - 127)
		}
		encW := term.Encoding(rng.Intn(3))
		encX := term.Encoding(rng.Intn(3))
		we := expand(w, encW)
		xe := expand(x, encX)
		got, pairs := DotTermPairs(we, xe)
		var want int64
		wantPairs := 0
		for i := range w {
			want += int64(w[i]) * int64(x[i])
			wantPairs += len(we[i]) * len(xe[i])
		}
		if got != want {
			t.Fatalf("DotTermPairs = %d, want %d (enc %v/%v)", got, want, encW, encX)
		}
		if pairs != wantPairs || pairs != TermPairCount(we, xe) {
			t.Fatalf("pair count %d, want %d", pairs, wantPairs)
		}
	}
}

func TestDotTermPairsMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched lengths")
		}
	}()
	DotTermPairs(make([]term.Expansion, 2), make([]term.Expansion, 3))
}

func TestMatMulTermPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		w := make([][]int, m)
		for i := range w {
			w[i] = make([]int, k)
			for j := range w[i] {
				w[i][j] = rng.Intn(8)
			}
		}
		x := make([][]int, k)
		for i := range x {
			x[i] = make([]int, n)
			for j := range x[i] {
				x[i][j] = rng.Intn(8)
			}
		}
		var want int64
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				for l := 0; l < k; l++ {
					want += int64(w[i][l] * x[l][j])
				}
			}
		}
		if got := MatMulTermPairs(w, x); got != want {
			t.Fatalf("MatMulTermPairs = %d, want %d", got, want)
		}
	}
}

func TestMatMulTermPairsEdges(t *testing.T) {
	if MatMulTermPairs(nil, nil) != 0 {
		t.Error("empty inputs should yield 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	MatMulTermPairs([][]int{{1, 2}}, [][]int{{1}})
}

func TestGroupError(t *testing.T) {
	abs, rel := GroupError([]int32{10, -10}, []int32{8, -9})
	if abs != 3 {
		t.Errorf("abs = %d, want 3", abs)
	}
	if rel != 3.0/20.0 {
		t.Errorf("rel = %v, want 0.15", rel)
	}
	if _, rel := GroupError([]int32{0, 0}, []int32{0, 0}); rel != 0 {
		t.Error("all-zero group should have zero relative error")
	}
}

// Larger group sizes at fixed α keep at least as many terms in aggregate
// (the Sec. III-E argument for why bigger g is strictly better).
func TestLargerGroupKeepsMoreTermsAtFixedAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const alpha = 2
	var keptSmall, keptLarge int
	for trial := 0; trial < 200; trial++ {
		vals := make([]int32, 16)
		for i := range vals {
			vals[i] = int32(rng.Intn(255) - 127)
		}
		for _, g := range []int{2, 16} {
			exps, _ := RevealValues(vals, term.Binary, g, alpha*g)
			total := 0
			for _, e := range exps {
				total += len(e)
			}
			if g == 2 {
				keptSmall += total
			} else {
				keptLarge += total
			}
		}
	}
	if keptLarge < keptSmall {
		t.Errorf("g=16 kept %d terms < g=2 kept %d at fixed alpha", keptLarge, keptSmall)
	}
}

func TestRevealEmptyGroup(t *testing.T) {
	out := Reveal(nil, 4)
	if len(out) != 0 {
		t.Errorf("Reveal(nil) = %v", out)
	}
	zero := Reveal([]term.Expansion{nil, nil}, 4)
	if len(zero) != 2 || len(zero[0]) != 0 {
		t.Errorf("Reveal of zero values = %v", zero)
	}
}

// RevealLadder must equal RevealValues run once per budget — values and
// TR counters alike — for any length, group size, encoding and budget
// set, tail groups and budgets at or above a group's term total
// included.
func TestRevealLadderMatchesPerBudgetReveal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		g := 1 + rng.Intn(16)
		enc := term.HESE
		if trial%3 == 0 {
			enc = term.Binary
		}
		span := int32(255) // 8-bit codes: the encode cache's range
		if trial%5 == 0 {
			span = 4001 // wider values take the uncached encoder
		}
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = rng.Int31n(span) - span/2
		}
		// Budgets span 1 (prunes almost every group) to far above the
		// largest possible group total (copies every group).
		budgets := make([]int, 1+rng.Intn(4))
		for i := range budgets {
			budgets[i] = 1 + rng.Intn(14*g)
		}

		ladderReg, perReg := obs.New(), obs.New()
		SetObs(ladderReg)
		got := RevealLadder(vals, enc, g, budgets)
		SetObs(perReg)
		for r, k := range budgets {
			_, want := RevealValues(vals, enc, g, k)
			if len(got[r]) != n {
				t.Fatalf("trial %d: rung %d has %d values, want %d", trial, r, len(got[r]), n)
			}
			for i := range want {
				if got[r][i] != want[i] {
					t.Fatalf("trial %d (n=%d g=%d %v budgets=%v): budget %d value %d = %d, RevealValues %d",
						trial, n, g, enc, budgets, k, i, got[r][i], want[i])
				}
			}
		}
		SetObs(nil)
		lc, pc := ladderReg.Snapshot().Counters, perReg.Snapshot().Counters
		for _, name := range []string{
			"trq_core_reveal_groups_total",
			`trq_core_reveal_terms_total{fate="kept"}`,
			`trq_core_reveal_terms_total{fate="pruned"}`,
		} {
			if lc[name] != pc[name] {
				t.Fatalf("trial %d: %s = %d from the ladder, %d from per-budget reveals",
					trial, name, lc[name], pc[name])
			}
		}
	}
}

func TestRevealLadderRejectsNonPositiveBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("budget 0 accepted")
		}
	}()
	RevealLadder([]int32{1, 2, 3}, term.HESE, 2, []int{4, 0})
}
