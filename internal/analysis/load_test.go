package analysis

import (
	"go/ast"
	"strings"
	"testing"
)

// TestLoadTypeChecksModulePackages exercises the whole loader pipeline
// offline: go list -export resolves and builds export data for the
// dependencies, and the type checker consumes it while checking the
// target from source.
func TestLoadTypeChecksModulePackages(t *testing.T) {
	pkgs, err := Load("repro/internal/kernels", "repro/internal/term")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	k := byPath["repro/internal/kernels"]
	if k == nil {
		t.Fatal("kernels package not loaded")
	}
	if k.Types == nil || k.Types.Scope().Lookup("Gemm8Rows") == nil {
		t.Fatal("kernels not type-checked: Gemm8Rows not in scope")
	}
	// Types must be recorded for expressions (analyzers depend on it).
	typed := 0
	for _, f := range k.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if _, ok := k.TypesInfo.Types[e]; ok {
					typed++
				}
			}
			return true
		})
	}
	if typed == 0 {
		t.Fatal("no expression types recorded")
	}
	// On any platform exactly one of fma_amd64.go / fma_other.go is
	// build-selected and the other must surface via IgnoredFiles.
	sel := strings.Join(k.GoFiles, " ")
	ign := strings.Join(k.IgnoredFiles, " ")
	if !strings.Contains(sel+ign, "fma_amd64.go") || !strings.Contains(sel+ign, "fma_other.go") {
		t.Fatalf("fma siblings not surfaced: selected %q ignored %q", sel, ign)
	}
}

// kernelSeams are the asm-gated file pairs in internal/kernels: for each
// seam exactly one variant must be build-selected whatever the tag set —
// the invariant the gemm8/VNNI dispatch (and asmparity's IgnoredFiles
// contract) relies on.
var kernelSeams = []struct {
	arch, portable string
}{
	{"fma_amd64.go", "fma_other.go"},
	{"gemm8_amd64.go", "gemm8_other.go"},
	{"vnni_amd64.go", "vnni_other.go"},
	{"neon_arm64.go", "neon_other.go"},
}

func loadKernels(t *testing.T, tags string) *Package {
	t.Helper()
	pkgs, err := LoadWithTags(tags, "repro/internal/kernels")
	if err != nil {
		t.Fatalf("LoadWithTags(%q): %v", tags, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("LoadWithTags(%q) matched %d packages, want 1", tags, len(pkgs))
	}
	return pkgs[0]
}

func baseNameSet(paths []string) map[string]bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		if i := strings.LastIndexByte(p, '/'); i >= 0 {
			p = p[i+1:]
		}
		set[p] = true
	}
	return set
}

// TestLoadKernelsNoasm pins the loader's build-tag handling: under
// -tags noasm every asm-gated file moves to IgnoredFiles and its
// portable sibling is selected, consistently across all seams.
func TestLoadKernelsNoasm(t *testing.T) {
	pkg := loadKernels(t, "noasm")
	selected := baseNameSet(pkg.GoFiles)
	ignored := baseNameSet(pkg.IgnoredFiles)
	for _, seam := range kernelSeams {
		if !selected[seam.portable] {
			t.Errorf("noasm: portable %s not build-selected", seam.portable)
		}
		if selected[seam.arch] {
			t.Errorf("noasm: asm-gated %s wrongly build-selected", seam.arch)
		}
		if !ignored[seam.arch] {
			t.Errorf("noasm: asm-gated %s missing from IgnoredFiles", seam.arch)
		}
	}
	for name := range selected {
		if strings.HasSuffix(name, "_amd64.go") || strings.HasSuffix(name, "_arm64.go") {
			t.Errorf("noasm: architecture file %s selected", name)
		}
	}
}

// TestLoadKernelsSeamExclusive checks the default tag set the same way:
// exactly one variant of each seam is selected, and the other side is
// visible to asmparity via IgnoredFiles.
func TestLoadKernelsSeamExclusive(t *testing.T) {
	pkg := loadKernels(t, "")
	selected := baseNameSet(pkg.GoFiles)
	ignored := baseNameSet(pkg.IgnoredFiles)
	for _, seam := range kernelSeams {
		archSel, portSel := selected[seam.arch], selected[seam.portable]
		if archSel == portSel {
			t.Errorf("seam %s/%s: selected arch=%v portable=%v, want exactly one",
				seam.arch, seam.portable, archSel, portSel)
		}
		other := seam.arch
		if archSel {
			other = seam.portable
		}
		if !ignored[other] {
			t.Errorf("seam %s/%s: unselected variant %s missing from IgnoredFiles",
				seam.arch, seam.portable, other)
		}
	}
}

// TestLoadExplicitTestdataPath checks that fixture packages under
// testdata/src (invisible to ./... wildcards) load when named explicitly
// — the property RunFixture depends on.
func TestLoadExplicitTestdataPath(t *testing.T) {
	pkgs, err := Load("./testdata/src/smoke/a")
	if err != nil {
		t.Fatalf("Load testdata: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if pkgs[0].Types.Scope().Lookup("F") == nil {
		t.Fatal("fixture not type-checked: F not in scope")
	}
}
