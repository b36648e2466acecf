package autotune

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
)

// withCache points the tuner at a private cache file under the test's
// temp dir and drops the in-memory state, so every test starts as a
// cold process with an empty disk.
func withCache(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "autotune.json")
	t.Setenv("TRQ_AUTOTUNE_CACHE", path)
	t.Setenv("TRQ_AUTOTUNE", "")
	Reset()
	t.Cleanup(Reset)
	return path
}

func TestPickPersistsAcrossProcesses(t *testing.T) {
	path := withCache(t)
	reg := obs.New()
	SetObs(reg)
	defer SetObs(nil)
	measuredC := reg.Counter("trq_kernels_autotune_total", "outcome", "measured")
	hitsC := reg.Counter("trq_kernels_autotune_total", "outcome", "hit")
	nsC := reg.Counter("trq_kernels_autotune_measure_ns_total")

	g := Geometry{M: 8, K: 16, N: 4}
	first := Pick(g)
	if measuredC.Value() != 1 || hitsC.Value() != 0 {
		t.Fatalf("cold pick: measured=%d hits=%d, want 1/0", measuredC.Value(), hitsC.Value())
	}
	if nsC.Value() <= 0 {
		t.Fatal("cold pick recorded no measurement time")
	}

	var c cacheData
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("cache file is not JSON: %v", err)
	}
	if c.Version != kernels.TuneVersion || len(c.Tiles) != 1 {
		t.Fatalf("cache file: version=%d tiles=%d, want %d/1", c.Version, len(c.Tiles), kernels.TuneVersion)
	}

	// Fresh "process": the pick must come off disk, identically, with
	// zero additional microbenchmark time — the warm-start guarantee.
	Reset()
	warmNs := nsC.Value()
	second := Pick(g)
	if second != first {
		t.Fatalf("warm pick %v differs from cold pick %v", second, first)
	}
	if measuredC.Value() != 1 || hitsC.Value() != 1 {
		t.Fatalf("warm pick: measured=%d hits=%d, want 1/1", measuredC.Value(), hitsC.Value())
	}
	if nsC.Value() != warmNs {
		t.Fatal("warm pick spent measurement time")
	}
}

// PickAll measures every miss of one call and persists them together:
// a fresh process must then find each pick on disk, identical to what
// the batched call returned.
func TestPickAllPersistsEveryMiss(t *testing.T) {
	path := withCache(t)
	reg := obs.New()
	SetObs(reg)
	defer SetObs(nil)
	measuredC := reg.Counter("trq_kernels_autotune_total", "outcome", "measured")
	hitsC := reg.Counter("trq_kernels_autotune_total", "outcome", "hit")

	geos := []Geometry{{M: 8, K: 16, N: 4}, {M: 4, K: 8, N: 2}, {M: 8, K: 16, N: 4}}
	cold := PickAll(geos)
	if measuredC.Value() != 2 || hitsC.Value() != 1 {
		t.Fatalf("cold PickAll: measured=%d hits=%d, want 2/1 (the repeat hits)", measuredC.Value(), hitsC.Value())
	}
	if cold[0] != cold[2] {
		t.Fatalf("repeated geometry picked %v then %v", cold[0], cold[2])
	}
	var c cacheData
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	if err := json.Unmarshal(data, &c); err != nil || len(c.Tiles) != 2 {
		t.Fatalf("cache file holds %d tiles (err %v), want 2", len(c.Tiles), err)
	}

	Reset()
	for i, g := range geos {
		if warm := Pick(g); warm != cold[i] {
			t.Fatalf("warm pick %d: %v, PickAll gave %v", i, warm, cold[i])
		}
	}
	if measuredC.Value() != 2 {
		t.Fatalf("warm picks measured again: measured=%d, want 2", measuredC.Value())
	}
}

func TestStaleVersionRemeasured(t *testing.T) {
	path := withCache(t)
	bogus := kernels.Tile{MR: 999}
	stale := cacheData{Version: kernels.TuneVersion + 1,
		Tiles: map[string]kernels.Tile{key(Geometry{M: 8, K: 16, N: 4}): bogus}}
	data, _ := json.Marshal(stale)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := Pick(Geometry{M: 8, K: 16, N: 4}); got == bogus {
		t.Fatal("stale-version cache entry was trusted")
	}
	var c cacheData
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if json.Unmarshal(data, &c) != nil || c.Version != kernels.TuneVersion {
		t.Fatalf("rewritten cache has version %d, want %d", c.Version, kernels.TuneVersion)
	}
}

func TestCorruptCacheTolerated(t *testing.T) {
	path := withCache(t)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := Geometry{M: 4, K: 8, N: 2}
	first := Pick(g)
	Reset()
	if second := Pick(g); second != first {
		t.Fatalf("after corrupt-cache recovery: %v != %v", second, first)
	}
}

func TestDisabledEnv(t *testing.T) {
	path := withCache(t)
	t.Setenv("TRQ_AUTOTUNE", "off")
	if got := Pick(Geometry{M: 8, K: 16, N: 4}); got != (kernels.Tile{}) {
		t.Fatalf("disabled tuner picked %v, want unblocked", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("disabled tuner touched the cache file")
	}
}

// TestConcurrentPicks hammers Pick from many goroutines across a few
// geometries — the shape of parallel plan builds — under the race
// detector, and checks every goroutine saw the same pick per geometry.
func TestConcurrentPicks(t *testing.T) {
	withCache(t)
	geos := []Geometry{{M: 8, K: 16, N: 4}, {M: 4, K: 8, N: 2}, {M: 12, K: 10, N: 6}}
	picks := make([][]kernels.Tile, len(geos))
	for i := range picks {
		picks[i] = make([]kernels.Tile, 4)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, g := range geos {
				picks[i][w] = Pick(g)
			}
		}(w)
	}
	wg.Wait()
	for i := range picks {
		for w := 1; w < len(picks[i]); w++ {
			if picks[i][w] != picks[i][0] {
				t.Fatalf("geometry %d: worker %d picked %v, worker 0 picked %v",
					i, w, picks[i][w], picks[i][0])
			}
		}
	}
}

// TestSaveMergesForeignEntries: entries another process wrote between
// our load and our save must survive the read-merge-write.
func TestSaveMergesForeignEntries(t *testing.T) {
	path := withCache(t)
	foreign := cacheData{Version: kernels.TuneVersion,
		Tiles: map[string]kernels.Tile{"otherbox|m1.k2.n3": {MR: 8}}}
	data, _ := json.Marshal(foreign)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Simulate "loaded before the foreign write": force the loaded flag
	// without reading the file, then measure something.
	mu.Lock()
	mem = make(map[string]kernels.Tile)
	loaded = true
	mu.Unlock()
	Pick(Geometry{M: 4, K: 8, N: 2})

	var c cacheData
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Tiles["otherbox|m1.k2.n3"]; !ok {
		t.Fatal("foreign cache entry lost in read-merge-write")
	}
	if len(c.Tiles) != 2 {
		t.Fatalf("cache has %d entries, want 2", len(c.Tiles))
	}
}
