package intinfer

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/kernels"
)

// TestRunObservesStop pins the cooperative-cancellation contract inside a
// single inference: a scratch armed with a set stop flag must abandon the
// step chain with errStopped instead of running the plan to completion.
func TestRunObservesStop(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	stop.Store(true)
	if _, err := plan.classify(test.Images[0], 1, &stop); !errors.Is(err, errStopped) {
		t.Fatalf("classify under a set stop flag returned %v, want errStopped", err)
	}
	// A cleared flag must leave inference untouched, including on a
	// scratch recycled from the cancelled call above.
	stop.Store(false)
	if _, err := plan.classify(test.Images[0], 1, &stop); err != nil {
		t.Fatalf("classify under a cleared stop flag failed: %v", err)
	}
	// Plain Classify threads a nil flag; make sure the cancelled arena
	// left no residue there either.
	if _, err := plan.Classify(test.Images[0]); err != nil {
		t.Fatal(err)
	}
}

// TestChunkWorkersObserveStop drives the row-partition workers directly:
// once the flag is set, a chunk must return without touching its output
// rows, which is what lets a batch failure interrupt a half-finished
// layer rather than waiting out the image.
func TestChunkWorkersObserveStop(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	s := &scratch{}

	dstF := []float64{-777, -777}
	aF := []float64{1, 2, 3, 4}
	xF := []float64{5, 6}
	bF := []float64{0, 0}
	s.wg.Add(1)
	gemvF64Chunk(&s.wg, &stop, dstF, aF, xF, bF, 0, 2, 2, 1, -127, 127)
	for i, v := range dstF {
		if v != -777 {
			t.Errorf("gemvF64Chunk wrote dst[%d]=%v despite stop flag", i, v)
		}
	}

	// gemm8Chunk: a 2×3 weight matrix against a 3×2 offset-u8 patch
	// matrix, one 4-row panel.
	const sentinel = int32(-777)
	pa := kernels.PackA([]int32{1, 2, 3, 4, 5, 6}, []int32{0, 0}, 2, 3)
	u8 := []uint8{129, 130, 131, 132, 133, 134}
	pb := make([]uint8, kernels.PackBSize(3, 2))
	kernels.PackB(pb, u8, 3, 2)
	dst := []int32{sentinel, sentinel, sentinel, sentinel}
	s.wg.Add(1)
	gemm8Chunk(&s.wg, &stop, dst, pa, pb, 2, 0, pa.MP, 1, -127, 127)
	for i, v := range dst {
		if v != sentinel {
			t.Errorf("gemm8Chunk wrote dst[%d]=%d despite stop flag", i, v)
		}
	}
	// The same call with the flag clear must compute, or the check above
	// proves nothing.
	stop.Store(false)
	s.wg.Add(1)
	gemm8Chunk(&s.wg, &stop, dst, pa, pb, 2, 0, pa.MP, 1, -127, 127)
	if dst[0] == sentinel {
		t.Error("gemm8Chunk wrote nothing with the stop flag clear")
	}
	s.wg.Wait()
}

// TestParallelMidBatchFailureWrapsIndex injects a failure in the middle
// of a batch — an image whose length no layer accepts — with the row
// fan-out forced on, so cancellation propagates through both levels of
// parallelism. The surfaced error must identify the failing image.
func TestParallelMidBatchFailureWrapsIndex(t *testing.T) {
	old := intraMinWork
	intraMinWork = 1 // force row partitions so chunk workers poll the flag
	defer func() { intraMinWork = old }()

	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16], IntraWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float32, 120)
	for i := range batch {
		batch[i] = test.Images[i%len(test.Images)]
	}
	const bad = 60
	batch[bad] = make([]float32, 3)
	_, err = plan.InferBatchParallel(batch, 4)
	if err == nil {
		t.Fatal("mid-batch bad image did not surface an error")
	}
	if !strings.Contains(err.Error(), "image 60") {
		t.Errorf("error %q does not identify image %d", err, bad)
	}
	if errors.Is(err, errStopped) {
		t.Errorf("internal errStopped sentinel leaked to the caller: %v", err)
	}
	// The serial batch path wraps the index too.
	if _, err := plan.InferBatch(batch); err == nil ||
		!strings.Contains(err.Error(), "image 60") {
		t.Errorf("InferBatch error %q does not identify image %d", err, bad)
	}
}

// TestParallelFailingLayerMidBatch corrupts a step of a cloned plan so
// the failure comes from inside the executor (a failing layer) rather
// than input validation, and checks the batch still stops with a useful
// error instead of deadlocking or panicking.
func TestParallelFailingLayerMidBatch(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:16]})
	if err != nil {
		t.Fatal(err)
	}
	// The test owns this plan, so corrupting it in place is fine (and a
	// struct copy would illegally copy the arena's sync.Pool).
	plan.steps = append([]step(nil), plan.steps...)
	plan.steps[len(plan.steps)-1].kind = kind(99)
	plan.express = false // the bogus step must reach the general executor

	batch := make([][]float32, 40)
	for i := range batch {
		batch[i] = test.Images[i%len(test.Images)]
	}
	_, err = plan.InferBatchParallel(batch, 3)
	if err == nil {
		t.Fatal("failing layer did not surface an error")
	}
	if !strings.Contains(err.Error(), "unknown step kind") {
		t.Errorf("error %q does not point at the failing layer", err)
	}
}
