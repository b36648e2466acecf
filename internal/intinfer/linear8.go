package intinfer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
)

// The batched packed-linear lane. Plans whose every step is a
// shape-only flatten or a packed-admitted linear (p.linear8) run whole
// micro-batches through the int8 panel kernels: the input quantizer
// writes a k×B offset-u8 activation matrix (column j = image j)
// directly into the scratch's ping-pong buffers, and each layer is one
// M×B×K GEMM with the requantization fused — instead of B separate
// GEMVs re-reading the weights per image. The arithmetic per element is
// identical to the per-image paths (same quantizer, same s32
// accumulation, same float64 requant sequence), so predictions are
// bit-identical to Classify image by image; the batching only amortizes
// weight traffic and dispatch overhead, which is where the serving
// path's throughput comes from.

// linear8Cols is the column width of one batched chunk: wide enough
// that every 16-column panel of the micro-batch GEMM is full for
// batches ≥ 64, small enough that the ping-pong matrices of the
// evaluation MLPs stay L1/L2-resident. It is also the geometry N the
// autotuner keys batch-lane tile picks by.
const linear8Cols = 64

// inferBatchLinear8 is the serial batch engine for linear8 plans — the
// InferBatch regime: one scratch arena, images in chunk-sized slabs on
// the caller's goroutine.
func (p *Plan) inferBatchLinear8(images [][]float32, stop *atomic.Bool) ([]int, error) {
	preds := make([]int, len(images))
	s := p.scratch(p.intraWorkers, stop)
	p.pm.batchImages.Add(int64(len(images)))
	if err := p.linear8Span(images, preds, 0, s); err != nil {
		p.pm.inferErrs.Inc()
		p.failRelease(s)
		return nil, err
	}
	p.released(s)
	p.arena.Put(s)
	return preds, nil
}

// inferBatchLinear8Parallel fans contiguous chunk-aligned spans of the
// batch across workers, each holding its own scratch — the batched
// analogue of inferBatchParallel, with the same first-error-stops-all
// contract: a failing span records its error once, flips the shared
// stop flag, and every other worker aborts at its next chunk or
// row-partition boundary. A flag set externally (the ctx-aware
// wrappers) with no recorded error surfaces errStopped for translation.
func (p *Plan) inferBatchLinear8Parallel(images [][]float32, workers int, stop *atomic.Bool) ([]int, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spans := (len(images) + linear8Cols - 1) / linear8Cols; workers > spans && spans > 0 {
		workers = spans // at least one whole chunk per worker
	}
	p.pm.batchImages.Add(int64(len(images)))
	intra := p.intraWorkers / workers
	if intra < 1 {
		intra = 1
	}
	span := (len(images) + workers - 1) / workers
	span = (span + linear8Cols - 1) / linear8Cols * linear8Cols
	preds := make([]int, len(images))
	var (
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for start := 0; start < len(images); start += span {
		end := start + span
		if end > len(images) {
			end = len(images)
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			if stop.Load() {
				return
			}
			s := p.scratch(intra, stop)
			if err := p.linear8Span(images[start:end], preds[start:end], start, s); err != nil {
				p.pm.inferErrs.Inc()
				p.failRelease(s)
				if !errors.Is(err, errStopped) {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
				}
				return
			}
			p.released(s)
			p.arena.Put(s)
		}(start, end)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if stop.Load() {
		return nil, errStopped // external cancellation, no internal error
	}
	return preds, nil
}

// linear8Span classifies images into preds chunk by chunk; base is the
// absolute batch index of images[0], so errors attribute to the right
// image in both the serial and the span-parallel drivers.
func (p *Plan) linear8Span(images [][]float32, preds []int, base int, s *scratch) error {
	want := p.inC * p.inH * p.inW
	for off := 0; off < len(images); off += linear8Cols {
		end := off + linear8Cols
		if end > len(images) {
			end = len(images)
		}
		chunk := images[off:end]
		for j, img := range chunk {
			if len(img) != want {
				return fmt.Errorf("intinfer: image %d: image has %d values, want %d",
					base+off+j, len(img), want)
			}
		}
		if err := p.linear8Chunk(chunk, preds[off:end], s); err != nil {
			if errors.Is(err, errStopped) {
				return errStopped
			}
			// A mid-chain failure cannot be pinned to one column; report
			// the chunk through its first image, like a step error in the
			// per-image batch loop reports the in-flight image.
			return fmt.Errorf("intinfer: image %d: %w", base+off, err)
		}
	}
	return nil
}

// linear8Chunk runs one micro-batch of b ≤ linear8Cols images through
// the step chain as batched GEMMs. A chunk of one image runs the
// float64 express lane on the same scratch instead — a single column
// would waste 15/16 of every 16-wide panel — which packLinears
// guarantees the plan admits. Both produce the per-image codes exactly.
func (p *Plan) linear8Chunk(images [][]float32, preds []int, s *scratch) error {
	b := len(images)
	p.pm.infers.Add(int64(b))
	if s.stopped() {
		return errStopped
	}
	if b == 1 {
		act, err := p.runExpress(images[0], s)
		if err != nil {
			return err
		}
		preds[0] = argmax(act.data)
		s.put(act.data)
		return nil
	}
	// Input quantizer, straight into the offset-u8 domain: the same
	// reciprocal multiply + magic round + clamp as run, with the +128
	// offset folded into the store.
	cur, nxt := s.bx, s.by
	inv := 1 / float64(p.inScale)
	for j, img := range images {
		col := cur[j:]
		for i, v := range img {
			c := float64(v)*inv + roundMagic - roundMagic
			if c > 127 {
				c = 127
			} else if c < -127 {
				c = -127
			}
			col[i*b] = uint8(int32(c) + 128)
		}
	}
	rows := p.inC * p.inH * p.inW
	for i := range p.steps {
		st := &p.steps[i]
		switch st.kind {
		case kindFlatten:
			continue // shape-only
		case kindLinear:
		default:
			// Unreachable for a plan finalize admitted (packLinears), but a
			// mutated plan must fail like the general executor, not be
			// silently skipped.
			return fmt.Errorf("unknown step kind %d", st.kind)
		}
		if rows != st.cols {
			return fmt.Errorf("step %s: linear input %d values, want %d",
				st.name, rows, st.cols)
		}
		if s.stopped() {
			return errStopped
		}
		var start time.Time
		if p.pm.enabled {
			start = time.Now()
		}
		p.pm.dispatchLinear8.Inc()
		y := s.lin32[:st.rows*b]
		pb := s.bpack[:kernels.PackBSize(st.cols, b)]
		kernels.PackB(pb, cur[:st.cols*b], st.cols, b)
		p.gemm8(s, y, st.pack8lin, pb, b, st.tile, st.mult, st.lo, st.hi)
		// Re-offset the fresh codes for the next layer's B operand. The
		// final layer's pass is cheap (classes × b bytes) and keeps the
		// loop uniform.
		kernels.OffsetU8(nxt[:st.rows*b], y)
		cur, nxt = nxt, cur
		rows = st.rows
		if p.pm.enabled {
			p.pm.stepLatency[i].Observe(time.Since(start).Seconds())
		}
	}
	// Argmax per column over the last layer's codes (still in lin32).
	// The output scale is positive, so code argmax equals logit argmax.
	for j := 0; j < b; j++ {
		best := 0
		for r := 1; r < rows; r++ {
			if s.lin32[r*b+j] > s.lin32[best*b+j] {
				best = r
			}
		}
		preds[j] = best
	}
	return nil
}
