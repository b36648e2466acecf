package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/artifact"
	"repro/internal/demoplan"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/qsim"
	"repro/internal/serve"
)

// lanes are intinfer's weight-layer dispatch paths, as its
// trq_intinfer_dispatch_total counter labels them.
var lanes = []string{"direct", "gemm", "gemm8", "gemv", "gemv_f64", "express", "linear8"}

// weightSteps are the plan steps of each demo model that carry weights,
// by the names intinfer gives them; their step times are reported. The
// other steps (flatten, pooling, unfused activations) take well under a
// microsecond.
var weightSteps = map[string][]string{
	"mlp": {"fc1", "fc2"},
	"cnn": {"stem", "s1b1.res", "s1b2.res", "s2b1.res", "s2b2.res", "s3b1.res", "s3b2.res", "fc"},
}

// probeBatches are the batch sizes the per-layer intinfer probe times:
// serving's range up to MaxBatch, and the offline batch.
var probeBatches = []int{1, 2, 4, 8, offlineBatch}

// kernelCounters are the kernels.SetObs dispatch series read during the
// traced serving phases, keyed by the metric they report.
var kernelCounters = []struct{ metric, family, path string }{
	{"kernels.gemm8.asm", "trq_kernels_gemm8_dispatch_total", "asm"},
	{"kernels.gemm8.portable", "trq_kernels_gemm8_dispatch_total", "portable"},
	{"kernels.gemv8.portable", "trq_kernels_gemv8_dispatch_total", "portable"},
	{"kernels.gemvf64.asm", "trq_kernels_gemvf64_dispatch_total", "asm"},
	{"kernels.gemvf64.portable", "trq_kernels_gemvf64_dispatch_total", "portable"},
}

// layerCtx is what the traced run hands to the per-layer report.
type layerCtx struct {
	h                *harness
	tr               *tracer
	models           map[string]*model
	setups           []setupTimes
	fixed            []phase
	light, busy      phase
	st0, st1         serve.Stats
	gc, alloc        uint64
	overhead         float64
	kernelsPerAnswer map[string]float64
}

// fill computes every per-layer metric.
func (lc *layerCtx) fill(m map[string]metric) error {
	h := lc.h
	var decode, build []float64
	for _, s := range lc.setups {
		decode = append(decode, ms(s.decode.Seconds()))
		build = append(build, ms(s.build.Seconds()))
	}
	m["artifact.decode_ms"] = metric{median(decode), "ms"}
	m["artifact.bytes"] = metric{float64(len(h.served.trq)), "bytes"}
	m["intinfer.build_ms"] = metric{median(build), "ms"}

	// serve: from every answered request of the fixed-load phases.
	var queueUs, execUs []float64
	var ok, degraded, requests int
	rungs := map[int]int{}
	for _, p := range lc.fixed {
		for _, a := range p.ans {
			requests++
			if a.status != statusOK {
				continue
			}
			ok++
			queueUs = append(queueUs, float64(a.queue)/1e3)
			execUs = append(execUs, float64(a.call-a.queue)/1e3)
			rungs[a.budget]++
			if a.degraded {
				degraded++
			}
		}
	}
	qp := NewPercentiles(queueUs)
	m["serve.queue_wait_us.p50"] = metric{qp.At(50), "us"}
	m["serve.queue_wait_us.p99"] = metric{qp.At(99), "us"}
	m["serve.exec_us.p50"] = metric{median(execUs), "us"}
	batches := lc.st1.Batches - lc.st0.Batches
	meanBatch := float64(lc.st1.BatchImages-lc.st0.BatchImages) / float64(max(batches, 1))
	m["serve.batch_size.mean"] = metric{meanBatch, "images"}
	m["serve.batch_fill"] = metric{meanBatch / serve.DefaultMaxBatch, "share"}
	m["serve.degraded_share"] = metric{float64(degraded) / float64(max(ok, 1)), "share"}
	for _, k := range demoplan.DefaultBudgets {
		m[fmt.Sprintf("serve.rung_share.k%d", k)] = metric{float64(rungs[k]) / float64(max(ok, 1)), "share"}
	}
	m["serve.shed"] = metric{float64(lc.st1.Shed - lc.st0.Shed), "count"}
	m["serve.timeout"] = metric{float64(lc.st1.Timeout - lc.st0.Timeout), "count"}
	m["serve.errors"] = metric{float64(lc.st1.Errors - lc.st0.Errors), "count"}
	m["serve.batches"] = metric{float64(batches), "count"}

	lc.httpLayer(m)

	for _, name := range []string{"mlp", "cnn"} {
		if err := lc.probeIntinfer(m, lc.models[name]); err != nil {
			return err
		}
		if err := lc.probeQsim(m, lc.models[name]); err != nil {
			return err
		}
	}
	m["kernels.cnn.gops"] = metric{2 * m["kernels.cnn.macs_per_image"].Value / m["intinfer.cnn.ns_per_image.b8"].Value, "GOPS"}
	for _, k := range kernelCounters {
		m[k.metric] = metric{lc.kernelsPerAnswer[k.metric], "calls/req"}
	}

	var late []time.Duration
	late = append(late, lc.light.late...)
	late = append(late, lc.busy.late...)
	m["loadgen.late_ms.p99"] = metric{NewPercentiles(durationsMs(late)).At(99), "ms"}
	m["loadgen.sent"] = metric{float64(len(late)), "count"}
	m["runtime.gc_cycles"] = metric{float64(lc.gc), "count"}
	m["runtime.alloc_bytes_per_req"] = metric{float64(lc.alloc) / float64(max(requests, 1)), "bytes"}
	m["trace.overhead_share"] = metric{lc.overhead, "share"}
	m["trace.spans"] = metric{float64(len(lc.tr.snapshot())), "count"}
	return nil
}

// httpLayer derives handler and transport times from the spans: the
// handler span is the traced wrapper around Server.Handler(), and
// transport is the client round trip minus the handler time of the
// same request.
func (lc *layerCtx) httpLayer(m map[string]metric) {
	spans := lc.tr.snapshot()
	client := map[int64]span{}
	for _, s := range spans {
		if s.Name == "http.Client.Do" {
			client[s.ID] = s
		}
	}
	var handler, transport []float64
	for _, s := range spans {
		if s.Name != "serve.Handler.ServeHTTP" {
			continue
		}
		hd := float64(s.End-s.Start) / 1e3
		handler = append(handler, hd)
		if c, ok := client[s.Parent]; ok {
			transport = append(transport, float64(c.End-c.Start)/1e3-hd)
		}
	}
	hp := NewPercentiles(handler)
	m["http.handler_us.p50"] = metric{hp.At(50), "us"}
	m["http.handler_us.p99"] = metric{hp.At(99), "us"}
	m["http.transport_us.p50"] = metric{median(transport), "us"}
}

// probeIntinfer times InferBatchContext at each probe batch size on a
// family compiled with its own registry, and reads the lanes, arena
// misses and step times the plan's metrics record for the batch-8
// calls (serving's MaxBatch).
func (lc *layerCtx) probeIntinfer(m map[string]metric, md *model) error {
	rm, _, err := artifact.DecodeModel(md.trq)
	if err != nil {
		return err
	}
	reg := obs.New()
	fam, err := demoplan.FamilyFromModel(rm, reg, demoplan.DefaultBudgets)
	if err != nil {
		return err
	}
	plan, _ := fam.Plan(fam.MaxBudget())
	ctx := context.Background()
	for _, b := range probeBatches {
		workers := 1 // serving's BatchWorkers
		if b > serve.DefaultMaxBatch {
			workers = 0 // offline: GOMAXPROCS
		}
		imgs := md.pool.Images[:b]
		before := reg.Snapshot()
		var ns []float64
		stop := time.Now().Add(100 * time.Millisecond)
		for i := 0; i < 5 || time.Now().Before(stop); i++ {
			t := time.Now()
			_, err := plan.InferBatchContext(ctx, imgs, workers)
			dt := time.Since(t)
			if err != nil {
				return fmt.Errorf("probe %s b%d: %w", md.name, b, err)
			}
			lc.tr.add(0, 0, 0, "intinfer.Plan.InferBatchContext", t, t.Add(dt))
			ns = append(ns, float64(dt.Nanoseconds())/float64(b))
		}
		m[fmt.Sprintf("intinfer.%s.ns_per_image.b%d", md.name, b)] = metric{median(ns), "ns"}
		if b != serve.DefaultMaxBatch {
			continue
		}
		after := reg.Snapshot()
		images := float64(len(ns) * b)
		for _, lane := range lanes {
			key := fmt.Sprintf("trq_intinfer_dispatch_total{path=%q}", lane)
			m[fmt.Sprintf("intinfer.%s.dispatch.%s", md.name, lane)] =
				metric{float64(after.Counters[key]-before.Counters[key]) / images, "calls/image"}
		}
		for _, step := range weightSteps[md.name] {
			key := fmt.Sprintf("trq_intinfer_step_latency_seconds{step=%q}", step)
			n := after.Histograms[key].Count - before.Histograms[key].Count
			if n == 0 {
				return fmt.Errorf("probe %s: plan step %q recorded no time", md.name, step)
			}
			sum := after.Histograms[key].Sum - before.Histograms[key].Sum
			m[fmt.Sprintf("intinfer.%s.step_us.%s", md.name, step)] = metric{sum / float64(n) * 1e6, "us"}
		}
	}
	m[fmt.Sprintf("intinfer.%s.arena_new", md.name)] =
		metric{float64(reg.Counter("trq_intinfer_arena_scratch_total", "event", "new").Value()), "count"}
	return nil
}

// probeQsim counts term pairs with qsim's TR accounting on 64 of the
// workload's images: weights revealed at group size 8 and each ladder
// budget, activations kept at 8 bits untruncated, as the integer
// runtime runs them. It also reports MACs and the bytes one image
// touches, computed from tensor sizes: int8 weight codes plus the int8
// input activations of every conv and linear layer.
func (lc *layerCtx) probeQsim(m map[string]metric, md *model) error {
	rm, _, err := artifact.DecodeModel(md.trq)
	if err != nil {
		return err
	}
	qsim.FoldBatchNorm(rm)
	imgs := md.pool.Images[:64]
	n := float64(len(imgs))
	var macs float64
	for _, k := range demoplan.DefaultBudgets {
		e := qsim.Attach(rm, qsim.TR(demoplan.QuantGroupSize, k, 0))
		rm.Forward(imgs, false)
		m[fmt.Sprintf("qsim.%s.term_pairs_per_image.k%d", md.name, k)] = metric{float64(e.TermPairs()) / n, "pairs"}
		if k == demoplan.DefaultBudgets[len(demoplan.DefaultBudgets)-1] {
			m[fmt.Sprintf("qsim.%s.bound_pairs_per_image.k%d", md.name, k)] = metric{float64(e.BoundPairs()) / n, "pairs"}
		}
		macs = float64(e.MACs()) / n
		e.Detach()
	}
	m[fmt.Sprintf("kernels.%s.macs_per_image", md.name)] = metric{macs, "MACs"}
	m[fmt.Sprintf("kernels.%s.bytes_per_image", md.name)] = metric{bytesPerImage(rm, imgs[0]), "bytes"}
	return nil
}

func bytesPerImage(rm *models.ImageModel, img []float32) float64 {
	var b int
	for _, w := range qsim.SnapshotWeights(rm, 8) {
		b += len(w.Codes)
	}
	for _, a := range qsim.CaptureActivations(rm, [][]float32{img}, 8) {
		b += len(a)
	}
	return float64(b)
}
