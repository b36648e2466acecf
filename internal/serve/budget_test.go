package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/demoplan"
	"repro/internal/intinfer"
	"repro/internal/obs"
)

// The demo family is trained once and shared, like the single plan.
var (
	famOnce   sync.Once
	testFamV  *intinfer.Family
	famImages [][]float32
	famErr    error
)

func testFamily(t *testing.T) (*intinfer.Family, [][]float32) {
	t.Helper()
	famOnce.Do(func() {
		fam, test, err := demoplan.MLPFamily(obs.New(), nil)
		if err != nil {
			famErr = err
			return
		}
		testFamV, famImages = fam, test.Images
	})
	if famErr != nil {
		t.Fatalf("building demo family: %v", famErr)
	}
	return testFamV, famImages
}

func newFamilyServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	fam, _ := testFamily(t)
	cfg := Config{Family: fam, MaxBatch: 8, MaxDelay: time.Millisecond,
		QueueCap: 128, BatchWorkers: 1, DefaultDeadline: 5 * time.Second,
		// High watermark by default so tests that don't exercise the
		// degradation policy never trip it.
		DegradeWatermark: 127}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMixedBudgetsBatchHomogeneously pre-queues request streams and
// checks the scheduler cuts exactly the full same-budget batches they
// allow: mixed arrivals cost extra dispatches and parked requests, never
// a mixed batch. The 1 ns MaxDelay cases start every batch with its
// window already lapsed, so they pin that queued requests still board
// before the lapsed window closes the batch.
func TestMixedBudgetsBatchHomogeneously(t *testing.T) {
	_, images := testFamily(t)
	alternating := make([]int, 16)
	for i := range alternating {
		alternating[i] = 4
		if i%2 == 1 {
			alternating[i] = 12
		}
	}
	for _, tc := range []struct {
		name        string
		maxDelay    time.Duration
		budgets     []int
		wantBatches int64
		wantParked  int64
	}{
		// Batch one takes the 4s and parks the 12s it passes on the way
		// (7: the last 12 is still queued when the batch fills).
		{"alternating", time.Millisecond, alternating, 2, 7},
		{"lapsed same-budget", time.Nanosecond, []int{4, 4, 4, 4, 4, 4, 4, 4}, 1, 0},
		{"lapsed alternating", time.Nanosecond, alternating, 2, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newFamilyServer(t, func(c *Config) { c.MaxDelay = tc.maxDelay })
			deadline := time.Now().Add(5 * time.Second)
			reqs := make([]*request, len(tc.budgets))
			for i, budget := range tc.budgets {
				r, err := s.submit(images[i%len(images)], deadline, budget)
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				reqs[i] = r
			}
			s.startScheduler()
			served := map[int]int64{}
			for i, r := range reqs {
				resp := <-r.done
				if resp.err != nil {
					t.Fatalf("request %d: %v", i, resp.err)
				}
				if resp.budget != tc.budgets[i] {
					t.Errorf("request %d served at budget %d, want %d", i, resp.budget, tc.budgets[i])
				}
				if resp.degraded {
					t.Errorf("request %d flagged degraded with the policy disengaged", i)
				}
				if resp.batch != s.cfg.MaxBatch {
					t.Errorf("request %d rode a batch of %d, want a full same-budget batch of %d",
						i, resp.batch, s.cfg.MaxBatch)
				}
				served[tc.budgets[i]]++
			}
			st := s.Stats()
			if st.Batches != tc.wantBatches || st.BatchImages != int64(len(reqs)) {
				t.Errorf("stats: %d batches / %d images, want %d / %d",
					st.Batches, st.BatchImages, tc.wantBatches, len(reqs))
			}
			if st.Parked != tc.wantParked {
				t.Errorf("Parked = %d, want %d", st.Parked, tc.wantParked)
			}
			var exposition bytes.Buffer
			if err := s.cfg.Obs.WritePrometheus(&exposition); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("trq_serve_budget_parked_total %d\n", tc.wantParked); !strings.Contains(exposition.String(), want) {
				t.Errorf("/metrics lacks %q", want)
			}
			for b, n := range served {
				if st.BudgetServed[b] != n {
					t.Errorf("BudgetServed = %v, want %d at budget %d", st.BudgetServed, n, b)
				}
			}
		})
	}
}

// TestParkedRequestWaitsOneWindow pins where the batching window starts:
// at the admission of the batch's oldest member. A budget-12 request
// parked behind a budget-4 batch has already sat out that batch's
// MaxDelay, so it must not wait a second full MaxDelay of its own.
// Timers never fire early, so counting the window from when the worker
// picks the request up would make its wait at least 2×MaxDelay.
func TestParkedRequestWaitsOneWindow(t *testing.T) {
	_, images := testFamily(t)
	const maxDelay = 200 * time.Millisecond
	s := newFamilyServer(t, func(c *Config) { c.MaxDelay = maxDelay })
	deadline := time.Now().Add(5 * time.Second)
	var reqs []*request
	for _, budget := range []int{4, 12} {
		r, err := s.submit(images[0], deadline, budget)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	s.startScheduler()
	var parkedWait time.Duration
	for i, r := range reqs {
		resp := <-r.done
		if resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
		if resp.budget != r.budget || resp.batch != 1 {
			t.Errorf("request %d served at budget %d in a batch of %d, want %d in a batch of 1",
				i, resp.budget, resp.batch, r.budget)
		}
		parkedWait = resp.wait
	}
	if parkedWait >= 2*maxDelay {
		t.Errorf("parked request waited %v, want under 2×MaxDelay = %v", parkedWait, 2*maxDelay)
	}
	if st := s.Stats(); st.Parked != 1 {
		t.Errorf("Parked = %d, want 1", st.Parked)
	}
}

// TestFamilyServedClassesMatchRungs checks the served answer really
// comes from the requested rung: each budget's HTTP answer is
// bit-identical to that rung's direct Classify.
func TestFamilyServedClassesMatchRungs(t *testing.T) {
	fam, images := testFamily(t)
	s := newFamilyServer(t, nil)
	s.startScheduler()
	for _, budget := range fam.Budgets() {
		p, _ := fam.Plan(budget)
		for i := 0; i < 8; i++ {
			want, err := p.Classify(images[i])
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.ClassifyBudget(context.Background(), images[i], budget)
			if err != nil {
				t.Fatalf("budget %d image %d: %v", budget, i, err)
			}
			if res.Class != want {
				t.Errorf("budget %d image %d: served %d, rung Classify %d", budget, i, res.Class, want)
			}
			if res.Budget != budget {
				t.Errorf("budget %d image %d echoed budget %d", budget, i, res.Budget)
			}
		}
	}
}

// TestDegradeBeforeShed pins the admission band: once queue depth
// reaches the watermark, new admissions run one rung below their ask
// (flagged degraded) instead of shedding, requests already at the floor
// keep their budget, and the latch disengages with hysteresis once the
// queue drains past the low watermark.
func TestDegradeBeforeShed(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, func(c *Config) {
		c.DegradeWatermark = 2
		c.DegradeLowWatermark = 1
	})

	deadline := time.Now().Add(5 * time.Second)
	sub := func(budget int) *request {
		t.Helper()
		r, err := s.submit(images[0], deadline, budget)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := sub(12), sub(12) // depth 0, 1: below watermark
	if r1.degraded || r2.degraded || r1.budget != 12 || r2.budget != 12 {
		t.Fatalf("pre-watermark admissions altered: %+v %+v", r1, r2)
	}
	r3 := sub(12) // depth 2: watermark reached, policy engages
	if !r3.degraded || r3.budget != 8 {
		t.Fatalf("admission at watermark not degraded: budget %d degraded %v", r3.budget, r3.degraded)
	}
	r4 := sub(8) // still engaged: mid-ladder ask steps down too
	if !r4.degraded || r4.budget != 4 {
		t.Fatalf("mid-ladder admission not degraded: budget %d degraded %v", r4.budget, r4.degraded)
	}
	r5 := sub(4) // floor: nowhere to step down, keeps its budget
	if r5.degraded || r5.budget != 4 {
		t.Fatalf("floor admission altered: budget %d degraded %v", r5.budget, r5.degraded)
	}
	if st := s.Stats(); st.Degraded != 2 || st.Shed != 0 {
		t.Fatalf("stats Degraded=%d Shed=%d, want 2, 0", st.Degraded, st.Shed)
	}
	if s.met.degradeActive.Value() != 1 {
		t.Error("trq_serve_budget_degrade_active not set while engaged")
	}

	s.startScheduler()
	for _, r := range []*request{r1, r2, r3, r4, r5} {
		resp := <-r.done
		if resp.err != nil {
			t.Fatal(resp.err)
		}
		if resp.budget != r.budget || resp.degraded != r.degraded {
			t.Errorf("response budget %d/%v does not echo admission %d/%v",
				resp.budget, resp.degraded, r.budget, r.degraded)
		}
	}
	// Queue fully drained (depth 0 <= low watermark): next admission
	// disengages the latch and keeps its budget.
	r6 := sub(12)
	if r6.degraded || r6.budget != 12 {
		t.Errorf("post-drain admission still degraded: budget %d degraded %v", r6.budget, r6.degraded)
	}
	if s.met.degradeActive.Value() != 0 {
		t.Error("trq_serve_budget_degrade_active still set after disengage")
	}
	<-r6.done
}

// TestDegradeHysteresisHoldsBetweenWatermarks pins the flap guard: with
// the latch engaged, a depth between the low and high watermarks keeps
// degrading (it neither disengages early nor waits for a fresh crossing).
func TestDegradeHysteresisHoldsBetweenWatermarks(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, func(c *Config) {
		c.DegradeWatermark = 4
		c.DegradeLowWatermark = 1
	})
	deadline := time.Now().Add(5 * time.Second)
	var reqs []*request
	for i := 0; i < 5; i++ { // depths 0..4: the 5th engages the latch
		r, err := s.submit(images[0], deadline, 12)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	if !reqs[4].degraded {
		t.Fatal("watermark admission not degraded")
	}
	// Hand-drain two requests via dispatch to bring depth to 3 — inside
	// the hysteresis band.
	s.dispatch(0, reqs[:2])
	r, err := s.submit(images[0], deadline, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !r.degraded || r.budget != 8 {
		t.Errorf("in-band admission not held degraded: budget %d degraded %v", r.budget, r.degraded)
	}
	s.dispatch(0, append(reqs[2:], r))
	for _, q := range append(reqs, r) {
		<-q.done
	}
}

// TestBudgetHintHTTP covers the JSON dial end to end: budget and
// quality hints resolve to ladder rungs and are echoed; invalid hints
// are client errors, not server surprises.
func TestBudgetHintHTTP(t *testing.T) {
	_, images := testFamily(t)
	s := newFamilyServer(t, nil)
	s.startScheduler()

	classify := func(body any) (int, classifyResponse, string) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(raw)))
		var out classifyResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, out, rec.Body.String()
	}

	// Exact rung, off-ladder clamp, and the default.
	if code, out, body := classify(classifyRequest{Image: images[0], Budget: 8}); code != 200 || out.Budget != 8 {
		t.Errorf("budget 8: code %d, echoed %d (%s)", code, out.Budget, body)
	}
	if code, out, body := classify(classifyRequest{Image: images[0], Budget: 11}); code != 200 || out.Budget != 12 {
		t.Errorf("budget 11 should clamp to 12: code %d, echoed %d (%s)", code, out.Budget, body)
	}
	if code, out, body := classify(classifyRequest{Image: images[0]}); code != 200 || out.Budget != 12 {
		t.Errorf("default budget should be the family max: code %d, echoed %d (%s)", code, out.Budget, body)
	}

	// Quality maps across the ladder.
	q := func(v float64) *float64 { return &v }
	if code, out, body := classify(classifyRequest{Image: images[0], Quality: q(0)}); code != 200 || out.Budget != 4 {
		t.Errorf("quality 0: code %d, echoed %d (%s)", code, out.Budget, body)
	}
	if code, out, body := classify(classifyRequest{Image: images[0], Quality: q(0.5)}); code != 200 || out.Budget != 8 {
		t.Errorf("quality 0.5: code %d, echoed %d (%s)", code, out.Budget, body)
	}
	if code, out, body := classify(classifyRequest{Image: images[0], Quality: q(1)}); code != 200 || out.Budget != 12 {
		t.Errorf("quality 1: code %d, echoed %d (%s)", code, out.Budget, body)
	}

	// Invalid hints are 400s.
	for name, body := range map[string]classifyRequest{
		"negative budget": {Image: images[0], Budget: -3},
		"quality over 1":  {Image: images[0], Quality: q(1.5)},
		"both hints":      {Image: images[0], Budget: 8, Quality: q(0.5)},
	} {
		if code, _, resp := classify(body); code != http.StatusBadRequest {
			t.Errorf("%s got %d (%s), want 400", name, code, resp)
		}
	}
}

// TestBudgetHintWithoutLadder pins the single-plan behaviour: a budget
// hint against a server with no family is a 400, in-process it is
// ErrNoBudgets, and hint-less requests carry no budget echo.
func TestBudgetHintWithoutLadder(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, nil)
	s.startScheduler()

	if _, err := s.ClassifyBudget(context.Background(), images[0], 8); !errors.Is(err, ErrNoBudgets) {
		t.Errorf("in-process hint returned %v, want ErrNoBudgets", err)
	}
	raw, err := json.Marshal(classifyRequest{Image: images[0], Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(raw)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("HTTP hint got %d, want 400", rec.Code)
	}

	raw, err = json.Marshal(classifyRequest{Image: images[0]})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		t.Fatalf("plain classify got %d: %s", rec.Code, rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), `"budget"`) {
		t.Errorf("single-plan response leaks a budget field: %s", rec.Body.String())
	}
}

// TestOversizedBodyGets413 is the MaxBytesReader regression test: a
// body past the 1 MiB cap must answer 413, not a generic 400.
func TestOversizedBodyGets413(t *testing.T) {
	testPlan(t)
	s := newTestServer(t, nil)
	s.startScheduler()

	big := make([]byte, 0, maxBodyBytes+1<<16)
	big = append(big, `{"image":[`...)
	for len(big) <= maxBodyBytes {
		big = append(big, `0.123456789,`...)
	}
	big = append(big, `0]}`...)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got %d (%s), want 413", rec.Code, rec.Body.String())
	}
}

// TestNegativeDeadlineRejected is the deadline_ms regression test: a
// negative deadline is a client bug and must answer 400, not silently
// fall back to the server default.
func TestNegativeDeadlineRejected(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, nil)
	s.startScheduler()

	raw, err := json.Marshal(classifyRequest{Image: images[0], DeadlineMs: -50})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(raw)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative deadline got %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "deadline_ms") {
		t.Errorf("error body %q does not name deadline_ms", rec.Body.String())
	}
}

// TestHugeDeadlineClampedNotWrapped is the deadline_ms overflow
// regression test: milliseconds far past MaxDeadline must clamp to it.
// Converting first wraps the Duration — 9300000000000 ms turns negative
// (an immediate 504) and 18446744073710 ms into 448µs, well inside one
// batch window — so both must be answered 200 by a server whose batch
// window is far above a millisecond.
func TestHugeDeadlineClampedNotWrapped(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, func(c *Config) { c.MaxDelay = 20 * time.Millisecond })
	s.startScheduler()
	for _, ms := range []int64{9300000000000, 18446744073710} {
		raw, err := json.Marshal(classifyRequest{Image: images[0], DeadlineMs: ms})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Errorf("deadline_ms=%d got %d (%s), want 200", ms, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// TestQueueWaitHistogramCoversDeadlines is the histogram-range
// regression test: a near-deadline wait (far past the old 8*MaxDelay
// bound) must land in a finite bucket, not the overflow tail.
func TestQueueWaitHistogramCoversDeadlines(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, func(c *Config) { c.MaxDeadline = time.Second })

	r, err := s.submit(images[0], time.Now().Add(800*time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // wait in queue far past 8*MaxDelay
	s.startScheduler()
	if resp := <-r.done; resp.err != nil {
		t.Fatal(resp.err)
	}
	snap := s.met.queueWait.Snapshot()
	if snap.Total() != 1 {
		t.Fatalf("histogram holds %d observations, want 1", snap.Total())
	}
	var inBins int64
	for _, c := range snap.Counts {
		inBins += c
	}
	if inBins != 1 {
		t.Fatalf("near-deadline wait fell out of range: %d of 1 observations in finite bins (range [0, %gs))",
			inBins, snap.Max)
	}
	if snap.Max != s.cfg.MaxDeadline.Seconds() {
		t.Errorf("histogram max %g not ranged off MaxDeadline %g", snap.Max, s.cfg.MaxDeadline.Seconds())
	}
}

// TestQueueDepthGaugeBalance drives every admission outcome — served,
// shed, expired-in-queue, drain-flushed — and asserts the depth gauge
// returns to zero: each increment has exactly one decrement.
func TestQueueDepthGaugeBalance(t *testing.T) {
	_, images := testPlan(t)
	s := newTestServer(t, func(c *Config) { c.QueueCap = 8 })

	long := time.Now().Add(5 * time.Second)
	short := time.Now().Add(20 * time.Millisecond)
	var reqs []*request
	for i := 0; i < 6; i++ { // will be served or drain-flushed
		r, err := s.submit(images[i%len(images)], long, 0)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for i := 0; i < 2; i++ { // will expire in queue
		r, err := s.submit(images[i], short, 0)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	if _, err := s.submit(images[0], long, 0); !errors.Is(err, ErrQueueFull) { // shed
		t.Fatalf("overflow admission returned %v, want ErrQueueFull", err)
	}
	time.Sleep(40 * time.Millisecond) // let the short deadlines lapse queued

	s.startScheduler()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var ok, expired int
	for _, r := range reqs {
		resp := <-r.done
		switch {
		case resp.err == nil:
			ok++
		case errors.Is(resp.err, context.DeadlineExceeded):
			expired++
		default:
			t.Fatalf("unexpected outcome: %v", resp.err)
		}
	}
	st := s.Stats()
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after mixed workload, want 0", st.QueueDepth)
	}
	if ok != 6 || expired != 2 {
		t.Errorf("outcomes ok=%d expired=%d, want 6, 2", ok, expired)
	}
	if st.OK != 6 || st.Timeout != 2 || st.Shed != 1 {
		t.Errorf("stats %+v, want OK=6 Timeout=2 Shed=1", st)
	}
}
