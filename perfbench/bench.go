package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/datasets"
	"repro/internal/demoplan"
	"repro/internal/intinfer"
	"repro/internal/kernels"
	"repro/internal/kernels/autotune"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// rounds: the load phases run as interleaved rounds, each preceded by
	// setupsPerRound cold set-ups, so every metric, setup_s included,
	// samples the whole run rather than one moment of a shared host.
	rounds         = 3
	setupsPerRound = 7
	poolSize       = 2048 // images per model drawn from the seed
	closedClients  = 2    // closed-loop clients, one per core of a 2-CPU box
	httpConns      = 2    // keep-alive connections of the HTTP client
	offlineBatch   = 64
	ladderStep     = 1.05 // max-rate ladder: rungs 5% apart
	sloShare       = 0.99
	// sloLatency is the max-rate latency limit: half the server's 50 ms
	// default deadline. On a 2-vCPU VM, host stalls of ~10 ms put the
	// light-load p99 near 10 ms, so a 10 ms limit would measure the host
	// rather than the server; the limit must sit well above those stalls.
	sloLatency = 25 * time.Millisecond
	warmup     = 300 * time.Millisecond
	// requestDeadline is the deadline every request carries, below the
	// server's 5 s MaxDeadline. The server's 50 ms default would turn a
	// host stall of a shared VM into a timeout now and then, so two runs
	// of the same code would disagree on what failed; a slower server
	// shows in the latency metrics instead.
	requestDeadline = time.Second
	buildDir        = ".bench_build"
)

// Shares of --seconds each phase measures. The traced run adds the
// HTTP probe, the max-rate ladder and the offline phase on top.
const (
	shareClosed    = 1.0 / 3
	shareLight     = 1.0 / 3
	shareBusy      = 1.0 / 3
	shareHTTPProbe = 0.10
	shareLadder    = 0.25
	shareOffline   = 0.10
)

// model is one demo model: its .trq bytes, the seeded image pool, the
// compiled family and the reference classes per rung.
type model struct {
	name string
	trq  []byte
	pool *datasets.ImageDataset
	fam  *intinfer.Family
	ref  map[int][]int // rung -> reference class of each pool image
}

// Request outcomes.
const (
	statusOK = iota
	statusShed
	statusTimeout
	statusError
)

// answer is what one request got back.
type answer struct {
	status   int
	class    int
	budget   int
	degraded bool
	wrong    bool          // OK, but the class differs from the reference
	queue    time.Duration // reported queue wait
	call     time.Duration // time inside the call into the program
}

// phase holds the per-request record of one load phase.
type phase struct {
	lat     []time.Duration // from due time (open loop) or send (closed loop)
	ans     []answer
	img     []int
	sched   []time.Duration // open loop: due offsets
	late    []time.Duration // open loop: generator lateness
	peak    int             // open loop: most requests due and unanswered at once
	elapsed time.Duration
}

type harness struct {
	spec   workload
	seed   int64
	dir    string // the run's temporary directory
	served *model
	other  *model
	srv    *serve.Server

	plain, traced       []*http.Client
	plainURL, tracedURL string
	bodies              [][][]byte // HTTP bodies by [image][hint index]

	reqIDs     atomic.Int64
	mismatches atomic.Int64
	failures   atomic.Int64 // requests not answered OK
	overload   atomic.Bool  // the max-rate ladder is probing, where sheds are expected
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// rng derives a generator for one named input stream from the seed.
func (h *harness) rng(tag string) *rand.Rand {
	f := fnv.New64a()
	f.Write([]byte(tag))
	return rand.New(rand.NewSource(h.seed ^ int64(f.Sum64())))
}

// draw picks a pool image and a hint index (-1: no hint).
func (h *harness) draw(rng *rand.Rand) (img, hint int) {
	img = rng.Intn(poolSize)
	hint = -1
	if len(h.spec.Hints) > 0 {
		hint = rng.Intn(len(h.spec.Hints))
	}
	return img, hint
}

// trainTRQ trains a demo model from demoplan's fixed seeds and encodes
// it as a .trq artifact, as trserve persists its boot model.
func trainTRQ(name string) ([]byte, error) {
	m, hidden, _, err := demoplan.ModelByName(name)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = artifact.WriteModel(&buf, m, hidden, artifact.WriteOptions{
		GroupSize: demoplan.QuantGroupSize, GroupBudget: demoplan.QuantGroupBudget, Version: "bench"})
	return buf.Bytes(), err
}

// imagePool draws the seed's labelled images for a model. MLP images
// come straight from the digits generator. The CNN task's class
// templates are fixed by its generator seed, so its images are a seeded
// draw from the held-out tail of the recipe demoplan trains on
// (ImageClassesHard, separation and noise 0.4, seed 96, first 88
// images used for training).
func imagePool(name string, seed int64) *datasets.ImageDataset {
	if name == "mlp" {
		return datasets.DigitsNoisy(poolSize, 0.2, seed)
	}
	const trainN, heldOut = 88, 4096
	all := datasets.ImageClassesHard(trainN+heldOut, 4, 3, 8, 8, 0.4, 0.4, 96)
	_, tail := all.Split(trainN)
	rng := rand.New(rand.NewSource(seed))
	d := &datasets.ImageDataset{C: tail.C, H: tail.H, W: tail.W, Classes: tail.Classes}
	for _, i := range rng.Perm(heldOut)[:poolSize] {
		d.Images = append(d.Images, tail.Images[i])
		d.Labels = append(d.Labels, tail.Labels[i])
	}
	return d
}

// setupTimes splits one cold set-up.
type setupTimes struct {
	total, decode, build time.Duration
}

// coldSetup goes from .trq bytes to a ready server the way trserve
// boots, against a fresh autotune cache so tile tuning is paid as on a
// machine that never ran the program. Without a server it stops after
// compiling the family.
func coldSetup(dir string, n int, m *model, withServer bool, tr *tracer) (setupTimes, *intinfer.Family, *serve.Server, error) {
	var st setupTimes
	if err := os.Setenv("TRQ_AUTOTUNE_CACHE", filepath.Join(dir, fmt.Sprintf("autotune-%d.json", n))); err != nil {
		return st, nil, nil, err
	}
	autotune.Reset()
	reg := obs.New()
	autotune.SetObs(reg)
	runtime.GC()
	root := tr.id()
	t0 := time.Now()
	rm, _, err := artifact.DecodeModel(m.trq)
	if err != nil {
		return st, nil, nil, fmt.Errorf("decode %s: %w", m.name, err)
	}
	t1 := time.Now()
	fam, err := demoplan.FamilyFromModel(rm, reg, demoplan.DefaultBudgets)
	if err != nil {
		return st, nil, nil, fmt.Errorf("compile %s: %w", m.name, err)
	}
	t2 := time.Now()
	var srv *serve.Server
	if withServer {
		srv, err = serve.New(serve.Config{Family: fam,
			MaxBatch: serve.DefaultMaxBatch, MaxDelay: serve.DefaultMaxDelay,
			QueueCap: serve.DefaultQueueCap, Workers: 1, BatchWorkers: 1,
			DefaultDeadline: serve.DefaultDeadline, MaxDeadline: serve.DefaultMaxDeadline,
			ModelVersion: "bench", Obs: reg})
		if err == nil {
			err = srv.Start("127.0.0.1:0")
		}
		if err != nil {
			return st, nil, nil, fmt.Errorf("start %s server: %w", m.name, err)
		}
	}
	t3 := time.Now()
	tr.add(0, root, 0, "artifact.DecodeModel", t0, t1)
	tr.add(0, root, 0, "demoplan.FamilyFromModel", t1, t2)
	if withServer {
		tr.add(0, root, 0, "serve.Server.Start", t2, t3)
	}
	tr.add(root, 0, 0, "setup."+m.name, t0, t3)
	st = setupTimes{total: t3.Sub(t0), decode: t1.Sub(t0), build: t2.Sub(t1)}
	return st, fam, srv, nil
}

// setupRound runs setupsPerRound cold set-ups of the served model and
// drains each server, except that keep leaves the last one serving.
func (h *harness) setupRound(round int, keep bool, tr *tracer) ([]setupTimes, error) {
	var out []setupTimes
	for i := 0; i < setupsPerRound; i++ {
		st, fam, srv, err := coldSetup(h.dir, round*setupsPerRound+i, h.served, true, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if keep && i == setupsPerRound-1 {
			h.served.fam, h.srv = fam, srv
			break
		}
		if err := srv.Drain(context.Background()); err != nil {
			return nil, fmt.Errorf("drain set-up server: %w", err)
		}
	}
	runtime.GC()
	return out, nil
}

// loadPhases runs the closed, light and busy phases as interleaved
// rounds with a set-up round between them, appending the set-up times.
// With a tracer, each round's closed loop is split into an untraced and
// a traced half, and overhead is the traced half's throughput loss.
func (h *harness) loadPhases(secs float64, setups *[]setupTimes, tr *tracer) (closed, light, busy phase, overhead float64, err error) {
	var rate [2]float64
	for r := 0; r < rounds; r++ {
		if r > 0 {
			st, err := h.setupRound(r, false, tr)
			if err != nil {
				return closed, light, busy, 0, err
			}
			*setups = append(*setups, st...)
		}
		if tr == nil {
			closed = merge(closed, h.closed(fmt.Sprintf("closed/%d", r), secondsOf(secs, shareClosed/rounds), nil))
		} else {
			for half, t := range []*tracer{nil, tr} {
				p := h.closed(fmt.Sprintf("closed/%d/%d", r, half), secondsOf(secs, shareClosed/rounds/2), t)
				rate[half] += float64(len(p.ans)) / p.elapsed.Seconds()
				closed = merge(closed, p)
			}
			overhead = 1 - rate[1]/rate[0]
		}
		light = merge(light, h.open(fmt.Sprintf("light/%d", r), h.spec.LightRPS, secondsOf(secs, shareLight/rounds), tr))
		busy = merge(busy, h.open(fmt.Sprintf("busy/%d", r), h.spec.BusyRPS, secondsOf(secs, shareBusy/rounds), tr))
	}
	return closed, light, busy, overhead, nil
}

// merge appends phase b's requests to phase a.
func merge(a, b phase) phase {
	a.lat = append(a.lat, b.lat...)
	a.ans = append(a.ans, b.ans...)
	a.img = append(a.img, b.img...)
	a.late = append(a.late, b.late...)
	a.peak = max(a.peak, b.peak)
	a.elapsed += b.elapsed
	return a
}

// buildOracle classifies every pool image at every rung through the
// single-image path, before anything is timed.
func buildOracle(m *model) error {
	m.ref = make(map[int][]int)
	for _, k := range m.fam.Budgets() {
		p, _ := m.fam.Plan(k)
		ref := make([]int, len(m.pool.Images))
		for i, img := range m.pool.Images {
			c, err := p.Classify(img)
			if err != nil {
				return fmt.Errorf("reference %s k=%d image %d: %w", m.name, k, i, err)
			}
			ref[i] = c
		}
		m.ref[k] = ref
	}
	return nil
}

// check compares an OK answer with the reference at the rung it reports.
func (h *harness) check(m *model, img int, a *answer) {
	if a.status != statusOK {
		return
	}
	ref, ok := m.ref[a.budget]
	if ok && ref[img] == a.class {
		return
	}
	a.wrong = true
	if n := h.mismatches.Add(1); n <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: %s image %d rung %d: got class %d, reference %v\n",
			m.name, img, a.budget, a.class, refClass(ref, img))
	}
}

func refClass(ref []int, img int) any {
	if ref == nil {
		return "none (rung not on the ladder)"
	}
	return ref[img]
}

// send issues one request on connection conn and returns its answer.
func (h *harness) send(conn int, tr *tracer, img, hint int) answer {
	req := h.reqIDs.Add(1)
	if h.spec.HTTP {
		return h.sendHTTP(conn, tr, req, img, hint)
	}
	budget := 0
	if hint >= 0 {
		budget = h.spec.Hints[hint]
	}
	id := tr.id()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	res, err := h.srv.ClassifyBudget(ctx, h.served.pool.Images[img], budget)
	end := time.Now()
	cancel()
	tr.add(id, 0, req, "serve.Server.ClassifyBudget", start, end)
	a := answer{call: end.Sub(start)}
	switch {
	case err == nil:
		a.class, a.budget, a.degraded, a.queue = res.Class, res.Budget, res.Degraded, res.QueueWait
		tr.add(0, id, req, "serve.queue", start, start.Add(res.QueueWait))
	case errors.Is(err, serve.ErrQueueFull):
		a.status = statusShed
	case errors.Is(err, context.DeadlineExceeded):
		a.status = statusTimeout
	default:
		a.status = statusError
	}
	if err != nil {
		h.noteFailure(a.status, err.Error())
	}
	h.check(h.served, img, &a)
	return a
}

var statusNames = [...]string{statusOK: "ok", statusShed: "shed", statusTimeout: "timeout", statusError: "error"}

// noteFailure prints the first few requests that were not answered OK,
// so a failure in the result line can be traced to its cause.
func (h *harness) noteFailure(status int, detail string) {
	if h.overload.Load() {
		return
	}
	if n := h.failures.Add(1); n <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: request failed: %s: %s\n", statusNames[status], detail)
	}
}

type httpAnswer struct {
	Class    int   `json:"class"`
	QueueUs  int64 `json:"queue_us"`
	Budget   int   `json:"budget"`
	Degraded bool  `json:"degraded"`
}

func (h *harness) sendHTTP(conn int, tr *tracer, req int64, img, hint int) answer {
	c, url := h.plain[conn], h.plainURL
	if tr != nil {
		c, url = h.traced[conn], h.tracedURL
	}
	hi := hint
	if hi < 0 {
		hi = 0
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(h.bodies[img][hi]))
	if err != nil {
		return answer{status: statusError}
	}
	hr.Header.Set("Content-Type", "application/json")
	id := tr.id()
	if tr != nil {
		hr.Header.Set("X-Bench-Span", strconv.FormatInt(id, 10))
		hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	}
	start := time.Now()
	resp, err := c.Do(hr)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	tr.add(id, 0, req, "http.Client.Do", start, end)
	a := answer{call: end.Sub(start)}
	switch {
	case err != nil:
		a.status = statusError
		h.noteFailure(a.status, err.Error())
	case resp.StatusCode == http.StatusOK:
		var r httpAnswer
		if json.Unmarshal(body, &r) != nil {
			a.status = statusError
			break
		}
		a.class, a.budget, a.degraded = r.Class, r.Budget, r.Degraded
		a.queue = time.Duration(r.QueueUs) * time.Microsecond
		tr.add(0, id, req, "serve.queue", start, start.Add(a.queue))
	case resp.StatusCode == http.StatusTooManyRequests:
		a.status = statusShed
	case resp.StatusCode == http.StatusGatewayTimeout:
		a.status = statusTimeout
	default:
		a.status = statusError
	}
	if a.status != statusOK && err == nil {
		h.noteFailure(a.status, fmt.Sprintf("HTTP %d %s", resp.StatusCode, bytes.TrimSpace(body)))
	}
	h.check(h.served, img, &a)
	return a
}

// tracedHandler wraps the server's handler with a span per request; the
// client passes its span and request ids in headers.
func tracedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.add(0, parent, req, "serve.Handler.ServeHTTP", start, time.Now())
	})
}

// newHTTPClients returns one client per connection, each holding at
// most one keep-alive connection.
func newHTTPClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// encodeBodies pre-encodes every (image, hint) request body so the
// client spends no CPU on JSON encoding while measuring.
func (h *harness) encodeBodies() error {
	hints := h.spec.Hints
	if len(hints) == 0 {
		hints = []int{0}
	}
	h.bodies = make([][][]byte, poolSize)
	for i, img := range h.served.pool.Images {
		for _, k := range hints {
			b, err := json.Marshal(struct {
				Image      []float32 `json:"image"`
				Budget     int       `json:"budget,omitempty"`
				DeadlineMs int64     `json:"deadline_ms"`
			}{img, k, requestDeadline.Milliseconds()})
			if err != nil {
				return err
			}
			h.bodies[i] = append(h.bodies[i], b)
		}
	}
	return nil
}

// closed runs the closed loop for d.
func (h *harness) closed(name string, d time.Duration, tr *tracer) phase {
	per := make([]phase, closedClients)
	rngs := make([]*rand.Rand, closedClients)
	for c := range rngs {
		rngs[c] = h.rng(fmt.Sprintf("%s/%d", name, c))
	}
	start := time.Now()
	runClosed(closedClients, d, func(c, _ int) {
		img, hint := h.draw(rngs[c])
		if hint >= 0 {
			// Each closed-loop client keeps one hint, as a caller with a
			// fixed quality preference does. With a fresh hint per request
			// two clients settle into different batching regimes from run
			// to run (p50 from 2.6 to 4.3 ms across seeds).
			hint = c % len(h.spec.Hints)
		}
		t := time.Now()
		a := h.send(c, tr, img, hint)
		per[c].lat = append(per[c].lat, time.Since(t))
		per[c].ans = append(per[c].ans, a)
		per[c].img = append(per[c].img, img)
	})
	p := phase{elapsed: time.Since(start)}
	for _, q := range per {
		p.lat = append(p.lat, q.lat...)
		p.ans = append(p.ans, q.ans...)
		p.img = append(p.img, q.img...)
	}
	return p
}

// open runs a seeded Poisson open loop at rate for d. In-process
// workloads get one goroutine per in-flight request; the HTTP workload
// queues due requests for its two connections.
func (h *harness) open(name string, rate float64, d time.Duration, tr *tracer) phase {
	rng := h.rng(name)
	sched := poissonSchedule(rng, rate, d)
	n := len(sched)
	p := phase{sched: sched, lat: make([]time.Duration, n),
		ans: make([]answer, n), img: make([]int, n)}
	hints := make([]int, n)
	for i := range sched {
		p.img[i], hints[i] = h.draw(rng)
	}
	start := time.Now()
	if h.spec.HTTP {
		p.late = runOpenPool(sched, httpConns, func(conn, i int, due time.Time) {
			p.ans[i] = h.send(conn, tr, p.img[i], hints[i])
			p.lat[i] = time.Since(due)
		})
	} else {
		p.late = runOpenGo(sched, func(i int, due time.Time) {
			p.ans[i] = h.send(0, tr, p.img[i], hints[i])
			p.lat[i] = time.Since(due)
		})
	}
	p.elapsed = time.Since(start)
	p.peak = peakOutstanding(p)
	return p
}

// peakOutstanding is the most requests of an open-loop phase that were
// due and not yet answered at one instant. Against the server's queue
// capacity it shows how close the phase came to shedding.
func peakOutstanding(p phase) int {
	ends := make([]time.Duration, len(p.sched))
	for i, due := range p.sched {
		ends[i] = due + p.lat[i]
	}
	slices.Sort(ends)
	peak, done := 0, 0
	for i, due := range p.sched {
		for done < len(ends) && ends[done] <= due {
			done++
		}
		peak = max(peak, i+1-done)
	}
	return peak
}

// backlogGrew reports whether requests outstanding (due but not yet
// answered) rose over the phase: the mean over its last third exceeds
// twice the mean over its first third plus one full batch.
func backlogGrew(p phase, d time.Duration) bool {
	const samples = 60
	var thirds [3]float64
	for s := 0; s < samples; s++ {
		t := time.Duration(float64(d) * (float64(s) + 0.5) / samples)
		out := 0
		for i, due := range p.sched {
			if due > t {
				break
			}
			if due+p.lat[i] > t {
				out++
			}
		}
		thirds[s*3/samples] += float64(out) / (samples / 3)
	}
	return thirds[2] > 2*thirds[0]+float64(serve.DefaultMaxBatch)
}

// meetsSLO reports whether a ladder probe kept 99% of the requests sent
// answered OK within the latency limit without a growing backlog, and
// the share that was.
func meetsSLO(p phase, d time.Duration) (bool, float64) {
	good := 0
	for i, a := range p.ans {
		if a.status == statusOK && !a.wrong && p.lat[i] <= sloLatency {
			good++
		}
	}
	share := float64(good) / float64(max(len(p.ans), 1))
	return share >= sloShare && !backlogGrew(p, d), share
}

// ladder returns the highest rung of the geometric ladder that meets the
// SLO, by bisection over the rungs, and the rungs probed.
func (h *harness) ladder(total time.Duration) (float64, []string) {
	var rungs []float64
	for r := h.spec.LadderLo; r <= h.spec.LadderHi; r *= ladderStep {
		rungs = append(rungs, r)
	}
	probes := 1
	for 1<<probes < len(rungs)+1 {
		probes++
	}
	d := total / time.Duration(probes)
	h.overload.Store(true)
	defer h.overload.Store(false)
	best := -1
	var log []string
	for lo, hi := 0, len(rungs)-1; lo <= hi; {
		mid := (lo + hi) / 2
		p := h.open(fmt.Sprintf("ladder/%d", mid), rungs[mid], d, nil)
		ok, share := meetsSLO(p, d)
		log = append(log, fmt.Sprintf("%.0f/s %.4f %v", rungs[mid], share, ok))
		if ok {
			best, lo = mid, mid+1
		} else {
			hi = mid - 1
		}
		time.Sleep(20 * time.Millisecond) // let the server settle between probes
	}
	if best < 0 {
		return rungs[0] / ladderStep, log
	}
	return rungs[best], log
}

// offline times batches of 64 through InferBatchContext at the top rung
// for d and returns images per second at the 10th-percentile batch time.
// Host CPU steal on a shared VM only ever lengthens a batch, and on the
// small model batch times are bimodal, so a mean or median moves with
// the host while the fast decile tracks the code.
func (h *harness) offline(m *model, d time.Duration, tr *tracer) (ips float64, attempted, failed int64) {
	top := m.fam.MaxBudget()
	plan, _ := m.fam.Plan(top)
	rng := h.rng("offline/" + m.name)
	var secs []float64
	stop := time.Now().Add(d)
	for i := 0; i < 20 || time.Now().Before(stop); i++ {
		first := rng.Intn(poolSize - offlineBatch + 1)
		batch := m.pool.Images[first : first+offlineBatch]
		t := time.Now()
		preds, err := plan.InferBatchContext(context.Background(), batch, 0)
		dt := time.Since(t)
		tr.add(0, 0, 0, "intinfer.Plan.InferBatchContext", t, t.Add(dt))
		attempted += offlineBatch
		if err != nil {
			failed += offlineBatch
			continue
		}
		secs = append(secs, dt.Seconds())
		for j, c := range preds {
			a := answer{class: c, budget: top}
			h.check(m, first+j, &a)
			if a.wrong {
				failed++
			}
		}
	}
	if p10 := NewPercentiles(secs).At(10); p10 > 0 {
		ips = offlineBatch / p10
	}
	return ips, attempted, failed
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeCounters reads GC cycles and cumulative heap allocation.
func runtimeCounters() (gc, alloc uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func secondsOf(secs, share float64) time.Duration {
	return time.Duration(secs * share * float64(time.Second))
}

// run executes one benchmark run and returns its result line.
func run(spec workload, seed int64, secs float64, traced bool, out io.Writer) (result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	prov := newProvenance(spec, seed, secs, traced)
	if err := printLine(out, "provenance", prov); err != nil {
		return result{}, err
	}

	// Training happens once per invocation and stays out of set-up.
	h := &harness{spec: spec, seed: seed}
	models := map[string]*model{}
	for _, name := range []string{"mlp", "cnn"} {
		trq, err := trainTRQ(name)
		if err != nil {
			return result{}, fmt.Errorf("train %s: %w", name, err)
		}
		models[name] = &model{name: name, trq: trq, pool: imagePool(name, seed)}
	}
	h.served = models[spec.Model]
	h.other = models["cnn"]
	if spec.Model == "cnn" {
		h.other = models["mlp"]
	}

	h.dir = dir
	setups, err := h.setupRound(0, true, tr)
	if err != nil {
		return result{}, err
	}
	defer h.srv.Drain(context.Background())
	_, h.other.fam, _, err = coldSetup(dir, rounds*setupsPerRound, h.other, false, nil)
	if err != nil {
		return result{}, err
	}
	for _, m := range models {
		if err := buildOracle(m); err != nil {
			return result{}, err
		}
	}
	if spec.HTTP || traced {
		if err := h.encodeBodies(); err != nil {
			return result{}, err
		}
		h.plain = newHTTPClients(httpConns)
		defer closeClients(h.plain)
		h.plainURL = "http://" + h.srv.Addr + "/v1/classify"
	}

	h.closed("warmup", warmup, nil)
	h.mismatches.Store(0)
	if traced {
		return h.tracedRun(out, tr, prov, models, setups, secs)
	}

	closed, light, busy, _, err := h.loadPhases(secs, &setups, nil)
	if err != nil {
		return result{}, err
	}
	res := h.tally(closed, light, busy)
	closedP, lightP, busyP, err := printLatencies(out, closed, light, busy)
	if err != nil {
		return result{}, err
	}
	m := res.Metrics
	m["setup_s"] = metric{median(setupSeconds(setups)), "s"}
	if err := printSetups(out, setups); err != nil {
		return result{}, err
	}
	m["throughput_rps"] = metric{float64(len(closed.ans)) / closed.elapsed.Seconds(), "1/s"}
	m["p50_ms"] = metric{closedP.At(50), "ms"}
	m["p50_ms.light"] = metric{lightP.At(50), "ms"}
	m["p50_ms.busy"] = metric{busyP.At(50), "ms"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return res, nil
}

// tracedRun runs the phases again with spans recorded around every call
// into the program, adds the max-rate ladder and the per-layer probes,
// and reports the per-layer metrics.
func (h *harness) tracedRun(out io.Writer, tr *tracer, prov provenance, models map[string]*model,
	setups []setupTimes, secs float64) (result, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return result{}, err
	}
	hs := &http.Server{Handler: tracedHandler(h.srv.Handler(), tr),
		ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Shutdown(context.Background())
		<-served
	}()
	h.traced = newHTTPClients(httpConns)
	defer closeClients(h.traced)
	h.tracedURL = "http://" + ln.Addr().String() + "/v1/classify"

	kreg := obs.New()
	kernels.SetObs(kreg)
	defer kernels.SetObs(nil)
	st0 := h.srv.Stats()
	gc0, alloc0 := runtimeCounters()

	closed, light, busy, overhead, err := h.loadPhases(secs, &setups, tr)
	if err != nil {
		return result{}, err
	}

	st1 := h.srv.Stats()
	gc1, alloc1 := runtimeCounters()
	answered := float64(max(st1.OK-st0.OK, 1))
	kernelsPerAnswer := map[string]float64{}
	for _, k := range kernelCounters {
		kernelsPerAnswer[k.metric] = float64(kreg.Counter(k.family, "path", k.path).Value()) / answered
	}
	kernels.SetObs(nil)

	if !h.spec.HTTP {
		// In-process workloads still report HTTP-layer timings, from a
		// short closed loop through the traced handler.
		h.spec.HTTP = true
		h.closed("http-probe", secondsOf(secs, shareHTTPProbe), tr)
		h.spec.HTTP = false
	}
	maxRate, probes := h.ladder(secondsOf(secs, shareLadder))
	if err := printLine(out, "ladder", map[string]any{"probes": probes, "max_rate_rps": maxRate}); err != nil {
		return result{}, err
	}
	res := h.tally(closed, light, busy)
	ipsServed, offA1, offF1 := h.offline(h.served, secondsOf(secs, shareOffline/2), tr)
	ipsOther, offA2, offF2 := h.offline(h.other, secondsOf(secs, shareOffline/2), tr)
	res.Attempted += offA1 + offA2
	res.Failed += offF1 + offF2
	res.Correct = h.mismatches.Load() == 0
	closedP, lightP, busyP, err := printLatencies(out, closed, light, busy)
	if err != nil {
		return result{}, err
	}
	m := res.Metrics
	delete(m, "served_accuracy")
	m["images_per_s."+h.served.name] = metric{ipsServed, "1/s"}
	m["images_per_s."+h.other.name] = metric{ipsOther, "1/s"}
	m["p99_ms"] = metric{closedP.At(99), "ms"}
	m["p99_ms.light"] = metric{lightP.At(99), "ms"}
	m["p99_ms.busy"] = metric{busyP.At(99), "ms"}
	m["max_rate_rps"] = metric{maxRate, "1/s"}
	m["fail_share"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "share"}
	lc := layerCtx{h: h, tr: tr, models: models, setups: setups,
		fixed: []phase{closed, light, busy}, light: light, busy: busy, st0: st0, st1: st1,
		gc: gc1 - gc0, alloc: alloc1 - alloc0, overhead: overhead,
		kernelsPerAnswer: kernelsPerAnswer}
	if err := lc.fill(m); err != nil {
		return result{}, err
	}
	if err := tr.write(filepath.Join(buildDir, "trace", h.spec.Name+".jsonl"), prov); err != nil {
		return result{}, err
	}
	return res, nil
}

// tally counts the fixed-load phases: every request is attempted, one
// fails when it is not answered OK or its class differs from the
// reference, and served_accuracy is the share of OK answers matching
// the image's label.
func (h *harness) tally(fixed ...phase) result {
	res := result{Metrics: map[string]metric{}}
	var ok, labelOK int64
	for _, p := range fixed {
		for i, a := range p.ans {
			res.Attempted++
			if a.status != statusOK || a.wrong {
				res.Failed++
			}
			if a.status == statusOK {
				ok++
				if a.class == h.served.pool.Labels[p.img[i]] {
					labelOK++
				}
			}
		}
	}
	res.Correct = h.mismatches.Load() == 0
	res.Metrics["served_accuracy"] = metric{float64(labelOK) / float64(max(ok, 1)), "share"}
	return res
}

// printLatencies prints each phase's sample count, median, p99, the
// highest percentile its sample supports and, for open loops, how late
// the generator released requests.
func printLatencies(out io.Writer, closed, light, busy phase) (c, l, b Percentiles, err error) {
	ps := []Percentiles{NewPercentiles(durationsMs(closed.lat)),
		NewPercentiles(durationsMs(light.lat)), NewPercentiles(durationsMs(busy.lat))}
	for i, p := range []phase{closed, light, busy} {
		line := map[string]any{"phase": []string{"closed", "light", "busy"}[i], "n": ps[i].N(),
			"p50_ms": ps[i].At(50), "p99_ms": ps[i].At(99),
			"highest_supported_percentile": ps[i].Supported(), "failed": failedByStatus(p)}
		if p.late != nil {
			lp := NewPercentiles(durationsMs(p.late))
			line["late_p99_ms"], line["late_max_ms"] = lp.At(99), lp.At(100)
			line["peak_outstanding"] = p.peak
		}
		if err = printLine(out, "latency", line); err != nil {
			return
		}
	}
	return ps[0], ps[1], ps[2], nil
}

// failedByStatus counts a phase's failed requests by outcome.
func failedByStatus(p phase) map[string]int {
	out := map[string]int{}
	for _, a := range p.ans {
		if a.status != statusOK {
			out[statusNames[a.status]]++
		} else if a.wrong {
			out["wrong"]++
		}
	}
	return out
}

// printSetups prints every cold set-up time in the order they ran, so
// the spread behind the setup_s median can be read.
func printSetups(out io.Writer, setups []setupTimes) error {
	ms := make([]float64, len(setups))
	for i, st := range setups {
		ms[i] = float64(st.total.Microseconds()) / 1000
	}
	return printLine(out, "setup", map[string]any{"n": len(ms), "ms": ms})
}

func setupSeconds(setups []setupTimes) []float64 {
	out := make([]float64, len(setups))
	for i, s := range setups {
		out[i] = s.total.Seconds()
	}
	return out
}

// printLine writes a "# kind {json}" line: context for a reader of the
// output, never the result line, which is always last.
func printLine(w io.Writer, kind string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "# %s %s\n", kind, b)
	return err
}
