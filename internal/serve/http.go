package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// maxBodyBytes bounds a classify request body. The largest demo model
// takes 192 floats; even generous models fit far under a megabyte of
// JSON, and an unbounded body is a memory-exhaustion vector.
const maxBodyBytes = 1 << 20

// classifyRequest is the POST /v1/classify body.
type classifyRequest struct {
	Image []float32 `json:"image"`
	// DeadlineMs is the client's serving deadline; 0 means the server
	// default. Clamped to Config.MaxDeadline; negative is a client bug
	// and rejected 400.
	DeadlineMs int64 `json:"deadline_ms"`
	// Budget is a TR group-budget hint, snapped onto the server's
	// ladder; 0 means the server default. Rejected 400 on a server with
	// no ladder, or when combined with Quality.
	Budget int `json:"budget,omitempty"`
	// Quality is the dial in relative form: 0.0 = lowest rung, 1.0 =
	// highest, mapped onto the ladder without the client knowing the
	// budget values. Mutually exclusive with Budget.
	Quality *float64 `json:"quality,omitempty"`
}

// classifyResponse is the success body. Budget echoes the rung the
// request actually ran at — under the degradation policy it can be
// lower than the hint, flagged by Degraded — and is omitted on
// single-plan servers.
type classifyResponse struct {
	Class     int   `json:"class"`
	BatchSize int   `json:"batch_size"`
	QueueUs   int64 `json:"queue_us"`
	Budget    int   `json:"budget,omitempty"`
	Degraded  bool  `json:"degraded,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the serving mux:
//
//	POST /v1/classify  classify one image (JSON in/out)
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text exposition (trq_serve_* and the
//	                   runtime's trq_intinfer_*/trq_kernel_* families)
//	     /debug/*      expvar + pprof, as on the obs endpoint
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	oh := obs.Handler(s.cfg.Obs)
	mux.Handle("/metrics", oh)
	mux.Handle("/debug/", oh)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status       string `json:"status"`
		ModelVersion string `json:"model_version,omitempty"`
	}{"ok", s.ModelVersion()})
}

// handleReload drives the hot-swap path: rebuild the model from the
// boot-configured source and swap it in between micro-batches. The
// request carries no body — the reload source is fixed at boot, so a
// client can trigger a reload but never choose what gets loaded.
func (s *Server) handleReload(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	version, err := s.Reload(req.Context())
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, struct {
			Status       string `json:"status"`
			ModelVersion string `json:"model_version,omitempty"`
		}{"reloaded", version})
	case errors.Is(err, ErrNoReload):
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrReloadBusy):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func (s *Server) handleClassify(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var in classifyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(&in); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(in.Image) != s.inLen {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("image has %d values, the model wants %d", len(in.Image), s.inLen)})
		return
	}
	if in.DeadlineMs < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("deadline_ms must not be negative, got %d", in.DeadlineMs)})
		return
	}
	budget, err := s.requestBudget(in)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	deadline := s.cfg.DefaultDeadline
	if in.DeadlineMs > 0 {
		// Clamp in milliseconds before converting: the Duration product
		// wraps for deadlines past ~292 years, and a wrapped one can read
		// as negative (an instant 504) or as a few microseconds.
		deadline = s.cfg.MaxDeadline
		if in.DeadlineMs < s.cfg.MaxDeadline.Milliseconds() {
			deadline = time.Duration(in.DeadlineMs) * time.Millisecond
		}
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(req.Context(), deadline)
	defer cancel()
	res, err := s.ClassifyBudget(ctx, in.Image, budget)
	s.met.latency.Observe(time.Since(start).Seconds())
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, classifyResponse{Class: res.Class,
			BatchSize: res.BatchSize, QueueUs: res.QueueWait.Microseconds(),
			Budget: res.Budget, Degraded: res.Degraded})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrNoBudgets):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "deadline exceeded"})
	case errors.Is(err, context.Canceled):
		// The client hung up; the status is best-effort for proxies.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request cancelled"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// requestBudget validates and resolves the body's quality hints into a
// budget for ClassifyBudget: 0 when no hint was given (server default),
// the exact Budget, or Quality mapped across the ladder (0.0 = lowest
// rung, 1.0 = highest, nearest rung in between). Hints on a server with
// no ladder, both hints at once, or a hint outside its domain are
// client errors.
func (s *Server) requestBudget(in classifyRequest) (int, error) {
	if in.Budget == 0 && in.Quality == nil {
		return 0, nil
	}
	budgets := s.Budgets()
	if budgets == nil {
		return 0, ErrNoBudgets
	}
	if in.Budget != 0 && in.Quality != nil {
		return 0, errors.New("budget and quality are mutually exclusive")
	}
	if in.Quality != nil {
		q := *in.Quality
		if q < 0 || q > 1 {
			return 0, fmt.Errorf("quality must be in [0, 1], got %g", q)
		}
		return budgets[int(q*float64(len(budgets)-1)+0.5)], nil
	}
	if in.Budget < 0 {
		return 0, fmt.Errorf("budget must not be negative, got %d", in.Budget)
	}
	return in.Budget, nil
}

// retryAfterSeconds renders a Retry-After header value, at least 1s —
// sub-second hints round to zero, which clients read as "immediately".
func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The connection is gone; there is no one left to tell.
		return
	}
}
