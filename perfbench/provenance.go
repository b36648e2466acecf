package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/demoplan"
	"repro/internal/kernels"
	"repro/internal/serve"
)

// provenance stamps a run's output with what produced it.
type provenance struct {
	Workload string  `json:"workload"`
	Model    string  `json:"model"`
	HTTP     bool    `json:"http"`
	Hints    []int   `json:"hints,omitempty"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	LightRPS float64 `json:"light_rps"`
	BusyRPS  float64 `json:"busy_rps"`
	LadderLo float64 `json:"ladder_lo_rps"`
	LadderHi float64 `json:"ladder_hi_rps"`

	// GitRev comes from TRBENCH_GIT_REV when set; SourceSHA256 always
	// identifies the sources the benchmark was built from.
	GitRev       string   `json:"git_rev"`
	SourceSHA256 string   `json:"source_sha256"`
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	Features     []string `json:"kernel_features"`
	GoVersion    string   `json:"go_version"`

	MaxBatch      int     `json:"max_batch"`
	MaxDelayMs    float64 `json:"max_delay_ms"`
	QueueCap      int     `json:"queue_cap"`
	DeadlineMs    float64 `json:"default_deadline_ms"`
	Budgets       []int   `json:"budgets"`
	SetupReps     int     `json:"setup_reps"`
	ClosedClients int     `json:"closed_clients"`
}

func newProvenance(w workload, seed int64, secs float64, traced bool) provenance {
	return provenance{Workload: w.Name, Model: w.Model, HTTP: w.HTTP, Hints: w.Hints,
		Seed: seed, Seconds: secs, Traced: traced,
		LightRPS: w.LightRPS, BusyRPS: w.BusyRPS, LadderLo: w.LadderLo, LadderHi: w.LadderHi,
		GitRev: os.Getenv("TRBENCH_GIT_REV"), SourceSHA256: sourceDigest("."),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Features: kernels.Features(), GoVersion: runtime.Version(),
		MaxBatch: serve.DefaultMaxBatch, MaxDelayMs: ms(serve.DefaultMaxDelay.Seconds()),
		QueueCap: serve.DefaultQueueCap, DeadlineMs: ms(serve.DefaultDeadline.Seconds()),
		Budgets: demoplan.DefaultBudgets, SetupReps: rounds * setupsPerRound, ClosedClients: closedClients}
}

func ms(s float64) float64 { return s * 1000 }

// sourceDigest hashes the Go sources, assembly and module files under
// root (hidden directories such as the build directory excluded), so a
// result can be tied to its sources without a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".s", ".mod", ".sh":
		default:
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
