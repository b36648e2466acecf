package main

// workload is one traffic mix. Rates are fixed here, not derived from
// the machine, so two commits are always measured at the same load.
type workload struct {
	Name  string
	Model string // the served demo model: "mlp" or "cnn"
	// HTTP sends every request through serve's HTTP handler over two
	// keep-alive connections; otherwise requests call
	// Server.ClassifyBudget in-process.
	HTTP bool
	// Hints are budget hints drawn uniformly per request; nil sends
	// none, so requests run at the top rung.
	Hints []int
	// LightRPS and BusyRPS are the two open-loop rates.
	LightRPS, BusyRPS float64
	// LadderLo and LadderHi bound the max-rate ladder.
	LadderLo, LadderHi float64
	Why                string
}

// workloads are the benchmark's traffic mixes.
var workloads = []workload{
	{
		Name: "mlp-http", Model: "mlp", HTTP: true,
		LightRPS: 200, BusyRPS: 300, LadderLo: 200, LadderHi: 1600,
		Why: "MLP over serve/http with 2 keep-alive connections: batches stay at 1-2 images, so MaxDelay, JSON and net/http dominate and compute is under 1%",
	},
	{
		Name: "mlp-open-mixed", Model: "mlp", Hints: []int{4, 8, 12},
		LightRPS: 250, BusyRPS: 500, LadderLo: 1000, LadderHi: 80000,
		Why: "in-process MLP with budget hints 4/8/12: admission and budget-homogeneous batching (carry/park) do the work; compute is about 1 us per image",
	},
	{
		Name: "cnn-open", Model: "cnn",
		LightRPS: 250, BusyRPS: 500, LadderLo: 500, LadderHi: 20000,
		Why: "in-process CNN at the top rung: gemm8 convolutions dominate, so kernel and lane changes show here and scheduler changes should not",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
