package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Every workload named in BENCHMARK.json, run briefly, prints exactly
// the metrics the file names, each with its unit: the end-to-end ones
// untraced and the per-layer ones traced.
func TestEveryBenchmarkMetricIsPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	seconds := 3.0
	if testing.Short() {
		seconds = 1
	}
	for _, w := range bf.Workloads {
		spec, ok := workloadByName(w.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			var out bytes.Buffer
			res, err := run(spec, 1, seconds, traced, &out)
			if err == nil {
				err = printResult(&out, res)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var printed result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if !printed.Correct || printed.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w.Name, traced, printed.Correct, printed.Attempted)
			}
			for _, m := range want {
				got, ok := printed.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(printed.Metrics), len(want))
			}
		}
	}
}
