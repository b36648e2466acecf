// Command perfbench is the repository's end-to-end benchmark. It runs
// the shipped runtime in-process — a .trq artifact decoded by
// artifact.DecodeModel, compiled by demoplan.FamilyFromModel into the
// budget ladder 4,8,12, and served by serve.Server configured as trserve
// ships it — under seeded workloads, checks every answer against a
// reference computed before timing, and prints one JSON result line.
//
// Usage, from the root of a checkout (perfbench/run.sh builds and runs
// it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs the same phases against its own model, hint mix
// and transport, so every metric is defined on every workload:
//
//   - set-up: several cold set-ups, each with a fresh autotune cache;
//   - closed: 2 closed-loop clients (one per core of the reference box);
//   - light, busy: seeded Poisson open loops at the workload's two rates.
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the same phases run with spans recorded around every call into the
// program, followed by a short HTTP probe, the max-rate ladder (the
// highest rate on a 5%-step geometric ladder at which 99% of requests
// are answered OK within 25 ms and the backlog does not grow), an
// offline phase (batches of 64 through Plan.InferBatchContext at the top
// rung, for both demo models) and per-layer probes; the result holds the
// per-layer metrics, and the spans are written to
// .bench_build/trace/<workload>.jsonl. Tail latency, the max rate and
// offline throughput are per-layer metrics because on a shared 2-vCPU VM
// host stalls and per-process tile picks move them more than any bound
// a regression gate could use.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see workloads in workloads.go)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs: images, arrival schedules, budget hints")
		seconds  = flag.Float64("seconds", 10, "measured time of one run, shared among the phases")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	spec, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(spec, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
