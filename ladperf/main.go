// Command ladperf is the repository's end-to-end benchmark. It drives
// serve.Server.Handler() in-process (no sockets) with requests it
// generates from --seed, checks every answer against independent
// computations, and prints each metric by name and unit with a JSON
// summary as its last line. See README.md.
//
//	go run . --workload batch-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd metrics come from untraced runs; every workload reports each
// (README.md maps them to each workload's operations).
var endToEnd = []metricDef{
	{"rate_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"restart_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from traced runs. A layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"serve.decode_us", "us"},
	{"serve.decode_allocs", "count"},
	{"serve.resolve_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.other_us", "us"},
	{"serve.correct_p50_ms", "ms"},
	{"serve.correct_p90_ms", "ms"},
	{"serve.first_check_ms", "ms"},
	{"core.score_ns_per_obs", "ns"},
	{"core.expcache_hit_ratio", "ratio"},
	{"core.expcache_bytes", "bytes"},
	{"core.trial_us", "us"},
	{"core.metric_score_ns", "ns"},
	{"core.snapshot_decode_us", "us"},
	{"core.restore_ms", "ms"},
	{"deploy.expectation_us", "us"},
	{"deploy.sample_us", "us"},
	{"deploy.new_ms", "ms"},
	{"localize.correct_us", "us"},
	{"localize.localize_us", "us"},
	{"sched.wait_s", "s"},
	{"sched.run_s", "s"},
	{"sched.batches", "count"},
	{"store.puts", "count"},
	{"store.put_ms", "ms"},
	{"store.put_bytes", "bytes"},
	{"store.get_ms", "ms"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(benchmain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchmain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ladperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(names, ", "))
		seed     = fs.Uint64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 10, "measuring time, s")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		storeDir = fs.String("store-dir", ".bench_build/ladperf-stores", "parent directory of the snapshot stores")
		traceOut = fs.String("trace-out", "", "span file of a traced run (default .bench_build/ladperf-trace-<workload>-<seed>.tsv)")
		smoke    = fs.Bool("smoke", false, "small inputs and trainings: every path in seconds, numbers not comparable")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "ladperf: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	area, err := openStoreArea(*storeDir)
	if err != nil {
		fmt.Fprintln(stderr, "ladperf:", err)
		return 1
	}
	defer area.close()
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	r := newRun(*workload, *seed, *seconds, *trace == 1, sz, area)
	fmt.Fprintf(stdout, "ladperf: workload %s, seed %d, %g s, trace %d, %d clients, stores on %s (%s)\n",
		*workload, *seed, *seconds, *trace, r.sz.clients, area.kind, area.root)
	if err := wl(r); err != nil {
		fmt.Fprintf(stderr, "ladperf: %s: %v\n", *workload, err)
		return 1
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()

	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, c := range r.checks {
		status := "ok"
		if c.err != nil {
			status = "FAIL: " + c.err.Error()
		}
		fmt.Fprintf(stdout, "check %s: %s\n", c.name, status)
	}
	res := resultJSON{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricJSON)}
	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layer
		out := *traceOut
		if out == "" {
			out = fmt.Sprintf(".bench_build/ladperf-trace-%s-%d.tsv", *workload, *seed)
		}
		if err := r.trace.write(out); err != nil {
			fmt.Fprintln(stderr, "ladperf: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(r.trace.spans), out)
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %s = %.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(stdout, "operations: attempted %d, failed %d\n", r.attempted, r.failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "ladperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
