// Command perfbench is the repository's wall-clock benchmark. It runs
// one workload against the real program — frames in and out through
// its own io.Backend implementations bound with io.NewDevice, control
// operations through the mgmt HTTP/JSON handler or the scheduler's
// handler interface — checks every output against its own reference
// computations, and prints one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// runOpts are one run's settings.
type runOpts struct {
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	maxSpans int
}

// workloads maps names to runners.
var workloads = map[string]func(runOpts) (*tally, *metricSet, error){
	"ipr8-scalar":    func(o runOpts) (*tally, *metricSet, error) { return runRouter(&ipr8Spec, o) },
	"fw5k-flowcache": func(o runOpts) (*tally, *metricSet, error) { return runRouter(&fw5kSpec, o) },
	"serve-churn":    func(o runOpts) (*tally, *metricSet, error) { return runChurn(&churnSpec, o) },
}

func main() {
	workload := flag.String("workload", "", "workload: ipr8-scalar, fw5k-flowcache or serve-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run, print per-layer metrics")
	out := flag.String("out", "perfbench/out", "directory for the result and span files (empty: none)")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out, maxSpans: 50000}
	t, ms, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if missing := ms.missing(o.trace); len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: metrics not measured: %v\n", *workload, missing)
		os.Exit(1)
	}
	res := result{
		Correct:   len(t.broken) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   ms.endToEnd,
	}
	if o.trace {
		res.Metrics = ms.perLayer
	}
	for _, r := range t.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", r)
	}
	for _, r := range t.broken {
		fmt.Fprintf(os.Stderr, "perfbench: invariant: %s\n", r)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	// The result file keeps both metric sets: a traced run's end-to-end
	// figures against an untraced run's give the tracing overhead.
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	doc := struct {
		result
		EndToEnd map[string]metric `json:"end_to_end"`
		PerLayer map[string]metric `json:"per_layer"`
		Reasons  []string          `json:"failures,omitempty"`
	}{res, ms.endToEnd, ms.perLayer, append(t.reasons, t.broken...)}
	if err := writeJSON(o.outDir, fmt.Sprintf("result-%s-%d-%s.json", *workload, *seed, mode), doc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
