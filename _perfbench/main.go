// Command perfbench is the repository's serving benchmark. It boots
// real deployments in-process through their public constructors,
// drives /v1/query and /v1/update over loopback HTTP with two
// closed-loop clients, checks every read against an independent
// shortest-path oracle, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced replay adds the per-layer breakdown. See README.md for the
// workloads and the metric → layer → workload map. Run it through
// run.sh, which builds it first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: grid-hot, grid-cold, grid-mixed or cluster-hot")
	seed := fs.Int64("seed", 1, "seed of the query and write streams")
	seconds := fs.Int("seconds", 18, "length of the timed window (and of the traced replay) in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		fs.Usage()
		return 2
	}
	cfg := config{
		wl: wl, shape: fullShape, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1, setups: 3,
		spansPath: filepath.Join(os.TempDir(), fmt.Sprintf("perfbench-spans-%s-%d.jsonl", wl.name, *seed)),
	}
	if cfg.trace {
		cfg.setups = 1
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// printReport writes one "name value unit" line per metric, then the
// JSON result as the last line.
func printReport(w io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, m := range append(rep.metrics, rep.samples...) {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
