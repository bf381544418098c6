// Command perfbench is the serving benchmark. It generates a workload
// from a seed, drives the cmd/gvserve binary of the checkout as a child
// process over loopback HTTP, checks every distinct query's answer, and
// prints the end-to-end metrics. With -trace 1 it also rebuilds the
// same layers in-process, replays the workload's requests with spans
// around each layer call, and prints the per-layer metrics instead.
//
// Build and run it from the repository root through run.sh, which
// builds gvserve and this command first:
//
//	bash perfbench/run.sh --workload read-open --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every line before it is a
// human-readable report, including the metrics that exist on only one
// workload, and the run record (host, toolchain, revision, seed, sizes,
// rates, WAL policy). Any answer mismatch exits non-zero before any
// metric is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	// gvserve is the binary to run; out the run directory for inputs,
	// logs and spans.
	gvserve string
	out     string
}

func main() {
	var o options
	var trace int
	var build string
	flag.StringVar(&o.workload, "workload", "", "workload: read-open, answers-closed or mixed-durable")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the graph, queries and writes")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from an in-process traced replay")
	flag.BoolVar(&o.smoke, "smoke", false, "seconds-long run: a tenth of the graph, a small query pool, one restart")
	flag.StringVar(&build, "build", ".bench_build", "build directory holding the gvserve binary; runs go under <build>/run/<workload>")
	flag.Parse()
	o.trace = trace == 1
	o.gvserve = filepath.Join(build, "gvserve")
	o.out = filepath.Join(build, "run", o.workload)

	// A signal stops the children before the benchmark exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()
	rep, err := run(o)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Why names the end-to-end metric and workload a per-layer value
	// should move.
	Why string
}

// endToEnd and perLayer are the metrics of the result line, the same
// on every workload and in the order of BENCHMARK.json.
var (
	endToEnd = []string{"setup_s", "query_p50_ms", "query_per_s", "rss_peak_mb"}
	perLayer = []string{
		"serve.handler_us.p50", "serve.handler_us.p99", "serve.self_us.p50", "serve.net_us.p50",
		"serve.resp_bytes.mean", "pattern.parse_us.p50", "core.contain_us.p50",
		"core.matchjoin_us.p50", "core.matchjoin_us.p99", "core.answer_us.p50",
		"core.initial_pairs", "core.pair_kills", "core.edge_scans", "core.answer_pairs",
		"core.kill_ratio", "view.materialize_ms", "trace.overhead_us",
	}
)

// report is one run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	e2e       []metric
	layers    []metric
	record    map[string]any
}

func (r *report) add(m metric) { r.e2e = append(r.e2e, m) }

func (r *report) addLayer(name string, v float64, unit, why string) {
	r.layers = append(r.layers, metric{name, v, unit, why})
}

// write prints the human-readable report, the run record and, last, the
// result line.
func (r *report) write(w io.Writer, trace bool) error {
	fmt.Fprintf(w, "perfbench %s: %d attempted, %d failed\n", r.workload, r.attempted, r.failed)
	fmt.Fprintln(w, "end-to-end (tracing off):")
	for _, m := range r.e2e {
		fmt.Fprintf(w, "  %-22s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if trace {
		fmt.Fprintln(w, "per-layer (traced replay and /metrics deltas):")
		for _, m := range r.layers {
			fmt.Fprintf(w, "  %-32s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Why)
		}
	}
	rec, err := json.Marshal(r.record)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", rec)

	names, from := endToEnd, r.e2e
	if trace {
		names, from = perLayer, r.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, name := range names {
		m, ok := findMetric(from, name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func findMetric(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
