package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// buildGvserve builds the repository's gvserve into a temporary
// directory.
func buildGvserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gvserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gvserve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build gvserve: %v\n%s", err, out)
	}
	return bin
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// resultLine parses the last line a report writes.
func resultLine(t *testing.T, rep *report, trace bool) map[string]struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
} {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.write(&buf, trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result line: correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	return res.Metrics
}

// TestSmoke runs every workload in smoke mode through the same path as
// a full run: generation, gvserve children (with kill -9 and relaunch on
// mixed-durable), the correctness gates, the /metrics scrape and the
// traced replay. Each result line must carry exactly BENCHMARK.json's
// metrics with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts gvserve processes")
	}
	bin := buildGvserve(t)
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if want := strings.Split(workloadNames(), ", "); !slices.Equal(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark has %v", names, want)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			defer stopAll()
			out := t.TempDir()
			rep, err := run(options{workload: w.Name, seed: 7, seconds: 2, trace: true, smoke: true, gvserve: bin, out: out})
			if err != nil {
				t.Fatal(err)
			}
			for trace, want := range map[bool][]struct{ Name, Unit string }{false: unitsOf(bf.EndToEnd), true: unitsOf(bf.PerLayer)} {
				got := resultLine(t, rep, trace)
				if len(got) != len(want) {
					t.Errorf("trace %v: %d metrics, BENCHMARK.json lists %d", trace, len(got), len(want))
				}
				for _, m := range want {
					if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("trace %v: metric %s = %+v, want unit %s", trace, m.Name, g, m.Unit)
					}
				}
			}
			if spans, err := os.ReadFile(filepath.Join(out, "spans.jsonl")); err != nil || len(spans) == 0 {
				t.Errorf("spans.jsonl: %v, %d bytes", err, len(spans))
			}
			if w.Durable {
				for _, name := range []string{"write_p50_ms", "visible_p50_ms", "restart_s", "serve.recover_ms", "store.checkpoint_ms.p50"} {
					_, e2e := findMetric(rep.e2e, name)
					_, layer := findMetric(rep.layers, name)
					if !e2e && !layer {
						t.Errorf("durable run lacks %s", name)
					}
				}
			}
		})
	}
}

func unitsOf(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}

// TestRunOutsideRepository checks that run.sh fails, printing no
// result, in a directory holding only the benchmark's own files.
func TestRunOutsideRepository(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"run.sh", "go.mod", "main.go"} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "perfbench", f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "read-open", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("run.sh succeeded outside a repository")
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Fatalf("run.sh printed a result outside a repository: %s", out)
	}
}

// TestSameAnswer checks that the gate's comparison notices a changed
// match set, a missing pair and a changed match flag.
func TestSameAnswer(t *testing.T) {
	a := &answer{Matched: true, Size: 3, Edges: []edgeSet{
		{From: "u0", To: "u1", Pairs: [][2]int64{{1, 2}, {3, 4}}},
		{From: "u1", To: "u2", Pairs: [][2]int64{{2, 5}}},
	}}
	reordered := &answer{Matched: true, Size: 3, Edges: []edgeSet{
		{From: "u1", To: "u2", Pairs: [][2]int64{{2, 5}}},
		{From: "u0", To: "u1", Pairs: [][2]int64{{3, 4}, {1, 2}}},
	}}
	if d := sameAnswer(a, reordered); d != "" {
		t.Errorf("equal answers differ: %s", d)
	}
	changed := &answer{Matched: true, Size: 3, Edges: []edgeSet{
		{From: "u0", To: "u1", Pairs: [][2]int64{{1, 2}, {3, 5}}},
		{From: "u1", To: "u2", Pairs: [][2]int64{{2, 5}}},
	}}
	missing := &answer{Matched: true, Size: 2, Edges: a.Edges[:1]}
	unmatched := &answer{Matched: false}
	for _, b := range []*answer{changed, missing, unmatched} {
		if sameAnswer(a, b) == "" {
			t.Errorf("answers %+v and %+v compare equal", a, b)
		}
	}
}

// TestVisibility checks the ack-to-visible computation on a hand-built
// timeline.
func TestVisibility(t *testing.T) {
	ms := time.Millisecond
	reads := []op{
		{done: 5 * ms, ok: true, epoch: 1},
		{done: 20 * ms, ok: true, epoch: 1},
		{done: 40 * ms, ok: true, epoch: 2},
		{done: 60 * ms, ok: true, epoch: 3},
	}
	writes := []op{
		{done: 10 * ms, ok: true, version: 4}, // epoch 2 covers it at 40ms
		{done: 30 * ms, ok: true, version: 6}, // only epoch 3 covers it, at 60ms
		{done: 50 * ms, ok: true, version: 9}, // never seen
		{done: 90 * ms, ok: true, version: 9}, // after the cutoff
	}
	versions := map[uint64]uint64{1: 2, 2: 5, 3: 8}
	got := visibility(reads, writes, versions, 80*ms)
	want := []time.Duration{30 * ms, 30 * ms, requestTimeout}
	if !slices.Equal(got, want) {
		t.Fatalf("visibility = %v, want %v", got, want)
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]string{2000: "p99", 1000: "p99", 400: "p97.5", 200: "p95", 50: "p90"} {
		if _, label := tailQuantile(n); label != want {
			t.Errorf("tailQuantile(%d) = %s, want %s", n, label, want)
		}
	}
}
