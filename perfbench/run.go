package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	gv "graphviews"
)

// Fixed run parameters. Smoke runs use the second value.
const (
	setupRuns      = 5 // spawns per run; setup_s is their median
	smokeSetupRuns = 2
	// maxLateP99 is how late the open-loop dispatcher may run at p99
	// before the run counts as failed: beyond it the offered load was
	// not the stated one.
	maxLateP99 = 50 * time.Millisecond
	readyLimit = 120 * time.Second
)

// run performs one benchmark run and returns its report. Any error,
// a failed correctness check included, means no metrics.
func run(o options) (*report, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	if _, err := os.Stat(o.gvserve); err != nil {
		return nil, fmt.Errorf("gvserve binary: %w", err)
	}
	warmup := time.Second
	setups := setupRuns
	if o.smoke {
		w = w.smoke()
		warmup = 200 * time.Millisecond
		setups = smokeSetupRuns
	}
	window := time.Duration(o.seconds) * time.Second
	if err := os.RemoveAll(o.out); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}

	in, err := generate(w, o.seed, window.Seconds(), o.out)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w.Name, record: runRecord(o, w)}
	rep.record["distinct_queries"] = len(in.bodies)
	r := &runner{o: o, w: w, in: in, rep: rep}

	// Set-up: spawn gvserve several times, each from the same files (and
	// a fresh data directory when durable); the last one serves the run.
	var setupTimes []time.Duration
	for i := 0; i < setups; i++ {
		if w.Durable {
			if err := os.RemoveAll(r.dataDir()); err != nil {
				return nil, err
			}
		}
		srv, err := spawn(o.gvserve, r.logPath(), r.serverArgs(w.PublishEvery))
		if err != nil {
			return nil, err
		}
		d, err := srv.waitReady(srv.started, readyLimit)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d)
		if i < setups-1 {
			srv.stop()
		} else {
			r.srv = srv
		}
	}
	rep.add(metric{Name: "setup_s", Value: median(setupTimes).Seconds(), Unit: "s"})

	gateClient := newClient(r.srv.base, runtime.NumCPU())
	defer gateClient.close()
	if err := gate(gateClient, in, gv.Freeze(in.g)); err != nil {
		return nil, fmt.Errorf("correctness gate before the window: %w", err)
	}

	// Warm-up reads, then the measured window between two scrapes.
	if _, err := r.window(warmup, true); err != nil {
		return nil, err
	}
	before, err := gateClient.scrape()
	if err != nil {
		return nil, err
	}
	res, err := r.window(window, false)
	if err != nil {
		return nil, err
	}
	after, err := gateClient.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := r.srv.rssPeakMiB()
	if err != nil {
		return nil, err
	}
	r.endToEnd(res, rss)
	counters := delta(before, after)

	if w.Durable {
		if err := r.afterWindow(gateClient, res); err != nil {
			return nil, err
		}
		r.srv.stop()
		if err := r.restarts(res); err != nil {
			return nil, err
		}
	} else {
		r.srv.stop()
	}

	if o.trace {
		if err := r.traced(res, counters); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return rep, nil
}

// runner carries one run's state between its phases.
type runner struct {
	o   options
	w   workload
	in  *inputs
	rep *report
	srv *server
}

func (r *runner) dataDir() string { return filepath.Join(r.o.out, "data") }
func (r *runner) logPath() string { return filepath.Join(r.o.out, "gvserve.log") }

// serverArgs are gvserve's flags: the generated files, plus the durable
// store and publish period for the durable workload. Everything else
// stays at gvserve's defaults, the access log included.
func (r *runner) serverArgs(publishEvery time.Duration) []string {
	args := []string{"-graph", r.in.graphPath, "-views", r.in.viewsPath}
	if r.w.Durable {
		args = append(args, "-data-dir", r.dataDir(), "-wal-sync", "always", "-publish-every", publishEvery.String())
	}
	return args
}

// windowResult is what the measured window produced.
type windowResult struct {
	reads    []op
	writes   []op
	late     []time.Duration
	versions map[uint64]uint64 // epoch → version, mixed-durable only
	acked    []batch           // acknowledged write batches in order
}

// window drives the workload for d. readsOnly is the warm-up.
func (r *runner) window(d time.Duration, readsOnly bool) (*windowResult, error) {
	w, in := r.w, r.in
	res := &windowResult{versions: map[uint64]uint64{}}
	path := "/query?strategy=minimal"
	if w.Pairs {
		path += "&pairs=1&limit=0"
	}

	if w.QueryRate == 0 {
		c := newClient(r.srv.base, w.Clients)
		defer c.close()
		res.reads = closedLoop(time.Now(), d, w.Clients, func(client, k int) outcome {
			seq := in.order[client]
			code, _, err := c.do(http.MethodPost, path, in.bodies[seq[k%len(seq)]], false)
			return outcome{ok: err == nil && code == http.StatusOK}
		})
		return res, nil
	}

	// Open loop. The durable workload gives reads and writes one
	// connection each, so a write stalled behind a publish holds no
	// read; read-open gives reads both.
	readConns := runtime.NumCPU()
	writes := w.WriteRate > 0 && !readsOnly
	if writes {
		readConns = 1
	}
	rc := newClient(r.srv.base, readConns)
	defer rc.close()
	dues := schedule(w.QueryRate, d)
	order := in.order[0]
	var mu sync.Mutex // guards res.versions
	readOne := func(i int) outcome {
		code, body, err := rc.do(http.MethodPost, path, in.bodies[order[i]], writes)
		out := outcome{ok: err == nil && code == http.StatusOK}
		if out.ok && writes {
			// Map each new epoch to its version with one /snapshot call.
			if e, ok := epochOf(body); ok {
				out.epoch = e
				mu.Lock()
				_, seen := res.versions[e]
				mu.Unlock()
				if !seen {
					if s, err := rc.snapshot(); err == nil {
						mu.Lock()
						res.versions[s.Epoch] = s.Version
						mu.Unlock()
					}
				}
			}
		}
		return out
	}

	start := time.Now()
	var wg sync.WaitGroup
	var wlate []time.Duration
	if writes {
		wc := newClient(r.srv.base, 1)
		defer wc.close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.writes, wlate = openLoop(start, schedule(w.WriteRate, d), 1, func(i int) outcome {
				v, err := wc.update(in.writes[i].body)
				return outcome{ok: err == nil, version: v}
			})
		}()
	}
	res.reads, res.late = openLoop(start, dues, readConns, readOne)
	wg.Wait()
	res.late = append(res.late, wlate...)
	for i, o := range res.writes {
		if o.ok {
			res.acked = append(res.acked, in.writes[i])
		}
	}
	if late := quantile(sortedDurations(res.late), 0.99); late > maxLateP99 {
		return nil, fmt.Errorf("open-loop generator fell behind: dispatch lateness p99 %s > %s", late, maxLateP99)
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics of the window.
func (r *runner) endToEnd(res *windowResult, rss float64) {
	rep := r.rep
	lat := latencies(res.reads)
	rep.add(metric{Name: "query_p50_ms", Value: ms(quantile(lat, 0.50)), Unit: "ms"})
	rep.add(metric{Name: "query_p99_ms", Value: ms(quantile(lat, 0.99)), Unit: "ms"})
	rep.add(metric{Name: "query_per_s", Value: completedPerSecond(res.reads), Unit: "1/s"})
	rep.add(metric{Name: "rss_peak_mb", Value: rss, Unit: "MiB"})
	rep.attempted = len(res.reads) + len(res.writes)
	rep.failed = failures(res.reads) + failures(res.writes)
	rep.add(metric{Name: "error_frac", Value: float64(rep.failed) / float64(rep.attempted), Unit: "ratio"})
	rep.record["queries"] = len(res.reads)
	rtt := make([]time.Duration, len(res.reads))
	for i, o := range res.reads {
		rtt[i] = o.rtt
	}
	rep.record["query_rtt_p50_ms"] = ms(median(rtt))
	bySecond := map[int][]time.Duration{}
	for _, o := range res.reads {
		bySecond[int(o.due/time.Second)] = append(bySecond[int(o.due/time.Second)], o.latency())
	}
	var p50s []float64
	for s := 0; s < len(bySecond); s++ {
		p50s = append(p50s, ms(median(bySecond[s])))
	}
	rep.record["query_p50_ms_by_second"] = p50s
	rep.record["queries_beyond_p99"] = len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	if len(res.late) > 0 {
		rep.record["gen_late_p50_ms"] = ms(median(res.late))
		rep.add(metric{Name: "gen.late_ms.p99", Value: ms(quantile(sortedDurations(res.late), 0.99)), Unit: "ms"})
	}
	if len(res.writes) > 0 {
		wl := latencies(res.writes)
		q, label := tailQuantile(len(wl))
		rep.add(metric{Name: "write_p50_ms", Value: ms(quantile(wl, 0.50)), Unit: "ms"})
		rep.add(metric{Name: "write_" + label + "_ms", Value: ms(quantile(wl, q)), Unit: "ms"})
		// Writes acked in the last second may not be published before
		// the window closes; they are left out rather than counted as
		// never visible.
		cutoff := time.Duration(r.o.seconds)*time.Second - time.Second
		if vis := visibility(res.reads, res.writes, res.versions, cutoff); len(vis) > 0 {
			rep.add(metric{Name: "visible_p50_ms", Value: ms(quantile(vis, 0.50)), Unit: "ms"})
			rep.record["visible_samples"] = len(vis)
		}
		rep.record["writes"] = len(res.writes)
	}
}

// afterWindow forces a publish on the durable workload and repeats the
// correctness gate against the benchmark's graph with every acknowledged
// write applied.
func (r *runner) afterWindow(c *client, res *windowResult) error {
	snap, err := c.publish()
	if err != nil {
		return err
	}
	var last uint64
	for _, o := range res.writes {
		if o.ok {
			last = max(last, o.version)
		}
	}
	if snap.Version != last || snap.Pending != 0 {
		return fmt.Errorf("after the window: published version %d (pending %d), last acknowledged %d", snap.Version, snap.Pending, last)
	}
	want := applyBatches(r.in.g, res.acked)
	if snap.Edges != want.NumEdges() {
		return fmt.Errorf("after the window: server has %d edges, acknowledged writes give %d", snap.Edges, want.NumEdges())
	}
	if err := gate(c, r.in, gv.Freeze(want)); err != nil {
		return fmt.Errorf("correctness gate after the window: %w", err)
	}
	return nil
}

// restarts runs the restart phase: gvserve relaunched on the data
// directory without timer publishing, a fixed tail of acknowledged
// batches that no checkpoint reflects, kill -9, and a relaunch. A
// restart is timed from kill -9 until /healthz answers 200 and the live
// snapshot holds the recovered tail: gvserve clears its recovering flag
// before it publishes the recovered state, so /healthz alone can answer
// 200 while queries still see the pre-restart epoch. Those early
// answers are counted. It repeats per tail and checks the recovered
// state each time.
func (r *runner) restarts(res *windowResult) error {
	acked := slices.Clone(res.acked)
	srv, err := spawn(r.o.gvserve, r.logPath(), r.serverArgs(0))
	if err != nil {
		return err
	}
	if _, err := srv.waitReady(srv.started, readyLimit); err != nil {
		return err
	}
	var times []time.Duration
	var resumed []bool
	readyEarly := 0
	for cycle, tail := range r.in.tails {
		c := newClient(srv.base, 1)
		base, err := c.snapshot()
		if err != nil {
			return err
		}
		if base.Pending != 0 {
			return fmt.Errorf("restart %d: %d updates pending before the tail", cycle, base.Pending)
		}
		var last uint64
		for _, b := range tail {
			v, err := c.update(b.body)
			if err != nil {
				return fmt.Errorf("restart %d: tail write: %w", cycle, err)
			}
			last = v
			acked = append(acked, b)
		}
		c.close()
		killed := time.Now()
		srv.kill()
		if srv, err = spawn(r.o.gvserve, r.logPath(), r.serverArgs(0)); err != nil {
			return err
		}
		if _, err := srv.waitReady(killed, readyLimit); err != nil {
			return err
		}
		// gvserve restarts its write clock at zero on boot, so the
		// recovered version counts the replayed tail: the acknowledged
		// version minus the version the tail started from.
		want := last - base.Version
		c = newClient(srv.base, 1)
		got, early, err := waitRecovered(c, want)
		c.close()
		if err != nil {
			return fmt.Errorf("restart %d: %w (acknowledged %d from %d)", cycle, err, last, base.Version)
		}
		times = append(times, time.Since(killed))
		if early {
			readyEarly++
		}
		resumed = append(resumed, got.Version == last)
		if want := applyBatches(r.in.g, acked).NumEdges(); got.Edges != want {
			return fmt.Errorf("restart %d: recovered %d edges, acknowledged writes give %d", cycle, got.Edges, want)
		}
	}
	c := newClient(srv.base, runtime.NumCPU())
	defer c.close()
	if err := gate(c, r.in, gv.Freeze(applyBatches(r.in.g, acked))); err != nil {
		return fmt.Errorf("correctness gate after restart: %w", err)
	}
	srv.stop()
	r.rep.add(metric{Name: "restart_s", Value: median(times).Seconds(), Unit: "s"})
	r.rep.add(metric{Name: "restart.ready_before_recovered", Value: float64(readyEarly), Unit: "count"})
	r.rep.record["restart_tail_batches"] = r.w.TailBatches
	r.rep.record["write_clock_resumed_after_restart"] = resumed
	return nil
}

// waitRecovered polls /snapshot until the live snapshot holds the
// recovered tail: no pending updates and the wanted version. early
// reports that /healthz had already answered 200 while the snapshot
// still lacked the tail.
func waitRecovered(c *client, want uint64) (snap snapshotInfo, early bool, err error) {
	deadline := time.Now().Add(readyLimit)
	for time.Now().Before(deadline) {
		if snap, err = c.snapshot(); err != nil {
			return snap, early, err
		}
		if snap.Pending == 0 && snap.Version == want {
			return snap, early, nil
		}
		if snap.Version > want {
			break
		}
		early = true
		time.Sleep(time.Millisecond)
	}
	return snap, early, fmt.Errorf("recovered version %d (pending %d), want %d", snap.Version, snap.Pending, want)
}

// runRecord describes the run so that runs made later on one host can
// be paired.
func runRecord(o options, w workload) map[string]any {
	rec := map[string]any{
		"workload":      w.Name,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"smoke":         o.smoke,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"revision":      revision(),
		"nodes":         w.Nodes,
		"edges":         w.Edges,
		"query_rate":    w.QueryRate,
		"clients":       w.Clients,
		"pairs":         w.Pairs,
		"write_rate":    w.WriteRate,
		"write_batch":   w.Batch,
		"wal_sync":      "",
		"publish_every": "",
	}
	if w.Durable {
		rec["wal_sync"] = "always"
		rec["publish_every"] = w.PublishEvery.String()
	}
	return rec
}

// revision is the git revision of the working directory, the checkout
// run.sh runs from, or "" outside a git work tree.
func revision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// delta is after − before for every counter present in both scrapes.
func delta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		if b, ok := before[k]; ok {
			d[k] = v - b
		}
	}
	return d
}

func median(ds []time.Duration) time.Duration { return quantile(sortedDurations(ds), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
