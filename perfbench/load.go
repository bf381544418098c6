package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// op is one measured operation. Times are offsets from the start of its
// loop.
type op struct {
	due  time.Duration // when it was due (closed loop: when it was sent)
	done time.Duration // when its response ended
	rtt  time.Duration // send to response end
	ok   bool
	// epoch is the snapshot epoch a read was served from (mixed-durable
	// only); version the write clock a write was acknowledged at.
	epoch   uint64
	version uint64
}

// latency is the time from due to response, or requestTimeout for a
// failed operation, so that failures count as beyond any limit.
func (o op) latency() time.Duration {
	if !o.ok {
		return requestTimeout
	}
	return o.done - o.due
}

// outcome is what one request reports back to its loop.
type outcome struct {
	ok      bool
	epoch   uint64
	version uint64
}

// schedule returns the due offsets of a fixed-rate arrival process over
// the window.
func schedule(rate float64, window time.Duration) []time.Duration {
	n := int(rate * window.Seconds())
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) * float64(time.Second) / rate)
	}
	return dues
}

// openLoop issues request i at start+dues[i], whether or not earlier
// ones have completed, from workers goroutines that each own one
// connection. Requests that find every worker busy wait in a queue, and
// that wait is part of their latency. It returns the operations and how
// late the dispatcher handed each one out.
func openLoop(start time.Time, dues []time.Duration, workers int, do func(i int) outcome) ([]op, []time.Duration) {
	ops := make([]op, len(dues))
	late := make([]time.Duration, len(dues))
	// Sized to the number of sends, so the dispatcher never blocks and
	// its lateness measures only its own scheduling.
	ch := make(chan int, len(dues))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				sent := time.Since(start)
				r := do(i)
				end := time.Since(start)
				ops[i] = op{due: dues[i], done: end, rtt: end - sent, ok: r.ok, epoch: r.epoch, version: r.version}
			}
		}()
	}
	for i, d := range dues {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(start) - d
		ch <- i
	}
	close(ch)
	wg.Wait()
	return ops, late
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, until the window ends. do gets the client
// and its request count.
func closedLoop(start time.Time, window time.Duration, clients int, do func(client, k int) outcome) []op {
	per := make([][]op, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < window; k++ {
				sent := time.Since(start)
				r := do(c, k)
				end := time.Since(start)
				per[c] = append(per[c], op{due: sent, done: end, rtt: end - sent, ok: r.ok})
			}
		}(c)
	}
	wg.Wait()
	var ops []op
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func latencies(ops []op) []time.Duration {
	ls := make([]time.Duration, len(ops))
	for i, o := range ops {
		ls[i] = o.latency()
	}
	slices.Sort(ls)
	return ls
}

func sortedDurations(ds []time.Duration) []time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s
}

// tailQuantile is the highest of p99, p97.5, p95 and p90 with at least
// ten of n samples beyond it, and its label.
func tailQuantile(n int) (float64, string) {
	for _, t := range []struct {
		q     float64
		label string
	}{{0.99, "p99"}, {0.975, "p97.5"}, {0.95, "p95"}} {
		if float64(n)*(1-t.q) >= 10 {
			return t.q, t.label
		}
	}
	return 0.90, "p90"
}

func failures(ops []op) int {
	n := 0
	for _, o := range ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// completedPerSecond is the successful operations per second from the
// start of the loop to the last response.
func completedPerSecond(ops []op) float64 {
	var last time.Duration
	ok := 0
	for _, o := range ops {
		if o.ok {
			ok++
			last = max(last, o.done)
		}
	}
	if last == 0 {
		return 0
	}
	return float64(ok) / last.Seconds()
}

// visibility is, for each write acknowledged before cutoff, the time
// from its ack to the first read response served from an epoch whose
// version covers it. A write never seen counts as requestTimeout.
// versions maps epoch to version; reads from unmapped epochs are
// skipped.
func visibility(reads, writes []op, versions map[uint64]uint64, cutoff time.Duration) []time.Duration {
	rs := make([]op, 0, len(reads))
	for _, r := range reads {
		if _, known := versions[r.epoch]; r.ok && known {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].done < rs[j].done })
	var vis []time.Duration
	for _, w := range writes {
		if !w.ok || w.done > cutoff {
			continue
		}
		d := requestTimeout
		for i := sort.Search(len(rs), func(i int) bool { return rs[i].done >= w.done }); i < len(rs); i++ {
			if versions[rs[i].epoch] >= w.version {
				d = rs[i].done - w.done
				break
			}
		}
		vis = append(vis, d)
	}
	slices.Sort(vis)
	return vis
}
