package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors the process's first set-up: setup_s is what an
// operator waits between launching the server and its first healthy reply.
// Later set-ups of the same process start their own clocks.
var processStart = time.Now()

const (
	// setups is how many times a run builds the server from nothing;
	// setup_s is their median and the last instance is the one measured.
	setups = 3
	// warmup is driven closed-loop before the measured window and
	// discarded: plan cache, page cache and connections reach steady state.
	warmup = 2 * time.Second
	// referenceCap bounds how many distinct requests get a stored reference
	// body; the rest are checked for status and shape.
	referenceCap = 500
)

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FirstError string            `json:"firstError,omitempty"`
	Metrics    map[string]metric `json:"metrics"` // gated (untraced) or per-layer (traced)
	Info       map[string]metric `json:"info"`    // printed, never gated
}

func clientCount() int { return min(runtime.NumCPU(), 4) }

// setUp builds the server `setups` times and returns the last instance with
// the median set-up time. The first instance also answers the paper's twenty
// queries against their planted truths before it is discarded, so the
// measured instance starts with cold caches.
func setUp() (*instance, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		if !processStart.IsZero() {
			t0, processStart = processStart, time.Time{}
		}
		in, err := start(false)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			if err := in.checkQueries(); err != nil {
				in.stop()
				return nil, 0, fmt.Errorf("correctness check: %w", err)
			}
		}
		if i == setups-1 {
			return in, median(times), nil
		}
		in.stop()
		runtime.GC()
	}
}

// referencesFor fetches the workload's expected bodies. A finite pool is
// fetched as the clients will fetch it. A never-repeating sequence has its
// first referenceCap requests fetched by POST instead, which the server
// executes without probing or filling the result cache — so the timed GETs
// still miss.
func referencesFor(in *instance, w *workload, clients int) (map[string]reference, error) {
	if w.pool != nil {
		return references(in, w.pool[:min(len(w.pool), referenceCap)], false)
	}
	var head []*request
	for c := 0; c < clients; c++ {
		next := w.streamFor(c, clients)
		for i := 0; i < referenceCap/clients; i++ {
			head = append(head, next())
		}
	}
	return references(in, head, true)
}

// measure runs one workload untraced against a fresh instance and returns
// its end-to-end metrics (setup_s is added by the caller).
func measure(in *instance, cat *catalog, name string, seed int64, seconds time.Duration, clients int) (*workloadResult, error) {
	w, err := newWorkload(name, seed, in, cat)
	if err != nil {
		return nil, err
	}
	refs, err := referencesFor(in, w, clients)
	if err != nil {
		return nil, err
	}

	writer, err := newChurnWriter(in, name)
	if err != nil {
		return nil, err
	}
	readers := clients
	if writer != nil {
		readers = max(1, clients-1)
	}
	writer.start(in)

	// Counters are read when the warm-up ends, from the side: the clients
	// keep going.
	from := min(warmup, seconds/2)
	var before counters
	var beforeErr error
	read := make(chan struct{})
	time.AfterFunc(from, func() {
		before, beforeErr = in.readCounters()
		close(read)
	})
	stop := make(chan struct{})
	time.AfterFunc(from+seconds, func() { close(stop) })
	samples := loop(in, w, refs, readers, stop, writer)
	<-read
	if err := writer.finish(); err != nil {
		return nil, err
	}
	if beforeErr != nil {
		return nil, beforeErr
	}
	after, err := in.readCounters()
	if err != nil {
		return nil, err
	}
	s := summarize(samples, w.cycle, from, from+seconds)
	if s.attempted == 0 {
		return nil, fmt.Errorf("%s: no whole cycle of %d requests completed in %s", name, w.cycle, seconds)
	}

	res := &workloadResult{
		Workload: name, Why: w.why,
		Attempted: s.attempted, Failed: s.failed,
		Metrics: map[string]metric{
			"throughput_rps": {s.throughput, "req/s"},
			"p50_ms":         {s.p50, "ms"},
			"p99_ms":         {s.p99, "ms"},
		},
		Info: map[string]metric{
			"p95_ms":       {s.p95, "ms"},
			"failed_share": {float64(s.failed) / float64(s.attempted), "ratio"},
			"samples":      {float64(s.attempted), "count"},
			"bytes_out":    {float64(s.bytesOut), "bytes"},
			"peak_rss_mb":  {peakRSSMB(), "MB"},
		},
	}
	if s.firstErr != nil {
		res.FirstError = s.firstErr.Error()
	}
	for k, v := range counterMetrics(before, after, s.attempted) {
		res.Info[k] = v
	}
	if writer != nil {
		res.Info["load.steps"] = metric{float64(len(writer.stepS)), "count"}
		// After the last undo the table is as it was: every pool request
		// must again produce its pre-run reference.
		var buf bytes.Buffer
		for _, r := range w.pool {
			resp, err := fetch(nil, in.base, r, &buf)
			if err == nil {
				err = verify(r, resp, refs, 0)
			}
			if err != nil {
				res.Failed++
				if res.FirstError == "" {
					res.FirstError = fmt.Sprintf("after last undo: %s: %v", r.url, err)
				}
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// counterMetrics turns the /api/v1/status/* deltas of a window into the
// per-layer counters, normalized per request where that is the useful form.
func counterMetrics(a, b counters, requests int) map[string]metric {
	ratio := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	rc0, rc1 := a.ResultCache, b.ResultCache
	pc0, pc1 := a.PlanCache, b.PlanCache
	m := map[string]metric{
		"resultcache.hit_ratio":         {ratio(rc1.Hits-rc0.Hits, rc1.Misses-rc0.Misses), "ratio"},
		"resultcache.fills":             {float64(rc1.Fills - rc0.Fills), "count"},
		"resultcache.invalidations":     {float64(rc1.Invalidations - rc0.Invalidations), "count"},
		"resultcache.evictions":         {float64(rc1.Evictions - rc0.Evictions), "count"},
		"sqlengine.plancache_hit_ratio": {ratio(pc1.Hits-pc0.Hits, pc1.Misses-pc0.Misses), "ratio"},
		"sched.rejected":                {float64(b.Sched.Admission.Rejected - a.Sched.Admission.Rejected), "count"},
		"sched.queue_wait_ms":           {0, "ms"},
		"storage.pages_per_req":         {float64(b.Sched.Admission.PagesScanned-a.Sched.Admission.PagesScanned) / float64(requests), "pages"},
		"storage.phys_reads":            {float64(b.physReads() - a.physReads()), "count"},
	}
	if n := b.admitted() - a.admitted(); n > 0 {
		m["sched.queue_wait_ms"] = metric{(b.queueWaitMs() - a.queueWaitMs()) / float64(n), "ms"}
	}
	return m
}

// peakRSSMB is the process's high-water resident set (Linux; 0 elsewhere).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// printResult writes one workload's metrics by name and unit.
func printResult(res *workloadResult) {
	fmt.Printf("%s  (%s)\n", res.Workload, res.Why)
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	if res.FirstError != "" {
		fmt.Printf("  first error: %s\n", res.FirstError)
	}
	for _, group := range []map[string]metric{res.Metrics, res.Info} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-32s %14.4f %s\n", k, group[k].Value, group[k].Unit)
		}
	}
}
