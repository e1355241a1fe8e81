package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// shared is one server for the whole package: opening the survey dominates
// every test's cost. Measurements want a fresh server each; tests only need
// a correct one, and read counters as deltas.
var shared struct {
	in  *instance
	cat *catalog
}

func TestMain(m *testing.M) {
	in, err := start(false)
	if err == nil {
		shared.in = in
		shared.cat, err = readCatalog(in.sky)
	}
	if err != nil {
		println("bench tests: cannot start a server:", err.Error())
		os.Exit(1)
	}
	code := m.Run()
	in.stop()
	os.Exit(code)
}

func head(t *testing.T, name string, seed int64, client, clients, n int) []string {
	t.Helper()
	w, err := newWorkload(name, seed, shared.in, shared.cat)
	if err != nil {
		t.Fatal(err)
	}
	next := w.streamFor(client, clients)
	urls := make([]string, n)
	for i := range urls {
		urls[i] = next().url
	}
	return urls
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range workloadNames {
		a := head(t, name, 7, 1, 2, 300)
		b := head(t, name, 7, 1, 2, 300)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between two builds with one seed:\n%s\n%s", name, i, a[i], b[i])
			}
		}
		c := head(t, name, 8, 1, 2, 300)
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", name)
		}
	}
}

func TestLookupNeverRepeats(t *testing.T) {
	seen := map[string]bool{}
	const clients, each = 4, 30000
	for c := 0; c < clients; c++ {
		for _, u := range head(t, "sql.lookup", defaultSeed, c, clients, each) {
			if seen[u] {
				t.Fatalf("request repeats: %s", u)
			}
			seen[u] = true
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms}, // overlaps a by 10 ms
		{Name: "a.child", Parent: 1, Start: 15 * ms, End: 20 * ms},
		{Name: "late", Parent: 0, Start: 90 * ms, End: 120 * ms}, // clipped to the parent
	}
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 5 * ms, 30 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestSummarizeWholeCycles(t *testing.T) {
	ms := time.Millisecond
	// One client, cycles of two requests, 10 ms each, back to back. The
	// window [15 ms, 75 ms] holds cycles 1 and 2 whole (20-60 ms).
	var cs []sample
	for i := 0; i < 8; i++ {
		cs = append(cs, sample{start: time.Duration(i) * 10 * ms, end: time.Duration(i+1) * 10 * ms, bytes: 1})
	}
	cs[5].err = os.ErrInvalid
	s := summarize([][]sample{cs}, 2, 15*ms, 75*ms)
	if s.attempted != 4 || s.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 4 and 1", s.attempted, s.failed)
	}
	if want := 3 / 0.040; math.Abs(s.throughput-want) > 1e-6 {
		t.Errorf("throughput %v, want %v", s.throughput, want)
	}
	if s.p50 != 10 || s.p95 != 60 {
		t.Errorf("p50 %v p95 %v, want 10 and the 60 ms window for the failure", s.p50, s.p95)
	}
}

func TestCompareRefusesDifferentConditions(t *testing.T) {
	a := &report{Env: environment(1, 12)}
	b := &report{Env: environment(2, 12)}
	err := compareReports(a, b, false)
	if err == nil || !strings.Contains(err.Error(), "REFUSING") {
		t.Fatalf("comparing seeds 1 and 2: %v", err)
	}
	b.Env.Seed, b.Env.Commit = 1, "another"
	if err := compareReports(a, b, true); err != nil {
		t.Fatalf("same conditions, another commit: %v", err)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, code has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q %q, code has %q %q", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		g := endToEnd[i]
		if m.Name != g.name || m.Unit != g.unit || m.Better != g.better || m.Bound != g.bound {
			t.Errorf("end_to_end %d: %+v, code has %+v", i, m, g)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %+v, code has %+v", i, m, perLayer[i])
		}
	}
}

// TestSmoke measures every workload for one second and checks that each
// reaches the layer it exists to load: the counters, not the timings.
func TestSmoke(t *testing.T) {
	window := time.Second
	if raceEnabled {
		window = 10 * time.Second // one sql.scan pass alone takes seconds
	}
	info := map[string]map[string]metric{}
	for _, name := range workloadNames {
		res, err := measure(shared.in, shared.cat, name, defaultSeed, window, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %s", name, res.Failed, res.Attempted, res.FirstError)
		}
		for _, g := range endToEnd[1:] {
			if v := res.Metrics[g.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v", name, g.name, v)
			}
		}
		if v := res.Info["sched.rejected"].Value; v != 0 {
			t.Errorf("%s: %v requests rejected by admission", name, v)
		}
		info[name] = res.Info
	}
	get := func(w, m string) float64 { return info[w][m].Value }
	if v := get("web.mix", "resultcache.hit_ratio"); v < 0.8 {
		t.Errorf("web.mix result-cache hit ratio %v, want ≥ 0.8", v)
	}
	if v := get("sql.lookup", "resultcache.hit_ratio"); v > 0.05 {
		t.Errorf("sql.lookup result-cache hit ratio %v, want ≤ 0.05", v)
	}
	if v := get("sql.lookup", "resultcache.fills"); v == 0 {
		t.Error("sql.lookup filled nothing: its requests are not cacheable")
	}
	scan, lookup := get("sql.scan", "storage.pages_per_req"), get("sql.lookup", "storage.pages_per_req")
	if scan < 1000 || lookup > scan/100 {
		t.Errorf("pages per request: sql.scan %v (want ≥ 1000), sql.lookup %v (want under 1%% of that)", scan, lookup)
	}
	for _, name := range workloadNames {
		v := get(name, "resultcache.invalidations")
		if (name == "sql.churn") != (v > 0) {
			t.Errorf("%s: %v result-cache invalidations", name, v)
		}
	}
	if v := get("sql.churn", "load.steps"); v == 0 {
		t.Error("sql.churn: the writer never ran a load step")
	}
}

// TestTraceSmoke runs the traced pass briefly and checks that every per-layer
// metric is reported and that the spans nest under their request.
func TestTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	res, err := traceWorkload("sql.lookup", defaultSeed, 2*time.Second, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("%d failed: %s", res.Failed, res.FirstError)
	}
	for _, pl := range perLayer {
		if _, ok := res.Metrics[pl.name]; !ok {
			t.Errorf("no %s", pl.name)
		}
	}
	for _, name := range []string{"http.transport_us", "sqlengine.exec_ms", "btree.seek_us", "htm.cover_us", "resultcache.probe_us", "setup.load_s"} {
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v on sql.lookup", name, v)
		}
	}
	raw, err := os.ReadFile(dir + "/trace-sql.lookup.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		Name           string
		Req, Parent    int
		StartNs, EndNs int64
		SelfNs         int64
	}
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	for i, sp := range spans {
		if sp.Parent >= 0 && (spans[sp.Parent].Req != sp.Req || sp.StartNs < spans[sp.Parent].StartNs || sp.EndNs > spans[sp.Parent].EndNs) {
			t.Fatalf("span %d (%s) does not lie inside its parent", i, sp.Name)
		}
		if sp.SelfNs < 0 || sp.SelfNs > sp.EndNs-sp.StartNs {
			t.Fatalf("span %d (%s): self %d of %d ns", i, sp.Name, sp.SelfNs, sp.EndNs-sp.StartNs)
		}
	}
}
