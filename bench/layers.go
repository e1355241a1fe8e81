package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"skyserver/internal/htm"
	"skyserver/internal/sched"
	"skyserver/internal/sqlengine"
	"skyserver/internal/storage"
	"skyserver/internal/val"
	"skyserver/internal/web"
)

// perLayer names every metric of the traced run, in the order README.md's
// interaction table lists them. BENCHMARK.json repeats the names for the
// driver; bench_test.go keeps the two equal.
var perLayer = []struct{ name, unit string }{
	{"http.transport_us", "us"},
	{"web.handler_us", "us"},
	{"web.serialize_us_per_kb", "us/KB"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.fills", "count"},
	{"resultcache.invalidations", "count"},
	{"resultcache.evictions", "count"},
	{"resultcache.probe_us", "us"},
	{"sqlengine.normalize_us", "us"},
	{"sqlengine.plancache_hit_ratio", "ratio"},
	{"sqlengine.compile_us", "us"},
	{"sqlengine.exec_ms", "ms"},
	{"sqlengine.rows_scanned_per_row", "rows"},
	{"sched.admit_us", "us"},
	{"sched.queue_wait_ms", "ms"},
	{"sched.rejected", "count"},
	{"storage.scan_pages_per_s.dop1", "pages/s"},
	{"storage.scan_pages_per_s.dopn", "pages/s"},
	{"storage.pages_per_req", "pages"},
	{"storage.phys_reads", "count"},
	{"btree.seek_us", "us"},
	{"htm.cover_us", "us"},
	{"val.decode_ns_per_row", "ns/row"},
	{"load.step_rows_per_s", "rows/s"},
	{"load.undo_ms", "ms"},
	{"load.lateness_ms", "ms"},
	{"setup.load_s", "s"},
	{"setup.neighbors_s", "s"},
	{"trace.overhead_pct", "%"},
}

// tracedRequests caps the replayed requests of one traced run, which bounds
// trace-<workload>.json to a few megabytes on the fast workloads.
const tracedRequests = 2000

// tracer keeps spans in memory until the run ends.
type tracer struct {
	begin time.Time
	spans []span
}

func (t *tracer) start(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.begin)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.begin) }

// discard is an http.ResponseWriter that counts what a handler writes.
type discard struct {
	h http.Header
	n int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// traceWorkload is the per-layer pass: one client, a fresh server. First a
// third of the time is driven untraced, which yields the status-counter
// deltas and a one-client latency baseline. Then each further request of the
// same sequence is sent over HTTP and replayed through the exported calls of
// each layer beneath the handler, every call wrapped in a span. Layers are
// timed from outside, one after another, so the spans of a request are
// siblings under its root; spans inside the server are a later change.
func traceWorkload(name string, seed int64, seconds time.Duration, out string) (*workloadResult, error) {
	in, err := start(true)
	if err != nil {
		return nil, err
	}
	defer in.stop()
	cat, err := readCatalog(in.sky)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(name, seed, in, cat)
	if err != nil {
		return nil, err
	}
	refs, err := referencesFor(in, w, 1)
	if err != nil {
		return nil, err
	}

	writer, err := newChurnWriter(in, name)
	if err != nil {
		return nil, err
	}
	writer.start(in)
	// fail ends the writer before an early return.
	fail := func(err error) (*workloadResult, error) {
		_ = writer.finish()
		return nil, err
	}

	// Untraced third.
	before, err := in.readCounters()
	if err != nil {
		return fail(err)
	}
	stop := make(chan struct{})
	time.AfterFunc(seconds/3, func() { close(stop) })
	plain := loop(in, w, refs, 1, stop, writer)
	after, err := in.readCounters()
	if err != nil {
		return fail(err)
	}
	base := summarize(plain, 1, 0, seconds)
	if base.attempted == 0 {
		return fail(fmt.Errorf("%s: no request completed in %s", name, seconds/3))
	}

	// Traced remainder, continuing client 0's sequence where it stopped.
	next := w.streamFor(0, 1)
	for range plain[0] {
		next()
	}
	lp, err := newLayerProbe(in)
	if err != nil {
		return fail(err)
	}
	tr := &tracer{begin: time.Now()}
	failed, firstErr := base.failed, base.firstErr
	deadline := time.Now().Add(seconds - seconds/3)
	traced := 0
	for ; traced < tracedRequests && time.Now().Before(deadline); traced++ {
		r := next()
		rows := writer.hold()
		err := lp.replay(tr, traced, r, refs, rows)
		writer.release()
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", r.url, err)
			}
		}
	}
	if err := writer.finish(); err != nil {
		return nil, err
	}
	if traced == 0 {
		return nil, fmt.Errorf("%s: no time left to trace a request in %s", name, seconds)
	}

	self := selfTimes(tr.spans)
	type spanOut struct {
		span
		Self time.Duration `json:"selfNs"`
	}
	dump := make([]spanOut, len(tr.spans))
	for i, sp := range tr.spans {
		dump[i] = spanOut{sp, self[i]}
	}
	if err := writeJSON(out, "trace-"+name+".json", dump); err != nil {
		return nil, err
	}

	m := lp.metrics(tr.spans, traced)
	for k, v := range counterMetrics(before, after, base.attempted) {
		m[k] = v
	}
	m["setup.load_s"] = metric{in.loadS, "s"}
	m["setup.neighbors_s"] = metric{in.neighborsS, "s"}
	m["load.step_rows_per_s"], m["load.undo_ms"], m["load.lateness_ms"] = metric{0, "rows/s"}, metric{0, "ms"}, metric{0, "ms"}
	if writer != nil && len(writer.stepS) > 0 && len(writer.undoMs) > 0 {
		m["load.step_rows_per_s"] = metric{churnRows / median(writer.stepS), "rows/s"}
		m["load.undo_ms"] = metric{median(writer.undoMs), "ms"}
		m["load.lateness_ms"] = metric{median(writer.lateMs), "ms"}
	}
	dur := make([]time.Duration, len(tr.spans))
	for i, sp := range tr.spans {
		dur[i] = sp.End - sp.Start
	}
	// The traced pass's own view of client latency against the untraced one.
	firstMs := spanMedian(tr.spans, "http.first", dur) / float64(time.Millisecond)
	m["trace.overhead_pct"] = metric{100 * (firstMs/base.p50 - 1), "%"}

	res := &workloadResult{
		Workload: name, Why: w.why, Traced: true,
		Attempted: base.attempted + traced, Failed: failed, Correct: failed == 0,
		Metrics: map[string]metric{},
		Info: map[string]metric{
			"untraced_requests":           {float64(base.attempted), "count"},
			"untraced_p50_ms":             {base.p50, "ms"},
			"traced_requests":             {float64(traced), "count"},
			"spans":                       {float64(len(tr.spans)), "count"},
			"request_self_us":             {spanMedian(tr.spans, "request", self) / float64(time.Microsecond), "us"},
			"resultcache.probe_hit_share": {lp.probeHitShare(), "ratio"},
		},
	}
	if firstErr != nil {
		res.FirstError = firstErr.Error()
	}
	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", pl.name)
		}
		res.Metrics[pl.name] = metric{v.Value, pl.unit}
	}
	return res, nil
}

// layerProbe holds what the replay needs to call each layer directly.
type layerProbe struct {
	in      *instance
	handler http.Handler
	client  *http.Client
	sess    *sqlengine.Session
	opt     sqlengine.ExecOptions
	rids    map[int64]storage.RID // PhotoObj objID → record
	buf     bytes.Buffer
	key     []byte
	rec     []byte
	row     val.Row

	probes, probeHits    int
	serializeNs          time.Duration
	serializeBytes       int
	rowsScanned, rowsOut int64
	scanDop1, scanDopN   float64 // pages/s
}

func newLayerProbe(in *instance) (*layerProbe, error) {
	t := in.sky.DB().PhotoObj
	lp := &layerProbe{
		in:      in,
		handler: in.web.Handler(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		sess:    in.sky.Session(),
		// The options web.Server gives every public query.
		opt:  sqlengine.ExecOptions{MaxRows: web.PublicMaxRows, Timeout: web.PublicTimeout},
		rids: map[int64]storage.RID{},
		rec:  make([]byte, storage.PageSize),
		row:  make(val.Row, len(t.Cols)),
	}
	// Storage alone: walk every PhotoObj page and record without decoding a
	// column, serially and at the width the scan pool would use.
	id := t.ColIndex("objID")
	none := make([]bool, len(t.Cols))
	pages := float64(t.DataBytes()) / storage.PageSize
	for _, dop := range []int{1, runtime.NumCPU()} {
		var rates []float64
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if err := t.ScanRows(dop, none, func(storage.RID, val.Row) error { return nil }); err != nil {
				return nil, fmt.Errorf("scan PhotoObj: %w", err)
			}
			rates = append(rates, pages/time.Since(t0).Seconds())
		}
		if dop == 1 {
			lp.scanDop1 = median(rates)
		}
		lp.scanDopN = median(rates)
	}
	only := make([]bool, len(t.Cols))
	only[id] = true
	err := t.ScanRows(1, only, func(rid storage.RID, row val.Row) error {
		lp.rids[row[id].I] = rid
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scan PhotoObj: %w", err)
	}
	return lp, nil
}

// replay sends r over HTTP and then through each layer it reaches, recording
// one span per call under a root span for the request. The returned error is
// a failed check of the first, real reply.
func (lp *layerProbe) replay(tr *tracer, req int, r *request, refs map[string]reference, sentinelRows int) error {
	root := tr.start("request", req, -1)
	defer tr.end(root)
	timed := func(name string, fn func()) int {
		i := tr.start(name, req, root)
		fn()
		tr.end(i)
		return i
	}

	// The first round trip is what a client of the untraced run sees. A
	// reply that carries a validator may have been cached by it, so the
	// round trip the in-process replay is compared against is a second
	// one: both then find the server in the same state.
	var first response
	var err error
	timed("http.first", func() { first, err = fetch(lp.client, lp.in.base, r, &lp.buf) })
	if err != nil {
		return err
	}
	verr := verify(r, first, refs, sentinelRows)
	class, etag := first.class, first.etag
	if etag {
		timed("http.repeat", func() { _, err = fetch(lp.client, lp.in.base, r, &lp.buf) })
		if err != nil {
			return err
		}
	}
	hr, err := http.NewRequest(http.MethodGet, r.url, nil)
	if err != nil {
		return err
	}
	timed("web.serve", func() { lp.handler.ServeHTTP(&discard{h: http.Header{}}, hr) })

	if r.sql != "" {
		timed("sqlengine.normalize", func() { lp.sess.ClassifyCached(r.sql) })
		hit := false
		probe := timed("resultcache.probe", func() {
			// web.resultCached's key: statement identity, format, row limit.
			key, _, ok := lp.sess.ResultKey(r.sql, lp.key[:0])
			if ok {
				key = append(append(append(key, 0), r.format...), 0)
				key = strconv.AppendInt(key, int64(lp.opt.MaxRows), 10)
				hit = lp.in.web.ResultCache().Probe(key, lp.in.sky.DB().DB.SchemaVersion()) != nil
			}
			lp.key = key
		})
		lp.probes++
		if hit {
			lp.probeHits++
			tr.spans[probe].Name = "resultcache.probe.hit"
		}
		sc, _ := sched.ParseClass(class)
		timed("sched.admit", func() {
			if tk, err := lp.in.web.Sched().Admit(context.Background(), sc, "bench"); err == nil {
				tk.Done(nil)
			}
		})
		var res *sqlengine.Result
		timed("sqlengine.exec", func() { res, err = lp.sess.ExecContext(context.Background(), r.sql, lp.opt) })
		if err != nil {
			return fmt.Errorf("replay exec: %w", err)
		}
		fresh := lp.opt
		fresh.DisablePlanCache = true
		timed("sqlengine.exec_nocache", func() { _, err = lp.sess.ExecContext(context.Background(), r.sql, fresh) })
		if err != nil {
			return fmt.Errorf("replay exec without plan cache: %w", err)
		}
		d := &discard{h: http.Header{}}
		ser := timed("web.serialize", func() { err = web.WriteResult(d, res, r.format) })
		if err != nil {
			return fmt.Errorf("replay serialize: %w", err)
		}
		lp.serializeNs += tr.spans[ser].End - tr.spans[ser].Start
		lp.serializeBytes += d.n
		lp.rowsScanned += res.RowsScanned
		lp.rowsOut += int64(max(len(res.Rows), 1))
	}
	if rid, ok := lp.rids[r.objID]; ok {
		t := lp.in.sky.DB().PhotoObj
		pk := val.Row{val.Int(r.objID)}
		timed("btree.seek", func() { t.PKExists(pk) })
		timed("val.decode", func() {
			if rec, err := t.GetRec(rid, lp.rec); err == nil {
				_, _ = val.DecodeRow(rec, lp.row, len(lp.row), nil)
			}
		})
	}
	if r.cone != nil {
		timed("htm.cover", func() { htm.CoverCircleEq(r.cone[0], r.cone[1], r.cone[2]) })
	}
	return verr
}

func (lp *layerProbe) probeHitShare() float64 {
	if lp.probes == 0 {
		return 0
	}
	return float64(lp.probeHits) / float64(lp.probes)
}

// metrics reduces the spans to the per-layer timings. A value is the median
// over the requests that reached the layer, or 0 when none did.
func (lp *layerProbe) metrics(spans []span, requests int) map[string]metric {
	per := make([]map[string]time.Duration, requests)
	for _, sp := range spans {
		if per[sp.Req] == nil {
			per[sp.Req] = map[string]time.Duration{}
		}
		per[sp.Req][sp.Name] = sp.End - sp.Start
	}
	// med collects f over the requests for which it reports ok.
	med := func(unit time.Duration, f func(m map[string]time.Duration) (time.Duration, bool)) float64 {
		var v []float64
		for _, m := range per {
			if d, ok := f(m); ok {
				v = append(v, float64(d)/float64(unit))
			}
		}
		if len(v) == 0 {
			return 0
		}
		return median(v)
	}
	of := func(name string) func(map[string]time.Duration) (time.Duration, bool) {
		return func(m map[string]time.Duration) (time.Duration, bool) { d, ok := m[name]; return d, ok }
	}
	probe := func(m map[string]time.Duration) (time.Duration, bool) {
		if d, ok := m["resultcache.probe.hit"]; ok {
			return d, true
		}
		d, ok := m["resultcache.probe"]
		return d, ok
	}
	out := map[string]metric{
		// The same request, with and without the wire: what net/http, the
		// loopback socket and the client add.
		"http.transport_us": {med(time.Microsecond, func(m map[string]time.Duration) (time.Duration, bool) {
			rt, ok := m["http.repeat"]
			if !ok {
				rt = m["http.first"]
			}
			return max(rt-m["web.serve"], 0), true
		}), "us"},
		// The handler's own share of serving a SQL request: everything
		// ServeHTTP did that the layer calls below it do not account for.
		"web.handler_us": {med(time.Microsecond, func(m map[string]time.Duration) (time.Duration, bool) {
			if _, ok := m["sqlengine.exec"]; !ok {
				return 0, false
			}
			below := m["resultcache.probe.hit"]
			if _, hit := m["resultcache.probe.hit"]; !hit {
				below = m["resultcache.probe"] + m["sqlengine.normalize"] + m["sched.admit"] + m["sqlengine.exec"] + m["web.serialize"]
			}
			return max(m["web.serve"]-below, 0), true
		}), "us"},
		"resultcache.probe_us":   {med(time.Microsecond, probe), "us"},
		"sqlengine.normalize_us": {med(time.Microsecond, of("sqlengine.normalize")), "us"},
		"sqlengine.compile_us": {med(time.Microsecond, func(m map[string]time.Duration) (time.Duration, bool) {
			fresh, ok := m["sqlengine.exec_nocache"]
			return max(fresh-m["sqlengine.exec"], 0), ok
		}), "us"},
		"sqlengine.exec_ms":              {med(time.Millisecond, of("sqlengine.exec")), "ms"},
		"sched.admit_us":                 {med(time.Microsecond, of("sched.admit")), "us"},
		"btree.seek_us":                  {med(time.Microsecond, of("btree.seek")), "us"},
		"htm.cover_us":                   {med(time.Microsecond, of("htm.cover")), "us"},
		"val.decode_ns_per_row":          {med(time.Nanosecond, of("val.decode")), "ns/row"},
		"storage.scan_pages_per_s.dop1":  {lp.scanDop1, "pages/s"},
		"storage.scan_pages_per_s.dopn":  {lp.scanDopN, "pages/s"},
		"web.serialize_us_per_kb":        {0, "us/KB"},
		"sqlengine.rows_scanned_per_row": {0, "rows"},
	}
	if lp.serializeBytes > 0 {
		out["web.serialize_us_per_kb"] = metric{float64(lp.serializeNs) / float64(time.Microsecond) / (float64(lp.serializeBytes) / 1024), "us/KB"}
	}
	if lp.rowsOut > 0 {
		out["sqlengine.rows_scanned_per_row"] = metric{float64(lp.rowsScanned) / float64(lp.rowsOut), "rows"}
	}
	return out
}

// spanMedian is the median of v over the spans with the given name, in ns.
func spanMedian(spans []span, name string, v []time.Duration) float64 {
	var x []float64
	for i, sp := range spans {
		if sp.Name == name {
			x = append(x, float64(v[i]))
		}
	}
	return median(x)
}
