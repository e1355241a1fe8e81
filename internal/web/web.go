// Package web implements the SkyServer's web interface (§2, §5): an HTTP
// front end over the SQL database offering the query page with the public
// limits (1,000 rows / 30 seconds, §4), result sets in multiple formats
// (the SkyServerQA formats of §4: grid/HTML, CSV, XML — plus JSON for
// modern clients and a FITS-ASCII table), the object explorer drill-down
// (Figure 2), the pan-zoom cutout service over the image pyramid, the
// famous-places gallery, and the schema browser feed that SkyServerQA's
// object browser reads. Every request is written to an access log in the
// format internal/traffic analyzes — the same pipeline as §7's statistics.
//
// Query-running routes pass through a workload-class admission gate:
// ad-hoc SQL is classified by the planner (interactive seek vs batch
// sweep), canned tools admit as interactive, responses carry
// X-Query-Class, and overload is shed per class with 503 + Retry-After
// (see internal/sched and docs/ops.md).
package web

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skyserver/internal/jobs"
	"skyserver/internal/resultcache"
	"skyserver/internal/sched"
	"skyserver/internal/schema"
	"skyserver/internal/sqlengine"
	"skyserver/internal/storage"
	"skyserver/internal/val"
)

// Options configure a server.
type Options struct {
	// Public enforces the paper's public-server limits: 1,000 rows and
	// 30 seconds per query. Private (personal) SkyServers run unlimited.
	Public bool
	// MaxRows / Timeout override the public defaults when non-zero.
	MaxRows int
	Timeout time.Duration
	// InteractiveSlots / BatchSlots bound how many query-running requests
	// of each workload class execute at once (0 = the sched defaults):
	// interactive slots are a hard reservation for the Explorer's point
	// lookups, batch slots serve analytic scans and may borrow idle
	// capacity. InteractiveQueueDepth / BatchQueueDepth bound each
	// class's wait queue; requests beyond slot and queue bounds receive
	// 503 + Retry-After — §7's television spike sheds load instead of
	// collapsing the server, and a flood of batch scans no longer drags
	// the Explorer down with it.
	InteractiveSlots      int
	BatchSlots            int
	InteractiveQueueDepth int
	BatchQueueDepth       int
	// MaxScanWorkers caps the scan parallelism of one admitted query
	// (ExecOptions.MaxConcurrency; 0 = uncapped).
	MaxScanWorkers int
	// ResultCacheBytes budgets the serialized result cache that answers
	// repeat SQL GETs before admission (0 = the resultcache default,
	// negative = disabled — admission-accounting tests disable it so
	// every request reaches the scheduler). ResultCacheMaxEntry caps one
	// cached body (0 = default); it also bounds the FITS materialization
	// buffer, cache enabled or not.
	ResultCacheBytes    int
	ResultCacheMaxEntry int
	// UserQueueQuota bounds how many queued batch admissions one user
	// identity (X-User header / ?user=) may hold at once; other users keep
	// queueing past one identity's quota rejection (0 = the batch queue
	// depth).
	UserQueueQuota int
	// JobsDir / JobsTTL / JobsBytes / JobsMaxPerUser configure the async
	// job service's persisted-result store (see internal/jobs; zero values
	// select its defaults — JobsDir "" spills into a private temp
	// directory removed on Close).
	JobsDir        string
	JobsTTL        time.Duration
	JobsBytes      int64
	JobsMaxPerUser int
	// AccessLog receives traffic-format log lines (may be nil).
	AccessLog io.Writer
}

// PublicMaxRows and PublicTimeout are the §4 limits.
const (
	PublicMaxRows = 1000
	PublicTimeout = 30 * time.Second
)

// Server is the SkyServer web front end.
type Server struct {
	sdb   *schema.SkyDB
	opt   Options
	mux   *http.ServeMux
	sched *sched.Scheduler
	// routes lists every registered mux pattern (see Routes).
	routes []string

	// rcache answers repeat SQL GETs from serialized bytes before the
	// admission gate (nil when disabled); maxEntry is the per-body cap,
	// resolved even when the cache is off because the FITS path sizes its
	// materialization buffer against it. probePool recycles the sessions
	// whose scratch buffers back the pre-admission classify and
	// result-key probes, so unadmitted traffic allocates nothing.
	rcache    *resultcache.Cache
	maxEntry  int
	probePool sync.Pool

	// jobs is the async batch-query job service behind /api/v1/jobs (nil
	// only when its spill directory could not be created).
	jobs *jobs.Manager

	// notReady is set while the server drains: gated routes shed with 503
	// (zero value = ready, so a fresh server serves immediately). panics
	// counts handler panics the recovery middleware absorbed.
	notReady atomic.Bool
	panics   atomic.Int64

	logMu sync.Mutex
}

// NewServer builds the front end over a loaded database.
func NewServer(sdb *schema.SkyDB, opt Options) *Server {
	if opt.Public {
		if opt.MaxRows == 0 {
			opt.MaxRows = PublicMaxRows
		}
		if opt.Timeout == 0 {
			opt.Timeout = PublicTimeout
		}
	}
	s := &Server{
		sdb: sdb,
		opt: opt,
		mux: http.NewServeMux(),
		sched: sched.NewScheduler(sched.Config{
			InteractiveSlots:      opt.InteractiveSlots,
			BatchSlots:            opt.BatchSlots,
			InteractiveQueueDepth: opt.InteractiveQueueDepth,
			BatchQueueDepth:       opt.BatchQueueDepth,
			UserQueueQuota:        opt.UserQueueQuota,
		}),
	}
	jm, err := jobs.New(jobs.Config{
		Dir:        opt.JobsDir,
		TTL:        opt.JobsTTL,
		MaxBytes:   opt.JobsBytes,
		MaxPerUser: opt.JobsMaxPerUser,
		Exec:       s.runJob,
	})
	if err != nil {
		// The server still serves everything synchronous; /api/v1/jobs
		// answers 503 until a restart fixes the spill directory.
		log.Printf("web: jobs service disabled: %v", err)
	} else {
		s.jobs = jm
	}
	s.maxEntry = opt.ResultCacheMaxEntry
	if s.maxEntry <= 0 {
		s.maxEntry = resultcache.DefaultMaxEntry
	}
	if opt.ResultCacheBytes >= 0 {
		s.rcache = resultcache.New(opt.ResultCacheBytes, s.maxEntry)
	}
	s.probePool.New = func() any { return &probeState{sess: sqlengine.NewSession(sdb.DB)} }
	// The ad-hoc SQL endpoints classify each query through the planner
	// (plan-cached, so the steady state pays one cache probe); the site's
	// own canned tools — the Explorer drill-down, cutouts, the gallery,
	// the navigator rectangle, the loader journal — are interactive by
	// construction and admit under a fixed class. SQL GETs first probe
	// the result cache: a repeat of an already-served lookup is answered
	// from cached bytes before admission (see resultCached).
	interactive := func(*http.Request) sched.Class { return sched.Interactive }
	sqlHandler := s.resultCached(s.gate("sql", s.classifySQL, s.handleSQL))
	handle := func(pattern string, h http.HandlerFunc) {
		s.routes = append(s.routes, pattern)
		s.mux.HandleFunc(pattern, h)
	}
	handle("/", s.handleHome)
	handle("/en/tools/search/sql.asp", sqlHandler)
	handle("/x/sql", sqlHandler)
	handle("/en/tools/explore/obj.asp", s.gate("explore", interactive, s.handleExplore))
	handle("/en/tools/places/", s.gate("places", interactive, s.handlePlaces))
	handle("/en/tools/navi/cutout", s.gate("cutout", interactive, s.handleCutout))
	handle("/en/tools/navi/objects", s.gate("rect", interactive, s.handleRect))
	handle("/en/help/docs/browser.asp", s.handleSchema)
	handle("/en/skyserver/loadevents", s.gate("loadevents", interactive, s.handleLoadEvents))
	// The versioned /api/v1 namespace: the sync query endpoint is the same
	// handler as the legacy routes above (which stay as thin aliases);
	// /api/v1/jobs is the async job service. Errors under /api/v1 are the
	// JSON envelope (docs/ops.md).
	handle("/api/v1/query", sqlHandler)
	handle("POST /api/v1/jobs", s.handleJobSubmit)
	handle("GET /api/v1/jobs", s.handleJobList)
	handle("GET /api/v1/jobs/{id}", s.handleJobStatus)
	handle("GET /api/v1/jobs/{id}/result", s.handleJobResult)
	handle("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
	handle("/api/v1/", s.handleAPINotFound)
	// The status pages: one table, each served under both namespaces.
	for _, st := range []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"plancache", s.handlePlanCache},
		{"resultcache", s.handleResultCache},
		{"sched", s.handleSched},
		{"shards", s.handleShards},
		{"health", s.handleHealth},
	} {
		handle("/x/"+st.name, st.handler)
		handle("/api/v1/status/"+st.name, st.handler)
	}
	return s
}

// Routes returns every pattern the server registered, in registration
// order (the docs gate checks them against docs/ops.md).
func (s *Server) Routes() []string { return append([]string(nil), s.routes...) }

// Sched returns the server's admission controller (tests and embedding
// tools read its statistics).
func (s *Server) Sched() *sched.Scheduler { return s.sched }

// ResultCache returns the serialized result cache, nil when disabled
// (tests and embedding tools read its statistics).
func (s *Server) ResultCache() *resultcache.Cache { return s.rcache }

// probeState is the pooled scratch of the pre-admission probes: a
// session whose lex/normalize buffers are reused across requests, plus
// the result-key buffer. Pooled because probes run on unadmitted —
// possibly about-to-be-shed — traffic, which must not allocate per
// request.
type probeState struct {
	sess *sqlengine.Session
	key  []byte
}

// fillState rides the request context from the result-cache probe to
// handleSQL on a miss: the computed cache key and, when the plan cache
// already knows the statement's shape, the ETag the response should
// carry (an unknown shape gets no ETag on its first-ever response — the
// fill computes one for every later request).
type fillState struct {
	key  []byte
	etag string
}

type fillKey struct{}

// resultCached wraps the SQL endpoints with the result-cache probe — the
// short-circuit layer before admission. A GET whose (normalized
// statement, parameters, format, row limit) key has a valid cached entry
// is answered entirely from cached bytes: no admission, no compile, no
// bind, no scan. The reply carries ETag and Cache-Control, and a request
// whose If-None-Match matches sends 304 with zero body bytes. A miss
// attaches a fillState so the admitted execution's serialized response
// populates the cache on its way to the client. POSTs, the bare search
// page, and requests self-downgraded with ?class=batch skip the cache
// entirely (batch results are never cached, so probing them is wasted
// work).
//
// Cache-Control is "private, no-cache": intermediaries must not hold
// analyst query results, and clients must revalidate — which the strong
// ETag makes a one-round-trip 304 in the steady state. Staleness is
// bounded by the entry's validity witness, not by time: any DML or DDL
// on a referenced table makes the next probe discard the entry.
func (s *Server) resultCached(h http.HandlerFunc) http.HandlerFunc {
	if s.rcache == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			h(w, r)
			return
		}
		q := r.URL.Query()
		cmd := q.Get("cmd")
		if cmd == "" {
			h(w, r)
			return
		}
		if o, ok := sched.ParseClass(q.Get("class")); ok && o == sched.Batch {
			h(w, r)
			return
		}
		format := q.Get("format")
		if format == "" {
			format = "html"
		}
		ps := s.probePool.Get().(*probeState)
		key, cp, ok := ps.sess.ResultKey(cmd, ps.key[:0])
		ps.key = key
		if !ok {
			s.probePool.Put(ps)
			h(w, r)
			return
		}
		key = append(key, 0)
		key = append(key, format...)
		key = append(key, 0)
		key = strconv.AppendInt(key, int64(s.opt.MaxRows), 10)
		ps.key = key
		if e := s.rcache.Probe(key, s.sdb.DB.SchemaVersion()); e != nil {
			s.probePool.Put(ps)
			hdr := w.Header()
			hdr.Set("X-Query-Class", e.Class)
			hdr.Set("ETag", e.ETag)
			hdr.Set("Cache-Control", "private, no-cache")
			if etagMatch(r.Header.Get("If-None-Match"), e.ETag) {
				s.rcache.NoteNotModified()
				w.WriteHeader(http.StatusNotModified)
				return
			}
			hdr.Set("Content-Type", e.ContentType)
			_, _ = w.Write(e.Body)
			return
		}
		fs := &fillState{key: append([]byte(nil), key...)}
		if cp != nil && cp.ResultCacheable() {
			fs.etag = resultcache.ETag(key, cp.VersionDigest())
		}
		s.probePool.Put(ps)
		h(w, r.WithContext(context.WithValue(r.Context(), fillKey{}, fs)))
	}
}

// etagMatch reports whether an If-None-Match header value matches the
// entry's strong ETag (exactly, or via the `*` wildcard).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == etag || header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// maybeFill stores a successfully serialized response into the result
// cache. Only interactive-class results of single cacheable SELECTs
// whose plan reads no TVFs are stored: batch-class sweeps would evict
// the hot point lookups the cache exists for, and the other exclusions
// are correctness (see Result.Cacheable and
// CompiledPlan.ResultCacheable). The entry's ETag and validity witness
// come from the executed plan, so a fill races DML safely — if versions
// moved mid-execution the witness simply never validates and the entry
// dies on first probe.
func (s *Server) maybeFill(fs *fillState, res *sqlengine.Result, body []byte, contentType string) {
	if s.rcache == nil || fs == nil || res == nil || body == nil {
		return
	}
	if !res.Cacheable || res.Class != sqlengine.ClassInteractive {
		return
	}
	cp := res.Compiled()
	if cp == nil || !cp.ResultCacheable() {
		return
	}
	etag := resultcache.ETag(fs.key, cp.VersionDigest())
	s.rcache.Store(fs.key, etag, contentType, res.Class.String(), body, cp)
}

// gateState carries one admitted request's run ticket and outcome through
// the request context.
type gateState struct {
	tk  *sched.Ticket
	err error
}

type gateKey struct{}

// classifySQL decides the workload class of an ad-hoc SQL request from
// the plan cache alone (Session.ClassifyCached: lex + normalize + a
// counter-free cache peek — no parsing or compilation runs before
// admission, so shed traffic cannot make the server compile or churn the
// cache). An empty form renders the search page and admits as
// interactive; a shape the cache does not know admits conservatively as
// batch — its admitted execution compiles and caches the plan, after
// which every request of that shape classifies precisely.
func (s *Server) classifySQL(r *http.Request) sched.Class {
	var cmd string
	switch r.Method {
	case http.MethodGet:
		cmd = r.URL.Query().Get("cmd")
	case http.MethodPost:
		// ParseForm memoizes into r.PostForm, so the handler's own call
		// sees the already-consumed body.
		if err := r.ParseForm(); err == nil {
			cmd = r.PostForm.Get("cmd")
		}
	}
	if cmd == "" {
		return sched.Interactive
	}
	ps := s.probePool.Get().(*probeState)
	class, ok := ps.sess.ClassifyCached(cmd)
	s.probePool.Put(ps)
	if ok && class == sqlengine.ClassInteractive {
		return sched.Interactive
	}
	return sched.Batch
}

// retryAfter is the per-class backoff hint on 503s: a shed interactive
// query can retry almost immediately (its reservation drains in
// milliseconds), a shed batch scan should wait for real capacity.
func retryAfter(class sched.Class) string {
	if class == sched.Batch {
		return "5"
	}
	return "1"
}

// gate wraps a query-running handler with class-tagged admission control
// and per-query context plumbing: classify picks the request's workload
// class, the request is admitted through the class's queue (503 +
// Retry-After when it is full), its context gets the server's query
// timeout, and the ticket — which the exec helpers charge with scan
// work — is released with the query's outcome when the handler returns.
// Clients may downgrade themselves with ?class=batch (a polite analyst
// keeping a scripted sweep out of the interactive reservation);
// escalation to interactive is deliberately not honored — on a public
// server the reservation would otherwise be one query parameter away
// from being a batch queue. Every gated response, including rejections,
// carries X-Query-Class so clients learn which queue they were scheduled
// on. Cheap endpoints (home, schema, the /x/ status pages) stay ungated
// so operators can observe an overloaded server.
func (s *Server) gate(label string, classify func(*http.Request) sched.Class, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		class := classify(r)
		q := r.URL.Query()
		if o, ok := sched.ParseClass(q.Get("class")); ok && o == sched.Batch {
			class = sched.Batch
		}
		w.Header().Set("X-Query-Class", class.String())
		if !s.Ready() {
			shedDraining(w, r, class)
			return
		}
		// Batch admissions carry the analyst's identity so the scheduler's
		// per-user fair share can tell floods apart; the interactive
		// reservation has no identity (it is never queued long enough to
		// need one).
		user := ""
		if class == sched.Batch {
			if user = r.Header.Get("X-User"); user == "" {
				user = q.Get("user")
			}
		}
		tk, err := s.sched.AdmitUser(r.Context(), class, label, user)
		if err != nil {
			if errors.Is(err, sched.ErrOverloaded) {
				// The §7 spike answer: a well-formed, retryable rejection.
				msg := fmt.Sprintf("SkyServer overloaded: %s queue full, try again shortly", class)
				if isAPI(r) {
					writeAPIError(w, http.StatusServiceUnavailable, class.String(), retryAfterSecs(class), msg)
					return
				}
				w.Header().Set("Retry-After", retryAfter(class))
				http.Error(w, msg, http.StatusServiceUnavailable)
				return
			}
			// The client went away while queued; nobody is listening.
			if isAPI(r) {
				writeAPIError(w, statusClientClosedRequest, class.String(), 0, err.Error())
				return
			}
			http.Error(w, err.Error(), statusClientClosedRequest)
			return
		}
		ctx := r.Context()
		if s.opt.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opt.Timeout)
			defer cancel()
		}
		// Transient page-read failures retry under a per-query budget; a
		// query that keeps hitting bad reads fails instead of spinning.
		ctx = storage.WithRetryBudget(ctx, storage.DefaultQueryRetryBudget)
		gs := &gateState{tk: tk}
		defer func() {
			// A panicking handler releases its slot as a failure before the
			// panic continues to the recovery middleware — a poisoned query
			// must not leak scheduler capacity.
			if rec := recover(); rec != nil {
				if gs.err == nil {
					gs.err = fmt.Errorf("handler panic: %v", rec)
				}
				tk.Done(gs.err)
				panic(rec)
			}
			tk.Done(gs.err)
		}()
		h(w, r.WithContext(context.WithValue(ctx, gateKey{}, gs)))
	}
}

// statusClientClosedRequest is the de-facto (nginx) status for a request
// aborted by its own client.
const statusClientClosedRequest = 499

// exec runs one statement batch under the request's context and charges
// its scan work to the request's run ticket.
func (s *Server) exec(r *http.Request, sess *sqlengine.Session, sql string) (*sqlengine.Result, error) {
	res, err := sess.ExecContext(r.Context(), sql, s.execOptions())
	s.noteQuery(r, res, err)
	return res, err
}

// execTolerant is exec for best-effort side queries whose failure the
// handler absorbs (the explorer's spectrum and neighbors panels): work is
// still charged, but an error does not mark the request failed in the
// /x/sched statistics.
func (s *Server) execTolerant(r *http.Request, sess *sqlengine.Session, sql string) (*sqlengine.Result, error) {
	res, err := sess.ExecContext(r.Context(), sql, s.execOptions())
	s.noteQuery(r, res, nil)
	return res, err
}

// execStream is exec for the streaming path.
func (s *Server) execStream(r *http.Request, sess *sqlengine.Session, sql string, sink sqlengine.ResultBatchFunc) (*sqlengine.Result, error) {
	res, err := sess.ExecStreamContext(r.Context(), sql, s.execOptions(), sink)
	s.noteQuery(r, res, err)
	return res, err
}

func (s *Server) noteQuery(r *http.Request, res *sqlengine.Result, err error) {
	gs, _ := r.Context().Value(gateKey{}).(*gateState)
	if gs == nil {
		return
	}
	if res != nil {
		gs.tk.AddWork(res.PagesScanned, res.RowsScanned)
	}
	if err != nil {
		gs.err = err
	}
}

// Handler returns the HTTP handler with panic recovery and access logging
// attached.
func (s *Server) Handler() http.Handler {
	return s.recovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.logAccess(r)
		s.mux.ServeHTTP(w, r)
	}))
}

func (s *Server) logAccess(r *http.Request) {
	if s.opt.AccessLog == nil {
		return
	}
	lang := "en"
	if strings.HasPrefix(r.URL.Path, "/jp/") {
		lang = "jp"
	} else if strings.HasPrefix(r.URL.Path, "/de/") {
		lang = "de"
	}
	isPage := !strings.ContainsAny(r.URL.Path, ".") ||
		strings.HasSuffix(r.URL.Path, ".asp")
	flags := "-"
	if isPage {
		flags = "P"
	}
	if strings.Contains(strings.ToLower(r.UserAgent()), "bot") {
		flags += "C"
	}
	client := r.RemoteAddr
	if i := strings.LastIndex(client, ":"); i > 0 {
		client = client[:i]
	}
	if client == "" {
		client = "unknown"
	}
	s.logMu.Lock()
	fmt.Fprintf(s.opt.AccessLog, "%s %s %s %s %s\n",
		time.Now().UTC().Format(time.RFC3339), client, flags, lang, r.URL.Path)
	s.logMu.Unlock()
}

func (s *Server) execOptions() sqlengine.ExecOptions {
	return sqlengine.ExecOptions{
		MaxRows:        s.opt.MaxRows,
		Timeout:        s.opt.Timeout,
		MaxConcurrency: s.opt.MaxScanWorkers,
	}
}

// ---- home & gallery ----

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" && r.URL.Path != "/en/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>SkyServer</title></head><body>
<h1>SkyServer</h1>
<p>Public access to the synthetic Sloan Digital Sky Survey data.</p>
<ul>
<li><a href="/en/tools/places/">Famous places</a></li>
<li><a href="/en/tools/search/sql.asp">SQL search</a></li>
<li><a href="/en/tools/navi/objects?ra1=184.9&ra2=185.1&dec1=-0.6&dec2=-0.4">Navigate</a></li>
<li><a href="/en/help/docs/browser.asp">Schema browser</a></li>
</ul></body></html>`)
}

// handlePlaces is the "coffee-table atlas of famous places" (§2): the
// brightest big galaxies, linked to their explorer pages.
func (s *Server) handlePlaces(w http.ResponseWriter, r *http.Request) {
	sess := sqlengine.NewSession(s.sdb.DB)
	res, err := s.exec(r, sess, `
		select top 20 objID, ra, dec, r, isoA_r
		from Galaxy
		order by r asc`)
	if err != nil {
		httpError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<html><body><h1>Famous Places</h1><ul>")
	for _, row := range res.Rows {
		fmt.Fprintf(w, `<li><a href="/en/tools/explore/obj.asp?id=%d">Object %d</a> (ra %.4f, dec %.4f, r=%.2f)</li>`,
			row[0].I, row[0].I, row[1].F, row[2].F, row[3].F)
	}
	fmt.Fprint(w, "</ul></body></html>")
}

// ---- SQL endpoint ----

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	var cmd string
	switch r.Method {
	case http.MethodGet:
		cmd = r.URL.Query().Get("cmd")
	case http.MethodPost:
		if err := r.ParseForm(); err != nil {
			httpError(w, r, err)
			return
		}
		cmd = r.PostForm.Get("cmd")
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "html"
	}
	if cmd == "" {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>SQL Search</h1>
<form method="post"><textarea name="cmd" rows="8" cols="80">select top 10 objID, ra, dec, r from Galaxy order by r</textarea>
<br><input type="submit" value="Submit"></form>
<p>The public server limits queries to 1,000 rows or 30 seconds.</p></body></html>`)
		return
	}
	sess := sqlengine.NewSession(s.sdb.DB)
	// A result-cache miss attaches a fillState: the serialized bytes
	// about to stream to this client also populate the cache, and the
	// response carries the ETag when the statement's shape is known
	// (first-ever executions learn their ETag at fill time instead).
	fs, _ := r.Context().Value(fillKey{}).(*fillState)
	if fs != nil && fs.etag == "" {
		// First-ever execution of an unknown shape: compile and store the
		// plan now (the admitted request pays the compile it was going to
		// pay anyway; the exec below hits the plan cache) so even this
		// response can carry its ETag. Errors are ignored — exec surfaces
		// them with the proper status.
		if _, err := sess.Classify(cmd); err == nil {
			if _, cp, ok := sess.ResultKey(cmd, nil); ok && cp != nil && cp.ResultCacheable() {
				fs.etag = resultcache.ETag(fs.key, cp.VersionDigest())
			}
		}
	}
	if fs != nil && fs.etag != "" {
		w.Header().Set("ETag", fs.etag)
		w.Header().Set("Cache-Control", "private, no-cache")
	}
	// Stream the result set batch-wise straight from the executor when the
	// format supports it; fits needs the row count in its header first and
	// streams in two passes over the plan instead.
	if newBatchSerializer(nil, format) == nil {
		if !strings.EqualFold(format, "fits") {
			clearValidators(w)
			httpError(w, r, errUnknownFormat(format))
			return
		}
		s.streamFITS(w, r, fs, sess, cmd)
		return
	}
	var fw *fillWriter
	out := http.ResponseWriter(w)
	if fs != nil {
		fw = &fillWriter{ResponseWriter: w, max: s.maxEntry}
		out = fw
	}
	sw := newBatchSerializer(out, format)
	res, err := s.execStream(r, sess, cmd, func(cols []string, b *val.Batch) error {
		return sw.writeBatch(cols, b)
	})
	if err != nil {
		if !sw.started() {
			clearValidators(w)
			httpError(w, r, err)
			return
		}
		// Mid-stream failure: the status line is already on the wire, so
		// close the document with an error marker instead of leaving a
		// silently truncated body.
		sw.abort(err)
		return
	}
	if err := sw.finish(res); err == nil && fw != nil {
		if body, contentType, ok := fw.captured(); ok {
			s.maybeFill(fs, res, body, contentType)
		}
	}
}

// clearValidators drops the optimistically set ETag/Cache-Control before
// an error response: the error body is not the entity the tag names.
func clearValidators(w http.ResponseWriter) {
	w.Header().Del("ETag")
	w.Header().Del("Cache-Control")
}

// appendFITSHeader renders the FITS ASCII-table header (80-column cards)
// for the given schema and row count into dst.
func appendFITSHeader(dst []byte, cols []string, rows int64) []byte {
	line := func(dst []byte, s string) []byte {
		dst = append(dst, s...)
		for n := 80 - len(s); n > 0; n-- {
			dst = append(dst, ' ')
		}
		return append(dst, '\n')
	}
	dst = line(dst, "XTENSION= 'TABLE   '")
	dst = line(dst, fmt.Sprintf("NAXIS2  = %d", rows))
	dst = line(dst, fmt.Sprintf("TFIELDS = %d", len(cols)))
	for i, c := range cols {
		dst = line(dst, fmt.Sprintf("TTYPE%-3d= '%s'", i+1, c))
	}
	return line(dst, "END")
}

// appendFITSRow renders one fixed-width data row (20-character
// right-aligned fields) into dst, returning the value scratch for reuse.
func appendFITSRow(dst []byte, row val.Row, scratch []byte) ([]byte, []byte) {
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ' ')
		}
		scratch = v.AppendString(scratch[:0])
		for n := 20 - len(scratch); n > 0; n-- {
			dst = append(dst, ' ')
		}
		dst = append(dst, scratch...)
	}
	return append(dst, '\n'), scratch
}

// appendFITS renders the FITS ASCII-table flavour of a materialized
// result into dst — the exported WriteResult path, where the caller
// already holds the full result.
func appendFITS(dst []byte, res *sqlengine.Result) []byte {
	dst = appendFITSHeader(dst, res.Cols, int64(len(res.Rows)))
	var scratch []byte
	for _, row := range res.Rows {
		dst, scratch = appendFITSRow(dst, row, scratch)
	}
	return dst
}

// streamFITS serves a FITS ASCII table in two passes over the plan: the
// format's header leads with NAXIS2 (the row count), so pass one executes
// the query only counting rows, then pass two re-executes and streams the
// fixed-width rows behind the now-known header. Nothing is materialized,
// which lifts the old maxentry-budget 413 for large FITS results; the
// result cache still fills through the capped fillWriter tee when the
// body fits. The survey is read-only between the passes, but a row-count
// drift would corrupt the header, so it is checked and surfaced as a
// mid-stream error marker.
func (s *Server) streamFITS(w http.ResponseWriter, r *http.Request, fs *fillState, sess *sqlengine.Session, cmd string) {
	var rows int64
	if _, err := s.execStream(r, sess, cmd, func(cols []string, b *val.Batch) error {
		rows += int64(b.Len())
		return nil
	}); err != nil {
		clearValidators(w)
		httpError(w, r, err)
		return
	}
	var fw *fillWriter
	out := http.ResponseWriter(w)
	if fs != nil {
		fw = &fillWriter{ResponseWriter: w, max: s.maxEntry}
		out = fw
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var buf, scratch []byte
	var rowScratch val.Row
	headerSent := false
	var streamed int64
	res, err := s.execStream(r, sess, cmd, func(cols []string, b *val.Batch) error {
		if !headerSent {
			headerSent = true
			if _, err := out.Write(appendFITSHeader(nil, cols, rows)); err != nil {
				return err
			}
		}
		if rowScratch == nil {
			rowScratch = make(val.Row, b.Width())
		}
		buf = buf[:0]
		if err := b.EachErr(func(i int) error {
			streamed++
			if streamed > rows {
				return fmt.Errorf("web: result changed between fits passes")
			}
			buf, scratch = appendFITSRow(buf, b.RowAt(i, rowScratch), scratch)
			return nil
		}); err != nil {
			return err
		}
		_, err := out.Write(buf)
		return err
	})
	if err == nil && streamed != rows {
		err = fmt.Errorf("web: result changed between fits passes")
	}
	if err != nil {
		if !headerSent {
			clearValidators(w)
			httpError(w, r, err)
			return
		}
		// The header is committed with the pass-one count; close with an
		// error marker so the client can tell a partial body from a
		// complete one.
		fmt.Fprintf(w, "# error: result truncated: %s\n", err)
		return
	}
	if !headerSent {
		// Empty result: the sink never ran, emit the header alone.
		if _, err := out.Write(appendFITSHeader(nil, res.Cols, 0)); err != nil {
			return
		}
	}
	if fw != nil {
		if body, contentType, ok := fw.captured(); ok {
			s.maybeFill(fs, res, body, contentType)
		}
	}
}

// WriteResult renders a materialized result set in the requested format:
// csv, json, xml, html, or fits (an ASCII FITS-style table). The streaming
// formats delegate to the same batch serializers the SQL endpoint uses, so
// each wire format has exactly one implementation.
func WriteResult(w http.ResponseWriter, res *sqlengine.Result, format string) error {
	if sw := newBatchSerializer(w, format); sw != nil {
		b := val.NewBatch(len(res.Cols))
		for _, row := range res.Rows {
			b.AppendRow(row)
			if b.Full() {
				if err := sw.writeBatch(res.Cols, b); err != nil {
					return err
				}
				b.Reset()
			}
		}
		if b.Size() > 0 {
			if err := sw.writeBatch(res.Cols, b); err != nil {
				return err
			}
		}
		return sw.finish(res)
	}
	if !strings.EqualFold(format, "fits") {
		return errUnknownFormat(format)
	}
	// FITS ASCII-table flavour: an 80-column header then fixed rows. The
	// caller already holds the materialized result, so the row count is
	// free; the SQL endpoint instead streams in two passes (streamFITS).
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, err := w.Write(appendFITS(nil, res))
	return err
}

func errUnknownFormat(format string) error {
	return fmt.Errorf("web: unknown format %q (csv, json, xml, html, fits)", format)
}

// ---- explorer ----

// handleExplore is the drill-down of Figure 2: a summary of one object's
// attributes, its spectrum if any, and its neighbors; full=1 dumps the
// whole record.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad or missing id", http.StatusBadRequest)
		return
	}
	sess := sqlengine.NewSession(s.sdb.DB)
	full := r.URL.Query().Get("full") == "1"
	cols := "objID, run, rerun, camcol, field, obj, mode, type, ra, dec, u, g, r, i, z, flags, parentID"
	if full {
		cols = "*"
	}
	res, err := s.exec(r, sess, fmt.Sprintf("select %s from PhotoObj where objID = %d", cols, id))
	if err != nil {
		httpError(w, r, err)
		return
	}
	if len(res.Rows) == 0 {
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><body><h1>Object %d</h1><table border=\"1\">", id)
	for i, c := range res.Cols {
		fmt.Fprintf(w, "<tr><th>%s</th><td>%s</td></tr>",
			html.EscapeString(c), html.EscapeString(res.Rows[0][i].String()))
	}
	fmt.Fprint(w, "</table>")

	spec, err := s.execTolerant(r, sess, fmt.Sprintf(
		"select specObjID, z, zConf, specClass from SpecObj where objID = %d", id))
	if err == nil && len(spec.Rows) > 0 {
		fmt.Fprintf(w, "<h2>Spectrum</h2><p>specObjID %d, z = %s (confidence %s)</p>",
			spec.Rows[0][0].I, spec.Rows[0][1].String(), spec.Rows[0][2].String())
	}
	nb, err := s.execTolerant(r, sess, fmt.Sprintf(
		"select top 10 neighborObjID, distance from Neighbors where objID = %d order by distance", id))
	if err == nil && len(nb.Rows) > 0 {
		fmt.Fprint(w, "<h2>Neighbors</h2><ul>")
		for _, row := range nb.Rows {
			fmt.Fprintf(w, `<li><a href="/en/tools/explore/obj.asp?id=%d">%d</a> at %.3f'</li>`,
				row[0].I, row[0].I, row[1].F)
		}
		fmt.Fprint(w, "</ul>")
	}
	if !full {
		fmt.Fprintf(w, `<p><a href="/en/tools/explore/obj.asp?id=%d&full=1">whole record</a></p>`, id)
	}
	fmt.Fprint(w, "</body></html>")
}

// ---- navigation: cutouts and rectangles ----

// handleCutout serves an image tile for the field containing (ra, dec) at
// the requested zoom — the pan-zoom interface of §2/Figure 2.
func (s *Server) handleCutout(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ra, err1 := strconv.ParseFloat(q.Get("ra"), 64)
	dec, err2 := strconv.ParseFloat(q.Get("dec"), 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "bad ra/dec", http.StatusBadRequest)
		return
	}
	zoom := 1
	if z := q.Get("zoom"); z != "" {
		if zi, err := strconv.Atoi(z); err == nil {
			zoom = zi
		}
	}
	sess := sqlengine.NewSession(s.sdb.DB)
	res, err := s.exec(r, sess, fmt.Sprintf(`
		select f.fieldID from Field f
		where f.raMin <= %g and f.raMax > %g and f.decMin <= %g and f.decMax > %g`,
		ra, ra, dec, dec))
	if err != nil {
		httpError(w, r, err)
		return
	}
	if len(res.Rows) == 0 {
		http.Error(w, "outside the survey footprint", http.StatusNotFound)
		return
	}
	fieldID := res.Rows[0][0].I
	tile, err := s.exec(r, sess, fmt.Sprintf(
		"select img from Frame where fieldID = %d and zoom = %d", fieldID, zoom))
	if err != nil {
		httpError(w, r, err)
		return
	}
	if len(tile.Rows) == 0 || tile.Rows[0][0].IsNull() {
		http.Error(w, "no tile at that zoom", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(tile.Rows[0][0].B)
}

// handleRect lists the objects inside an (ra, dec) rectangle via the
// spatial TVF — the "all objects in a certain rectangular area" request.
func (s *Server) handleRect(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var b [4]float64
	for i, name := range []string{"ra1", "ra2", "dec1", "dec2"} {
		v, err := strconv.ParseFloat(q.Get(name), 64)
		if err != nil {
			http.Error(w, "bad "+name, http.StatusBadRequest)
			return
		}
		b[i] = v
	}
	sess := sqlengine.NewSession(s.sdb.DB)
	res, err := s.exec(r, sess, fmt.Sprintf(
		"select objID, ra, dec, type, mode from fGetObjFromRect(%g, %g, %g, %g)",
		b[0], b[1], b[2], b[3]))
	if err != nil {
		httpError(w, r, err)
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if err := WriteResult(w, res, format); err != nil {
		httpError(w, r, err)
	}
}

// ---- schema browser ----

// schemaDoc is the metadata feed the SkyServerQA object browser renders
// (§4: tables, columns, types, indexes, constraints, comments).
type schemaDoc struct {
	Tables []tableDoc `json:"tables"`
	Views  []viewDoc  `json:"views"`
}

type tableDoc struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	Rows        uint64      `json:"rows"`
	DataBytes   uint64      `json:"dataBytes"`
	IndexBytes  uint64      `json:"indexBytes"`
	Columns     []columnDoc `json:"columns"`
	Indexes     []indexDoc  `json:"indexes"`
	ForeignKeys []fkDoc     `json:"foreignKeys"`
	PrimaryKey  []string    `json:"primaryKey"`
}

type columnDoc struct {
	Name        string `json:"name"`
	Type        string `json:"type"`
	Nullable    bool   `json:"nullable"`
	Description string `json:"description"`
}

type indexDoc struct {
	Name     string   `json:"name"`
	Keys     []string `json:"keys"`
	Included []string `json:"included,omitempty"`
}

type fkDoc struct {
	Name       string   `json:"name"`
	Columns    []string `json:"columns"`
	References string   `json:"references"`
}

type viewDoc struct {
	Name        string `json:"name"`
	Base        string `json:"base"`
	Where       string `json:"where"`
	Description string `json:"description"`
}

// SchemaDoc builds the metadata document for a database.
func SchemaDoc(db *sqlengine.DB) schemaDoc {
	doc := schemaDoc{}
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			continue
		}
		td := tableDoc{
			Name: t.Name, Description: t.Desc,
			Rows: t.Rows(), DataBytes: t.DataBytes(), IndexBytes: t.IndexBytes(),
		}
		for _, c := range t.Cols {
			td.Columns = append(td.Columns, columnDoc{
				Name: c.Name, Type: c.Kind.String(), Nullable: !c.NotNull, Description: c.Desc,
			})
		}
		for _, pk := range t.PKCols {
			td.PrimaryKey = append(td.PrimaryKey, t.Cols[pk].Name)
		}
		for _, ix := range t.Indexes() {
			id := indexDoc{Name: ix.Name}
			for _, k := range ix.KeyCols {
				id.Keys = append(id.Keys, t.Cols[k].Name)
			}
			for _, k := range ix.InclCols {
				id.Included = append(id.Included, t.Cols[k].Name)
			}
			td.Indexes = append(td.Indexes, id)
		}
		for _, fk := range t.ForeignKeys() {
			fd := fkDoc{Name: fk.Name, References: fk.RefTable}
			for _, c := range fk.Cols {
				fd.Columns = append(fd.Columns, t.Cols[c].Name)
			}
			td.ForeignKeys = append(td.ForeignKeys, fd)
		}
		doc.Tables = append(doc.Tables, td)
	}
	for _, name := range db.ViewNames() {
		v, ok := db.View(name)
		if !ok {
			continue
		}
		doc.Views = append(doc.Views, viewDoc{
			Name: v.Name, Base: v.Base, Where: v.Where, Description: v.Desc,
		})
	}
	return doc
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(SchemaDoc(s.sdb.DB))
}

// handlePlanCache reports the shared plan cache's hit/miss/invalidation
// counters — repeated HTTP traffic (the explorer's point lookups, the
// navigator's rectangles) executes from cached plans, and benchmarks and
// operators read the evidence here.
func (s *Server) handlePlanCache(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.sdb.DB.Plans().Stats())
}

// handleResultCache reports the serialized result cache's counters —
// hits (responses answered before admission), 304s, fills, lazy
// invalidations, evictions, and resident bytes. Ungated like the other
// /x/ status pages; a server with the cache disabled reports zeros.
// Field reference: docs/ops.md.
func (s *Server) handleResultCache(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var st resultcache.Stats
	if s.rcache != nil {
		st = s.rcache.Stats()
	}
	_ = json.NewEncoder(w).Encode(st)
}

// handleSched reports the query scheduler: per-class admission counters
// (interactive and batch slots, queue occupancy, admitted / borrowed /
// rejected / queue waits), cross-class totals, the per-query recent
// history, and the persistent scan-worker pool's activity. Ungated, so
// it stays readable while the server sheds load. Field reference:
// docs/ops.md.
func (s *Server) handleSched(w http.ResponseWriter, r *http.Request) {
	doc := struct {
		Admission sched.Stats     `json:"admission"`
		ScanPool  sched.PoolStats `json:"scanPool"`
	}{
		Admission: s.sched.Stats(),
		ScanPool:  s.sdb.DB.FileGroup().ScanPoolStats(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// handleShards reports the HTM-trixel shard layout and its routing
// counters: per-shard trixel range, pages scanned, queries routed,
// physical reads and pool workers, plus the spatial/full routing split
// and the prune ratio (fraction of shard work spatial routing avoided).
// Ungated, like the other status pages. Field reference: docs/ops.md.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.sdb.DB.Shards().Stats())
}

// handleLoadEvents shows the loader journal — §9.4's "simple web user
// interface [that] displays the load-events table".
func (s *Server) handleLoadEvents(w http.ResponseWriter, r *http.Request) {
	sess := sqlengine.NewSession(s.sdb.DB)
	res, err := s.exec(r, sess,
		"select eventID, tableName, sourceFile, sourceRows, insertedRows, status from loadEvents order by eventID")
	if err != nil {
		httpError(w, r, err)
		return
	}
	if err := WriteResult(w, res, "html"); err != nil {
		httpError(w, r, err)
	}
}

// httpError maps a query error onto its HTTP response. Legacy routes get
// the classic text body; /api/ routes get the JSON envelope, with the
// workload class echoed from the X-Query-Class header the gate set.
func httpError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusInternalServerError
	msg := err.Error()
	retry := 0
	if strings.Contains(msg, "sql:") {
		code = http.StatusBadRequest
	}
	switch {
	case errors.Is(err, sqlengine.ErrTimeout):
		code = http.StatusRequestTimeout
	case errors.Is(err, sqlengine.ErrCanceled):
		// The client abandoned the request; the status is for the log.
		code = statusClientClosedRequest
	case errors.Is(err, storage.ErrTransient):
		// Retries and the query budget are spent; the fault may clear, so
		// tell the client to try again rather than blaming the query.
		code = http.StatusServiceUnavailable
		retry = 1
	case errors.Is(err, storage.ErrChecksum), errors.Is(err, storage.ErrScanPanic):
		// Data-integrity and isolated-panic failures are server faults.
		code = http.StatusInternalServerError
	}
	if isAPI(r) {
		writeAPIError(w, code, w.Header().Get("X-Query-Class"), retry, msg)
		return
	}
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	http.Error(w, msg, code)
}
