package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"skyserver/internal/storage"
	"skyserver/internal/val"
)

// Session is one connection's state: declared variables and temp tables
// (the ##results of the paper's queries).
type Session struct {
	db    *DB
	vars  map[string]val.Value
	temps map[string]*MemTable

	// Plan-cache probe scratch, reused across Execs so the steady-state
	// normalize + lookup allocates nothing. Sessions are single-connection
	// (like the paper's ASP sessions), never executed concurrently.
	lexBuf   []token
	keyBuf   []byte
	paramBuf []val.Value
}

// NewSession opens a session on the database.
func NewSession(db *DB) *Session {
	return &Session{
		db:    db,
		vars:  make(map[string]val.Value),
		temps: make(map[string]*MemTable),
	}
}

// DB returns the session's database.
func (s *Session) DB() *DB { return s.db }

// Var returns a declared variable's value.
func (s *Session) Var(name string) (val.Value, bool) {
	v, ok := s.vars[fold(name)]
	return v, ok
}

// SetVar declares-or-assigns a variable (used by tools wrapping sessions).
func (s *Session) SetVar(name string, v val.Value) {
	s.vars[fold(name)] = v
}

// Temp returns a session temp table.
func (s *Session) Temp(name string) (*MemTable, bool) {
	t, ok := s.temps[fold(name)]
	return t, ok
}

// ExecOptions bound one batch execution. The public SkyServer runs with
// MaxRows 1000 and Timeout 30 s (§4: "The public SkyServer limits queries to
// 1,000 records or 30 seconds of computation"); private servers run
// unlimited.
type ExecOptions struct {
	MaxRows int
	Timeout time.Duration
	// Deadline is an absolute cut-off; when both Timeout and Deadline are
	// set the earlier one wins. Zero means none.
	Deadline time.Time
	DOP      int
	// MaxConcurrency caps the scan parallelism a query may use after DOP
	// resolution (0 = uncapped): an overloaded server can keep admitting
	// queries while bounding how many pool workers each one occupies.
	MaxConcurrency int
	// ForceRowExprs disables the vectorized expression kernels so every
	// filter and projection runs through the row-at-a-time fallback — a
	// diagnostic and testing knob. Result sets are identical either way;
	// the one observable difference is error surfacing inside AND filters:
	// the row path evaluates the right operand even when the left is NULL
	// (to distinguish false from NULL), while the vectorized path drops
	// NULL-left rows without evaluating the right side, so an error the
	// right operand would raise on such a row (e.g. division by zero)
	// only surfaces under ForceRowExprs.
	ForceRowExprs bool
	// DisablePooling allocates every batch and kernel scratch vector
	// fresh instead of recycling them through the val pools — the debug
	// oracle the equivalence tests compare pooled execution against to
	// prove recycling never corrupts results. Result sets are identical
	// either way.
	DisablePooling bool
	// DisablePlanCache bypasses the shared plan cache entirely: the batch
	// is parsed with its literals left in place and compiled fresh, exactly
	// the pre-cache pipeline. This is the debug oracle the cached-vs-fresh
	// equivalence tests compare against (mirroring DisablePooling), and it
	// also exercises the interned-literal kernels that parameterized plans
	// do not use. Result sets are identical either way.
	DisablePlanCache bool
}

// Result is the outcome of a batch: the last SELECT's result set plus
// execution statistics for the SkyServerQA status window.
type Result struct {
	Cols  []string
	Kinds []val.Kind
	Rows  []val.Row
	// RowsAffected counts inserted/deleted rows of DML statements.
	RowsAffected int64
	// Truncated reports that MaxRows cut the result short.
	Truncated bool
	// Plan is the EXPLAIN text of the last SELECT.
	Plan string
	// Elapsed is wall-clock time; CPU is process CPU consumed (user+sys),
	// the two series of Figure 13.
	Elapsed time.Duration
	CPU     time.Duration
	// RowsScanned counts records visited by scans and probes.
	RowsScanned int64
	// PagesScanned counts heap pages visited by table scans — the scan
	// work the /x/sched statistics aggregate per query.
	PagesScanned int64
	// PlanCacheHit reports that the batch executed from a cached plan
	// (single cacheable SELECTs only; see PlanCache).
	PlanCacheHit bool
	// Class is the workload class of the batch's last SELECT (zero value
	// ClassInteractive for batches without one — DML and DDL are charged
	// to whatever class admitted the request).
	Class QueryClass
	// Cacheable reports that the batch was a single plan-cacheable SELECT
	// (no session state, no DML — see batchCacheable): the precondition
	// for caching its serialized result set. Whether the result actually
	// may be cached also depends on the plan; see
	// CompiledPlan.ResultCacheable.
	Cacheable bool

	// compiled carries the plan the batch's SELECT compiled, for the
	// store-into-cache decision in exec (only single-statement cacheable
	// batches ever store it).
	compiled *CompiledPlan
}

// Compiled returns the plan the batch's last SELECT executed (nil for
// batches without one). Result-cache fills retain it as the entry's
// validity witness: the plan knows the exact catalog versions the result
// was computed against (see CompiledPlan.Valid).
func (r *Result) Compiled() *CompiledPlan { return r.compiled }

// VersionDigest returns the catalog-version digest of the plan the
// batch's last SELECT executed, and whether one exists. The jobs service
// keys persisted job results with it (via resultcache.ETag) so a job
// result's ETag changes exactly when a reload would change the answer —
// the same validity story the synchronous result cache uses.
func (r *Result) VersionDigest() (uint64, bool) {
	if r.compiled == nil {
		return 0, false
	}
	return r.compiled.VersionDigest(), true
}

// ResultBatchFunc receives one batch of a streamed SELECT's result set
// along with the output column names. The batch is only valid during the
// call (see batchFn); serialize or copy before returning.
type ResultBatchFunc func(cols []string, b *val.Batch) error

// Exec parses and runs a batch, returning the last statement's result.
func (s *Session) Exec(sql string, opt ExecOptions) (*Result, error) {
	return s.exec(context.Background(), sql, opt, nil)
}

// ExecContext is Exec under a context: cancellation (a closed HTTP
// connection, a shed query) aborts execution at the next batch boundary
// with ErrCanceled, and a context deadline behaves like Timeout
// (ErrTimeout).
func (s *Session) ExecContext(ctx context.Context, sql string, opt ExecOptions) (*Result, error) {
	return s.exec(ctx, sql, opt, nil)
}

// ExecStreamContext is ExecContext, except the last SELECT's result set is
// delivered to sink batch-by-batch instead of being materialized into
// Result.Rows — the web layer serializes HTTP responses straight from these
// batches. The returned Result carries the schema, plan, and statistics
// with Rows nil for the streamed statement; other statements behave exactly
// as in Exec. A mid-stream cancellation stops the executor before the next
// batch is serialized.
func (s *Session) ExecStreamContext(ctx context.Context, sql string, opt ExecOptions, sink ResultBatchFunc) (*Result, error) {
	return s.exec(ctx, sql, opt, sink)
}

// exec is the batch entry point, implementing the query lifecycle
// parse → parameterize → compile → (cached) → bind → execute. The fast
// path lexes and normalizes the text (reusing session scratch), probes the
// shared plan cache, and on a hit binds the fresh parameter vector and runs
// the cached plan — no parsing, no planning, no per-shape allocation. On a
// miss the batch parses with its literals as parameters, executes, and a
// cacheable batch stores its compiled plan for every later session.
func (s *Session) exec(ctx context.Context, sql string, opt ExecOptions, sink ResultBatchFunc) (*Result, error) {
	if opt.DisablePlanCache {
		stmts, err := Parse(sql)
		if err != nil {
			return nil, err
		}
		return s.execStmts(ctx, stmts, nil, opt, sink, "")
	}
	pr, err := s.normalizeAndProbe(sql)
	if err != nil {
		return nil, err
	}
	if pr.hit != nil {
		return s.execCachedPlan(ctx, pr.hit, pr.params, opt, sink)
	}
	return s.execStmts(ctx, pr.stmts, pr.params, opt, sink, pr.storeKey)
}

// newExecCtx builds the per-execution context from the options and the
// caller's context.Context, resolving the effective deadline (the earlier
// of start+Timeout and Deadline).
func (s *Session) newExecCtx(ctx context.Context, params []val.Value, opt ExecOptions, start time.Time) *ExecCtx {
	ec := &ExecCtx{
		DB: s.db, Session: s, Params: params, Ctx: ctx,
		DOP: opt.DOP, MaxDOP: opt.MaxConcurrency,
		ForceRowExprs: opt.ForceRowExprs, DisablePooling: opt.DisablePooling,
	}
	if opt.Timeout > 0 {
		ec.Deadline = start.Add(opt.Timeout)
	}
	if !opt.Deadline.IsZero() && (ec.Deadline.IsZero() || opt.Deadline.Before(ec.Deadline)) {
		ec.Deadline = opt.Deadline
	}
	return ec
}

// probe is the outcome of the shared normalize → cache-probe → parse
// prologue of Exec and Explain. Either hit is the cached plan (stmts nil),
// or stmts is the parsed batch with storeKey non-empty when the batch is
// cacheable. Keeping one implementation guarantees Explain's
// hit/miss/uncacheable report describes exactly what Exec will do.
type probe struct {
	stmts    []Statement
	params   []val.Value
	hit      *CompiledPlan
	storeKey string
}

func (s *Session) normalizeAndProbe(sql string) (probe, error) {
	toks, err := lexInto(sql, s.lexBuf)
	if err != nil {
		return probe{}, err
	}
	s.lexBuf = toks
	key, params := normalizeTokens(toks, s.keyBuf[:0], s.paramBuf[:0])
	s.keyBuf, s.paramBuf = key, params
	if cp := s.db.plans.lookup(key, s.db.SchemaVersion()); cp != nil {
		return probe{params: params, hit: cp}, nil
	}
	stmts, err := parseStatements(toks, sql, params)
	if err != nil {
		return probe{}, err
	}
	pr := probe{stmts: stmts, params: params}
	if batchCacheable(toks, stmts) {
		s.db.plans.recordMiss()
		pr.storeKey = string(key)
	} else {
		s.db.plans.recordUncacheable()
	}
	return pr, nil
}

// execStmts runs a parsed batch. params is the bound parameter vector (nil
// on the DisablePlanCache path, whose AST carries literals). A non-empty
// storeKey stores the batch's compiled plan in the shared cache after a
// successful run.
func (s *Session) execStmts(qctx context.Context, stmts []Statement, params []val.Value, opt ExecOptions, sink ResultBatchFunc, storeKey string) (*Result, error) {
	// The last SELECT of the batch is the result statement; it streams to
	// the sink (a SELECT INTO both streams and fills its target table, so
	// every format agrees with the materializing path).
	lastSel := -1
	if sink != nil {
		for i, st := range stmts {
			if _, ok := st.(*SelectStmt); ok {
				lastSel = i
			}
		}
	}
	res := &Result{}
	startWall := time.Now()
	startCPU := processCPU()
	ctx := s.newExecCtx(qctx, params, opt, startWall)
	for i, st := range stmts {
		var sk ResultBatchFunc
		if i == lastSel {
			sk = sink
		}
		if err := s.execOne(st, ctx, opt, res, sk); err != nil {
			return nil, err
		}
	}
	if storeKey != "" && res.compiled != nil {
		s.db.plans.store(storeKey, res.compiled)
		res.Cacheable = true
	}
	if res.compiled != nil {
		res.Class, _ = res.compiled.ClassFor(s, params)
	}
	res.Elapsed = time.Since(startWall)
	res.CPU = processCPU() - startCPU
	res.RowsScanned = ctx.RowsScanned.Load()
	res.PagesScanned = ctx.PagesScanned.Load()
	return res, nil
}

// execCachedPlan is the bind → execute tail of a plan-cache hit: a fresh
// ExecCtx carries the new parameter values into the shared immutable plan.
func (s *Session) execCachedPlan(qctx context.Context, cp *CompiledPlan, params []val.Value, opt ExecOptions, sink ResultBatchFunc) (*Result, error) {
	if len(params) < cp.nParams {
		// Impossible by key construction; fail loudly rather than bind
		// stale parameters.
		return nil, fmt.Errorf("sql: plan cache: %d parameters bound, plan needs %d", len(params), cp.nParams)
	}
	class, _ := cp.ClassFor(s, params)
	res := &Result{PlanCacheHit: true, Class: class, Cacheable: true, compiled: cp}
	startWall := time.Now()
	startCPU := processCPU()
	ctx := s.newExecCtx(qctx, params, opt, startWall)
	if err := s.runPlan(cp, "", ctx, opt, res, sink); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(startWall)
	res.CPU = processCPU() - startCPU
	res.RowsScanned = ctx.RowsScanned.Load()
	res.PagesScanned = ctx.PagesScanned.Load()
	return res, nil
}

// Explain plans a batch and returns its plan text without running it. It
// shares the exec path's normalize → probe → compile pipeline: a cacheable
// SELECT's plan is looked up in (and on a miss stored into) the shared plan
// cache, and the report's final line states whether the plan came from the
// cache ("PlanCache: hit"), was compiled and stored ("miss"), or cannot be
// cached ("uncacheable" — session state or a multi-statement batch).
func (s *Session) Explain(sql string) (string, error) {
	pr, err := s.normalizeAndProbe(sql)
	if err != nil {
		return "", err
	}
	if pr.hit != nil {
		return pr.hit.explain + "PlanCache: hit\n", nil
	}
	ctx := &ExecCtx{DB: s.db, Session: s, Params: pr.params}
	var plans []string
	for _, st := range pr.stmts {
		switch st := st.(type) {
		case *SelectStmt:
			cp, err := s.compileSelect(st, pr.params)
			if err != nil {
				return "", err
			}
			if st.Into != "" {
				plans = append(plans, fmt.Sprintf("InsertInto(%s)\n%s", st.Into, indentLines(cp.explain)))
			} else {
				plans = append(plans, cp.explain)
			}
			if pr.storeKey != "" {
				// The next Exec of the same shape starts from this plan.
				s.db.plans.store(pr.storeKey, cp)
			}
		case *DeclareStmt, *SetStmt:
			// No plan; session effects only. Run SETs so later
			// statements referencing the variable still plan.
			if err := s.execSessionOnly(st, ctx); err != nil {
				return "", err
			}
		default:
			plans = append(plans, fmt.Sprintf("%T\n", st))
		}
	}
	mark := "miss"
	if pr.storeKey == "" {
		mark = "uncacheable"
	}
	return strings.Join(plans, "") + "PlanCache: " + mark + "\n", nil
}

// ClassifyCached reports the workload class of a batch when — and only
// when — its plan is already in the shared cache: one lex + normalize +
// counter-free cache peek, no parsing, no compilation, no stat or
// recency mutation. This is the pre-admission probe: it is safe to run
// on unadmitted (possibly soon-to-be-shed) traffic because an attacker
// varying statement text pays the server nothing beyond lexing, and it
// leaves /x/plancache's hit/miss counters describing executions only.
// ok is false when the shape is unknown (or the text does not even lex);
// the web layer then admits conservatively under the batch queue, and
// the admitted execution's compile populates the cache so every later
// request of that shape classifies precisely.
func (s *Session) ClassifyCached(sql string) (QueryClass, bool) {
	toks, err := lexInto(sql, s.lexBuf)
	if err != nil {
		return ClassBatch, false
	}
	s.lexBuf = toks
	key, params := normalizeTokens(toks, s.keyBuf[:0], s.paramBuf[:0])
	s.keyBuf, s.paramBuf = key, params
	if cp := s.db.plans.peek(key, s.db.SchemaVersion()); cp != nil {
		class, _ := cp.ClassFor(s, params)
		return class, true
	}
	return ClassBatch, false
}

// ResultKey appends the version-independent result-cache identity of a
// batch to dst and returns it: the plan cache's normalized statement key,
// a separator, and the bound parameter vector in a self-delimiting binary
// encoding. Equal keys mean the same statement shape with the same
// constants; the caller appends whatever else distinguishes one response
// from another (output format, row limit). Versions are deliberately NOT
// part of the key — entries carry their own validity witness (the
// CompiledPlan that produced them) and are invalidated lazily on probe.
//
// Like ClassifyCached, this is safe to run on unadmitted traffic: one lex
// + normalize into session scratch plus a counter-free plan-cache peek —
// no parsing, no compilation, no allocation in steady state. cp is the
// cached plan for the shape when the plan cache knows it (nil otherwise;
// the caller can use its VersionDigest to compute an ETag before
// executing). ok is false when the text does not lex; such a request can
// never have been cached.
func (s *Session) ResultKey(sql string, dst []byte) (key []byte, cp *CompiledPlan, ok bool) {
	toks, err := lexInto(sql, s.lexBuf)
	if err != nil {
		return dst, nil, false
	}
	s.lexBuf = toks
	normKey, params := normalizeTokens(toks, s.keyBuf[:0], s.paramBuf[:0])
	s.keyBuf, s.paramBuf = normKey, params
	dst = append(dst, normKey...)
	dst = append(dst, 0)
	for _, p := range params {
		dst = appendParamKey(dst, p)
	}
	return dst, s.db.plans.peek(normKey, s.db.SchemaVersion()), true
}

// appendParamKey appends one parameter value in a self-delimiting binary
// form (kind byte, then a fixed 8-byte payload for numbers or a
// length-prefixed payload for strings and blobs), so distinct parameter
// vectors never collide in a result-cache key.
func appendParamKey(dst []byte, v val.Value) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case val.KindInt:
		dst = appendUint64(dst, uint64(v.I))
	case val.KindFloat:
		dst = appendUint64(dst, math.Float64bits(v.F))
	case val.KindString:
		dst = appendUint64(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
	case val.KindBytes:
		dst = appendUint64(dst, uint64(len(v.B)))
		dst = append(dst, v.B...)
	}
	return dst
}

func appendUint64(dst []byte, x uint64) []byte {
	return append(dst,
		byte(x>>56), byte(x>>48), byte(x>>40), byte(x>>32),
		byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
}

// Classify reports the workload class the admission controller should
// schedule this batch under, without executing it. It shares Exec's
// normalize → probe prologue, so on the steady-state path — the templated
// Explorer and navigator traffic the plan cache is built for — a call
// costs one cache probe and no parsing. On a miss the single cacheable
// SELECT is compiled and stored, so the Exec that follows hits the cache
// and the compile is never paid twice. Everything the cache cannot hold —
// multi-statement batches, DML, DDL, session-state references —
// classifies as batch: those are analyst workloads by construction, and
// the Explorer's traffic is all single cacheable SELECTs. Lex errors
// surface here so the caller can fail fast without charging a queue slot
// to a query that will never run.
//
// Classify compiles on a miss, so it belongs after admission (tools,
// tests, schedulers with trusted input); the web layer's pre-admission
// gate uses ClassifyCached, which never compiles for unadmitted traffic.
func (s *Session) Classify(sql string) (QueryClass, error) {
	pr, err := s.normalizeAndProbe(sql)
	if err != nil {
		return ClassInteractive, err
	}
	if pr.hit != nil {
		class, _ := pr.hit.ClassFor(s, pr.params)
		return class, nil
	}
	if pr.storeKey != "" && len(pr.stmts) == 1 {
		if sel, ok := pr.stmts[0].(*SelectStmt); ok {
			cp, err := s.compileSelect(sel, pr.params)
			if err != nil {
				return ClassInteractive, err
			}
			s.db.plans.store(pr.storeKey, cp)
			return cp.class, nil
		}
	}
	return ClassBatch, nil
}

func indentLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func (s *Session) execSessionOnly(st Statement, ctx *ExecCtx) error {
	switch st := st.(type) {
	case *DeclareStmt:
		if _, err := KindForTypeName(st.Type); err != nil {
			return err
		}
		s.vars[st.Name] = val.Null()
		return nil
	case *SetStmt:
		if _, ok := s.vars[st.Name]; !ok {
			return fmt.Errorf("sql: variable @%s not declared", st.Name)
		}
		ce, err := compileExpr(st.Expr, &scope{}, s.db)
		if err != nil {
			return err
		}
		v, err := ce(ctx, nil)
		if err != nil {
			return err
		}
		s.vars[st.Name] = v
		return nil
	}
	return fmt.Errorf("sql: not a session statement: %T", st)
}

func (s *Session) execOne(st Statement, ctx *ExecCtx, opt ExecOptions, res *Result, sink ResultBatchFunc) error {
	switch st := st.(type) {
	case *DeclareStmt, *SetStmt:
		return s.execSessionOnly(st, ctx)

	case *SelectStmt:
		return s.execSelect(st, ctx, opt, res, sink)

	case *InsertStmt:
		return s.execInsert(st, ctx, opt, res)

	case *DeleteStmt:
		return s.execDelete(st, ctx, res)

	case *CreateTableStmt:
		cols := make([]Column, len(st.Cols))
		for i, cd := range st.Cols {
			k, err := KindForTypeName(cd.Type)
			if err != nil {
				return err
			}
			cols[i] = Column{Name: cd.Name, Kind: k, NotNull: cd.NotNull}
		}
		if strings.HasPrefix(st.Table, "#") {
			s.temps[fold(st.Table)] = &MemTable{Name: st.Table, Cols: cols}
			return nil
		}
		_, err := s.db.CreateTable(st.Table, cols, nil, "")
		return err

	default:
		return fmt.Errorf("sql: unsupported statement %T", st)
	}
}

func (s *Session) execSelect(st *SelectStmt, ctx *ExecCtx, opt ExecOptions, res *Result, sink ResultBatchFunc) error {
	cp, err := s.compileSelect(st, ctx.Params)
	if err != nil {
		return err
	}
	res.compiled = cp
	return s.runPlan(cp, st.Into, ctx, opt, res, sink)
}

// runRoot drives a plan to completion with emit as its one ordered result
// stream, then returns the operators' per-worker scratch to the pools.
func runRoot(ctx *ExecCtx, root Node, emit batchFn) error {
	defer ctx.releaseScratch()
	return root.Run(ctx, serialSink(ctx, emit))
}

// runPlan executes a compiled SELECT plan — the execute step shared by
// fresh compilation and plan-cache hits. Schema, kinds, and the EXPLAIN
// text come from the plan (rendered once at compile), so a cache hit's
// result assembly allocates only the gathered rows.
func (s *Session) runPlan(cp *CompiledPlan, into string, ctx *ExecCtx, opt ExecOptions, res *Result, sink ResultBatchFunc) error {
	// The root sink's mutable state is one struct so the closure captures
	// one heap cell, not three.
	var out struct {
		sent      int
		truncated bool
		rows      []val.Row
	}
	limit := opt.MaxRows
	// INTO needs the rows materialized for the target table even when the
	// result set is also streamed to a sink.
	gather := sink == nil || into != ""
	err := runRoot(ctx, cp.root, func(b *val.Batch) error {
		// The result boundary polls cancellation too: a query whose plan
		// spends no time in scans (memory tables, TVFs) still aborts
		// within one output batch of the context closing.
		if err := ctx.checkDeadline(); err != nil {
			return err
		}
		if limit > 0 {
			rem := limit - out.sent
			if rem <= 0 {
				out.truncated = true
				return errStopEarly
			}
			if b.Len() > rem {
				b.Truncate(rem)
				out.truncated = true
			}
		}
		out.sent += b.Len()
		if gather && b.Len() > 0 {
			// One backing slab per batch instead of one allocation per
			// row; each gathered row gets a full-capacity sub-slice.
			width := b.Width()
			backing := make([]val.Value, b.Len()*width)
			b.Each(func(i int) {
				r := val.Row(backing[:width:width])
				backing = backing[width:]
				out.rows = append(out.rows, b.RowAt(i, r))
			})
		}
		if sink != nil {
			return sink(cp.cols, b)
		}
		return nil
	})
	// errors.Is, not ==: when several parallel scan shards hit the row
	// limit concurrently, the storage layer joins their errStopEarly
	// returns into one error.
	if err != nil && !errors.Is(err, errStopEarly) {
		return err
	}
	if into != "" {
		mt := &MemTable{Name: into}
		for i := range cp.cols {
			mt.Cols = append(mt.Cols, Column{Name: cp.cols[i], Kind: cp.kinds[i]})
		}
		mt.Rows = out.rows
		// SELECT INTO a permanent name also lands in the session under
		// that name (the engine is a warehouse; ad-hoc result tables stay
		// session-local).
		s.temps[fold(into)] = mt
		res.RowsAffected = int64(len(out.rows))
	}
	res.Cols = cp.cols
	res.Kinds = cp.kinds
	res.Rows = out.rows
	res.Truncated = out.truncated
	res.Plan = cp.explain
	return nil
}

func (s *Session) execInsert(st *InsertStmt, ctx *ExecCtx, opt ExecOptions, res *Result) error {
	// Gather the rows to insert.
	var inRows []val.Row
	var inCols []string
	if st.Select != nil {
		p := &planner{db: s.db, sess: s, params: ctx.Params}
		node, err := p.planSelect(st.Select)
		if err != nil {
			return err
		}
		for _, c := range node.Columns() {
			inCols = append(inCols, c.Name)
		}
		if err := runRoot(ctx, node, func(b *val.Batch) error {
			b.Each(func(i int) {
				inRows = append(inRows, b.RowAt(i, make(val.Row, b.Width())))
			})
			return nil
		}); err != nil {
			return err
		}
	} else {
		for _, ve := range st.Values {
			row := make(val.Row, len(ve))
			for i, e := range ve {
				ce, err := compileExpr(e, &scope{}, s.db)
				if err != nil {
					return err
				}
				v, err := ce(ctx, nil)
				if err != nil {
					return err
				}
				row[i] = v
			}
			inRows = append(inRows, row)
		}
	}

	// Resolve the target.
	if strings.HasPrefix(st.Table, "#") {
		mt, ok := s.temps[fold(st.Table)]
		if !ok {
			return fmt.Errorf("sql: unknown temp table %s", st.Table)
		}
		reorder, err := columnOrder(len(mt.Cols), namesOf(mt.Cols), st.Cols)
		if err != nil {
			return err
		}
		for _, r := range inRows {
			out, err := applyOrder(r, reorder, len(mt.Cols))
			if err != nil {
				return err
			}
			mt.Rows = append(mt.Rows, out)
		}
		res.RowsAffected = int64(len(inRows))
		return nil
	}
	t, err := s.db.Table(st.Table)
	if err != nil {
		return err
	}
	reorder, err := columnOrder(len(t.Cols), namesOf(t.Cols), st.Cols)
	if err != nil {
		return err
	}
	for _, r := range inRows {
		out, err := applyOrder(r, reorder, len(t.Cols))
		if err != nil {
			return err
		}
		if _, err := t.Insert(out); err != nil {
			return err
		}
	}
	res.RowsAffected = int64(len(inRows))
	return nil
}

func namesOf(cols []Column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// columnOrder maps insert positions to table positions. Empty colList means
// positional insert.
func columnOrder(tableWidth int, tableCols []string, colList []string) ([]int, error) {
	if len(colList) == 0 {
		return nil, nil
	}
	idx := make(map[string]int, tableWidth)
	for i, n := range tableCols {
		idx[fold(n)] = i
	}
	out := make([]int, len(colList))
	for i, n := range colList {
		pos, ok := idx[fold(n)]
		if !ok {
			return nil, fmt.Errorf("sql: unknown insert column %s", n)
		}
		out[i] = pos
	}
	return out, nil
}

func applyOrder(row val.Row, order []int, width int) (val.Row, error) {
	if order == nil {
		if len(row) != width {
			return nil, fmt.Errorf("sql: insert expects %d values, got %d", width, len(row))
		}
		return row, nil
	}
	if len(row) != len(order) {
		return nil, fmt.Errorf("sql: insert expects %d values, got %d", len(order), len(row))
	}
	out := make(val.Row, width)
	for i := range out {
		out[i] = val.Null()
	}
	for i, pos := range order {
		out[pos] = row[i]
	}
	return out, nil
}

func (s *Session) execDelete(st *DeleteStmt, ctx *ExecCtx, res *Result) error {
	if strings.HasPrefix(st.Table, "#") {
		mt, ok := s.temps[fold(st.Table)]
		if !ok {
			return fmt.Errorf("sql: unknown temp table %s", st.Table)
		}
		sc := &scope{}
		for _, c := range mt.Cols {
			sc.cols = append(sc.cols, ColRef{Qualifier: mt.Name, Name: c.Name, Kind: c.Kind})
		}
		var cond compiledExpr
		if st.Where != nil {
			ce, err := compileExpr(st.Where, sc, s.db)
			if err != nil {
				return err
			}
			cond = ce
		}
		kept := mt.Rows[:0]
		deleted := int64(0)
		for _, r := range mt.Rows {
			if cond != nil {
				ok, err := cond(ctx, r)
				if err != nil {
					return err
				}
				if !ok.Truthy() {
					kept = append(kept, r)
					continue
				}
			}
			deleted++
		}
		mt.Rows = kept
		res.RowsAffected = deleted
		return nil
	}

	t, err := s.db.Table(st.Table)
	if err != nil {
		return err
	}
	sc := &scope{}
	for _, c := range t.Cols {
		sc.cols = append(sc.cols, ColRef{Qualifier: t.Name, Name: c.Name, Kind: c.Kind})
	}
	var cond compiledExpr
	if st.Where != nil {
		ce, err := compileExpr(st.Where, sc, s.db)
		if err != nil {
			return err
		}
		cond = ce
	}
	// Collect matching RIDs first (serial scan, all shards), then delete.
	var rids []storage.RID
	err = t.ScanRows(1, nil, func(rid storage.RID, row val.Row) error {
		if cond != nil {
			ok, err := cond(ctx, row)
			if err != nil {
				return err
			}
			if !ok.Truthy() {
				return nil
			}
		}
		rids = append(rids, rid)
		return nil
	})
	if err != nil {
		return err
	}
	for _, rid := range rids {
		if _, err := t.DeleteRID(rid); err != nil {
			return err
		}
	}
	res.RowsAffected = int64(len(rids))
	return nil
}
