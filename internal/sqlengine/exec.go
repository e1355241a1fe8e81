package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skyserver/internal/htm"
	"skyserver/internal/storage"
	"skyserver/internal/val"
)

// ExecCtx carries per-query execution state: the database, session
// variables, resource limits (the public SkyServer's 30-second / 1,000-row
// caps live here), and counters for the statistics window of SkyServerQA.
type ExecCtx struct {
	DB      *DB
	Session *Session
	// Params is the execution's parameter vector: the literal values the
	// normalizer extracted from this statement's text, bound fresh on every
	// execution. Compiled plans reference slots of it (ParamExpr), which is
	// what lets one immutable plan serve every constant binding of a query
	// shape.
	Params []val.Value
	// Ctx is the per-query context: cancellation (a closed HTTP
	// connection, an admission-control abort) is polled by every operator
	// at batch boundaries and by the storage scan loop between morsels.
	// nil means no cancellation (context.Background()).
	Ctx context.Context
	// Deadline aborts the query when exceeded (zero = none).
	Deadline time.Time
	// DOP is the degree of parallelism for heap scans; 0 = one worker
	// per volume, 1 = serial.
	DOP int
	// MaxDOP caps the resolved scan parallelism (0 = uncapped) — the
	// ExecOptions.MaxConcurrency knob.
	MaxDOP int
	// ForceRowExprs disables the vectorized expression kernels, routing
	// every filter and projection through the row-at-a-time fallback.
	// Data still flows in batches; only expression evaluation changes.
	// Used by equivalence tests and the batch-vs-row benchmark.
	ForceRowExprs bool
	// DisablePooling routes every batch and scratch acquisition to a
	// fresh allocation instead of the val pools — the debug oracle the
	// equivalence tests run against to prove recycling never corrupts
	// results.
	DisablePooling bool

	// Stats.
	RowsScanned  atomic.Int64
	PagesScanned atomic.Int64

	// scratch is the per-worker memory pass-through operators acquire
	// inside their sinkFactory calls (see own); the plan's driver releases
	// it when the plan finishes. Factory calls are sequential on the
	// driving goroutine, so the list needs no lock.
	scratch    []releaser
	scratchBuf [8]releaser
}

type releaser interface{ Release() }

// queryCtx returns the query's context (never nil).
func (ctx *ExecCtx) queryCtx() context.Context {
	if ctx.Ctx != nil {
		return ctx.Ctx
	}
	return context.Background()
}

// scanDOP resolves the effective heap-scan parallelism for a table with
// the given stripe width: DOP (0 = one worker per volume) clamped to
// MaxDOP.
func (ctx *ExecCtx) scanDOP(volumes int) int {
	dop := ctx.DOP
	if dop <= 0 {
		dop = volumes
	}
	if ctx.MaxDOP > 0 && dop > ctx.MaxDOP {
		dop = ctx.MaxDOP
	}
	return dop
}

// getBatch acquires a batch for an operator: pooled unless DisablePooling.
// Operators release unconditionally (Release is a no-op on unpooled
// batches) after the last emit that could reference the batch returns.
func (ctx *ExecCtx) getBatch(width, capacity int, need []bool) *val.Batch {
	if ctx.DisablePooling {
		return val.NewBatchNeeded(width, need)
	}
	return val.GetBatch(width, capacity, need)
}

// getArena acquires kernel scratch: pooled unless DisablePooling, in which
// case every vector the arena hands out is a fresh allocation.
func (ctx *ExecCtx) getArena() *val.Arena {
	if ctx.DisablePooling {
		return val.NewNoReuseArena()
	}
	return val.GetArena()
}

// own hands the execution a pooled object a pass-through operator gives one
// worker (a batch, an arena, a serial sink): releaseScratch returns it once
// the plan has finished — on success, error and early stop alike — so those
// operators keep no per-worker bookkeeping of their own. Only call it from
// inside a sinkFactory or a Run prologue (sequential by contract).
func own[T releaser](ctx *ExecCtx, r T) T {
	if ctx.scratch == nil {
		ctx.scratch = ctx.scratchBuf[:0]
	}
	ctx.scratch = append(ctx.scratch, r)
	return r
}

// releaseScratch releases everything own recorded, newest first (the order
// nested defers would have used), ready for the batch's next statement.
func (ctx *ExecCtx) releaseScratch() {
	for i := len(ctx.scratch) - 1; i >= 0; i-- {
		ctx.scratch[i].Release()
		ctx.scratch[i] = nil
	}
	ctx.scratch = ctx.scratch[:0]
}

// getRowStore acquires a slab row materializer for operators that hold
// their input (sort runs, top-k heaps, a join's inner side): pooled unless
// DisablePooling.
func (ctx *ExecCtx) getRowStore(width int) *val.RowStore {
	if ctx.DisablePooling {
		return val.NewNoReuseRowStore(width)
	}
	return val.GetRowStore(width)
}

// ErrTimeout is returned when a query exceeds its deadline, like the public
// server's 30-second computation limit.
var ErrTimeout = errors.New("sql: query exceeded the time limit")

// ErrCanceled is returned when a query's context is canceled before it
// completes (the HTTP client went away, or the server shed the query).
var ErrCanceled = errors.New("sql: query canceled")

// errStopEarly aborts execution without error (TOP n satisfied).
var errStopEarly = errors.New("sql: stop early")

// checkDeadline polls the query's cancellation signals: the wall-clock
// deadline and the context. Operators call it at batch boundaries.
func (ctx *ExecCtx) checkDeadline() error {
	if !ctx.Deadline.IsZero() && time.Now().After(ctx.Deadline) {
		return ErrTimeout
	}
	if ctx.Ctx != nil {
		select {
		case <-ctx.Ctx.Done():
			return mapCtxErr(ctx.Ctx.Err())
		default:
		}
	}
	return nil
}

// mapCtxErr translates a context error into the engine's query errors.
func mapCtxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrTimeout
	default:
		return ErrCanceled
	}
}

// batchFn consumes one batch of rows. The batch is owned by the producer
// and valid only for the duration of the call: consumers that retain data
// must copy it out (individual val.Values are safe to keep — producers
// never reuse blob backing bytes, only batch structure). Consumers may
// narrow the batch's selection vector in place. A batchFn is only ever
// called from the one worker it was made for (see sinkFactory), so it may
// keep unsynchronized private state.
type batchFn func(b *val.Batch) error

// sinkFactory is the operator contract — the only way an operator consumes
// input. A producer calls it sequentially (never concurrently), once per
// worker, before any batch flows to any of its sinks; the returned batchFn
// is then called only from that worker; and the returned finalizer (may be
// nil) runs serially in worker order on the driving goroutine after every
// worker has finished successfully — it is skipped when the run fails. The
// shape mirrors storage.ScanBatchesCtx's per-worker callback. Serial
// execution is the one-worker case: a producer with a single output stream
// calls mk(0) once.
type sinkFactory func(worker int) (batchFn, func() error)

// Node is a physical plan operator. Run pushes the operator's output, in
// batches of up to val.BatchSize rows, into the sinks mk hands its workers.
// Operators that hold only per-worker state (scan, filter, project) pass
// the factory through with their own stage wrapped around each sink;
// operators that need all their input first (agg, sort, top-k) install one
// private accumulator per worker and produce a single output stream.
type Node interface {
	Columns() []ColRef
	Run(ctx *ExecCtx, mk sinkFactory) error
	explainTo(sb *strings.Builder, depth int)
}

// serialSink adapts a consumer that needs one ordered stream — the plan
// root, a join's inputs, DISTINCT, TOP — to the contract: every worker gets
// the same mutex-serialized emit and no finalizer, so emit never sees two
// concurrent calls however many workers the producer runs. The adapter is
// pooled with its closures bound once, so asking for one ordered stream
// costs an index-seek plan no allocation; the execution owns it until the
// plan finishes (see own).
func serialSink(ctx *ExecCtx, emit batchFn) sinkFactory {
	s := own(ctx, serialPool.Get().(*serial))
	s.emit = emit
	return s.mk
}

type serial struct {
	mu   sync.Mutex
	emit batchFn
	push batchFn     // locks mu around emit
	mk   sinkFactory // hands every worker push
}

var serialPool = sync.Pool{New: func() any {
	s := new(serial)
	s.push = func(b *val.Batch) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.emit(b)
	}
	s.mk = func(int) (batchFn, func() error) { return s.push, nil }
	return s
}}

func (s *serial) Release() {
	s.emit = nil
	serialPool.Put(s)
}

// finish ends a producer's stream: the finalizer runs only when the output
// was pushed successfully.
func finish(err error, done func() error) error {
	if err != nil || done == nil {
		return err
	}
	return done()
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

// Explain renders the plan tree as indented text (Figures 10–12).
func Explain(n Node) string {
	var sb strings.Builder
	n.explainTo(&sb, 0)
	return sb.String()
}

// flushFiltered is the tail of every producer that assembles rows into its
// own batch: filter the batch with the producer's pushed-down predicate
// (nil = none), push the survivors to emit, and reset it for refilling.
func flushFiltered(ctx *ExecCtx, b *val.Batch, pred *compiledPred, ar *val.Arena, emit batchFn) error {
	if b.Size() == 0 {
		return nil
	}
	if err := pred.filter(ctx, b, ar); err != nil {
		return err
	}
	if b.Len() > 0 {
		if err := emit(b); err != nil {
			return err
		}
	}
	b.Reset()
	return nil
}

// rowLess orders rows by the sort keys, breaking ties with a full-row
// ascending comparison so the order is total. Parallel workers deliver
// rows in nondeterministic (morsel-stealing) order; a total order is what
// makes parallel and serial executions of ORDER BY byte-identical.
func rowLess(a, b val.Row, keyPos []int, desc []bool) bool {
	for k, p := range keyPos {
		c := a[p].Compare(b[p])
		if c == 0 {
			continue
		}
		return (c < 0) != desc[k]
	}
	for p := range a {
		c := a[p].Compare(b[p])
		if c == 0 {
			continue
		}
		return c < 0
	}
	return false
}

// scatter maps an index-entry value position to a batch column.
type scatter struct{ src, dst int }

// buildScatter returns the key and included-column scatter lists for a
// covering index access, pruned to the needed columns (nil = all) so an
// index covering more than the query reads doesn't materialize the excess,
// and shifted by dstOff for join outputs. The planner calls this once at
// compile time; the lists live in the immutable plan.
func buildScatter(ix *Index, needed []bool, dstOff int) (keyDst, inclDst []scatter) {
	n := 0
	for _, c := range ix.KeyCols {
		if needed == nil || needed[c] {
			n++
		}
	}
	keyDst = make([]scatter, 0, n)
	for i, c := range ix.KeyCols {
		if needed == nil || needed[c] {
			keyDst = append(keyDst, scatter{i, dstOff + c})
		}
	}
	n = 0
	for _, c := range ix.InclCols {
		if needed == nil || needed[c] {
			n++
		}
	}
	inclDst = make([]scatter, 0, n)
	for i, c := range ix.InclCols {
		if needed == nil || needed[c] {
			inclDst = append(inclDst, scatter{i, dstOff + c})
		}
	}
	return keyDst, inclDst
}

// outerCopyCols computes the outer-side column lists a join uses for one
// outer batch: read is the columns to gather from the outer batch per row
// (needed downstream and materialized), write is the columns to replicate
// into the join output (all needed, nil outNeeded = all). Needed columns
// the outer batch pruned are set to NULL in scratch once — never
// re-gathered, and written to the output as the NULLs a full row gather
// would have produced.
func outerCopyCols(ob *val.Batch, outerWidth int, outNeeded []bool, scratch val.Row, read, write []int) (r, w []int) {
	read, write = read[:0], write[:0]
	for c := 0; c < outerWidth; c++ {
		if outNeeded != nil && !outNeeded[c] {
			continue
		}
		write = append(write, c)
		if ob.HasCol(c) {
			read = append(read, c)
		} else {
			scratch[c] = val.Value{}
		}
	}
	return read, write
}

// ---- dual (FROM-less SELECT) ----

type dualNode struct{}

func (dualNode) Columns() []ColRef { return nil }
func (dualNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	emit, done := mk(0)
	b := val.NewBatch(0)
	b.Grow()
	return finish(emit(b), done)
}
func (dualNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	sb.WriteString("ConstantScan\n")
}

// ---- heap scan ----

// scanNode is a (possibly parallel, possibly sharded) sequential scan of a
// base table heap with an optional pushed-down filter: Figure 11's
// "parallel table scan … evaluating the predicate on each of the 14M
// objects". Each worker decodes page-worth record slices into its own
// batch, filters it with the vectorized predicate, and pushes it into its
// own downstream sink, so decode, predicate evaluation and everything
// above up to the first operator that asks for one stream stay parallel.
type scanNode struct {
	table  *Table
	cols   []ColRef
	needed []bool
	filter *compiledPred
	label  string // filter text for EXPLAIN

	// Shard routing, set by the planner when the table shards and the
	// pushed predicate bounds the htmID routing column. The bound exprs
	// are constants/parameters compiled against the empty scope, so the
	// route re-derives per execution from the bound parameter vector;
	// routeStatic is the compile-time (first-seen params) shard count for
	// EXPLAIN. The pushed predicate stays in filter — routing only prunes
	// pages, never rows — so a conservative route is always correct.
	routeLo     compiledExpr // nil = unbounded below
	routeLoIncl bool
	routeHi     compiledExpr // nil = unbounded above
	routeHiIncl bool
	routeStatic int
}

func (s *scanNode) Columns() []ColRef { return s.cols }

// routedShards evaluates the route bounds against the execution's
// parameters and intersects the resulting HTM interval with the shard
// ranges. nil means all shards (no usable bounds); an empty slice means
// the bounds are contradictory and nothing needs scanning. Evaluation
// errors and non-integer bounds conservatively route everywhere.
func (s *scanNode) routedShards(ctx *ExecCtx) []int {
	if s.table.ShardCount() == 1 || (s.routeLo == nil && s.routeHi == nil) {
		return nil
	}
	lo, hi := uint64(0), uint64(math.MaxUint64)
	if s.routeLo != nil {
		v, err := s.routeLo(ctx, nil)
		if err != nil || v.K != val.KindInt {
			return nil
		}
		l := v.I
		if !s.routeLoIncl && l < math.MaxInt64 {
			l++
		}
		if l > 0 {
			lo = uint64(l)
		}
	}
	if s.routeHi != nil {
		v, err := s.routeHi(ctx, nil)
		if err != nil || v.K != val.KindInt {
			return nil
		}
		if v.I < 0 {
			return []int{}
		}
		hi = uint64(v.I)
		if s.routeHiIncl {
			hi++
		}
	}
	if hi <= lo {
		return []int{}
	}
	return s.table.shards.Plan().Route([]htm.Range{{Lo: lo, Hi: hi}})
}

// oneShard is the shard list of an unsharded table.
var oneShard = []int{0}

// shardRun is one shard's share of a scan: its workers are the global
// workers base … base+dop-1.
type shardRun struct {
	si, dop, base int
	err           error
}

// scanWorker is one global worker's private decode → filter → sink stage.
type scanWorker struct {
	s           *scanNode
	ctx         *ExecCtx
	batch       *val.Batch
	ar          *val.Arena
	sink        batchFn
	done        func() error
	rows, pages int64
}

// page decodes one heap page's records into the worker's batch, flushing
// downstream whenever it fills.
func (w *scanWorker) page(rids []storage.RID, recs [][]byte) error {
	w.pages++
	w.rows += int64(len(recs))
	if w.rows%4096 < int64(len(recs)) {
		if err := w.ctx.checkDeadline(); err != nil {
			return err
		}
	}
	width := len(w.s.table.Cols)
	for _, rec := range recs {
		idx := w.batch.Grow()
		if _, err := w.batch.DecodeInto(idx, 0, rec, width, w.s.needed); err != nil {
			return err
		}
		if w.batch.Full() {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush filters the worker's batch and pushes the survivors to its sink.
func (w *scanWorker) flush() error {
	return flushFiltered(w.ctx, w.batch, w.s.filter, w.ar, w.sink)
}

// Run scans the routed shards' heaps — the one heap of an unsharded table
// is the one-shard case of the same code. Every (shard, local worker) pair
// is one global worker under the sinkFactory contract: sinks and decode
// state are built sequentially up front, each shard's ScanBatchesCtx runs
// against its own scan pool, and after every shard joins cleanly the
// consumer finalizers run serially in global worker order — so partial
// aggregates and sorted runs merge in a deterministic order and sharded
// output stays byte-identical to single-shard. One shard runs inline on
// the caller; several fan out on one goroutine each under a shared
// cancelable context (one query's retry budget and deadline span all
// shards, and a failing shard stops its siblings).
func (s *scanNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	shards := oneShard
	g := s.table.shards
	if n := s.table.ShardCount(); n > 1 {
		shards = s.routedShards(ctx)
		spatial := shards != nil
		if !spatial {
			shards = make([]int, n)
			for i := range shards {
				shards[i] = i
			}
		}
		g.RecordRoute(shards, spatial)
	}
	runs := make([]shardRun, 0, len(shards))
	total := 0
	for _, si := range shards {
		// Upper bound on the workers the storage layer will start; its own
		// clamp only ever lowers dop further, leaving trailing global
		// workers idle — harmless, consumers accept workers with no rows.
		heap := s.table.heaps[si]
		dop := ctx.scanDOP(heap.NumVolumes())
		if pages := heap.Pages(); uint64(dop) > pages {
			dop = int(pages)
		}
		if dop > 0 {
			runs = append(runs, shardRun{si: si, dop: dop, base: total})
			total += dop
		}
	}
	if total == 0 {
		return nil
	}
	width := len(s.table.Cols)
	workers := make([]scanWorker, total)
	for i := range workers {
		sink, done := mk(i)
		workers[i] = scanWorker{
			s: s, ctx: ctx, sink: sink, done: done,
			batch: ctx.getBatch(width, val.BatchSize, s.needed),
			ar:    ctx.getArena(),
		}
	}
	if len(runs) == 1 {
		s.scanRun(ctx.queryCtx(), &runs[0], workers)
	} else {
		qctx, cancel := context.WithCancel(ctx.queryCtx())
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func(r *shardRun) {
				defer wg.Done()
				s.scanRun(qctx, r, workers)
				if r.err != nil {
					cancel()
				}
			}(&runs[i])
		}
		wg.Wait()
		cancel()
	}
	var rows int64
	for _, r := range runs {
		var pages int64
		for i := r.base; i < r.base+r.dop; i++ {
			w := &workers[i]
			w.batch.Release()
			w.ar.Release()
			rows += w.rows
			pages += w.pages
		}
		ctx.PagesScanned.Add(pages)
		if s.table.ShardCount() > 1 {
			g.AddPages(r.si, uint64(pages))
		}
	}
	ctx.RowsScanned.Add(rows)
	// Prefer real failures over context errors — with several shards our
	// own cancel induces those on the siblings of a failed one. The storage
	// scan loop surfaces raw context errors; report them as the engine's
	// query errors.
	var real []error
	var ctxErr error
	for _, r := range runs {
		switch {
		case r.err == nil:
		case errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded):
			ctxErr = r.err
		default:
			real = append(real, r.err)
		}
	}
	switch {
	case len(real) == 1:
		return real[0]
	case len(real) > 1:
		return errors.Join(real...)
	case ctxErr != nil:
		return mapCtxErr(ctxErr)
	}
	for i := range workers {
		if err := finish(nil, workers[i].done); err != nil {
			return err
		}
	}
	return nil
}

// scanRun scans one shard's heap with the run's slice of the workers, then
// drains each worker's residual rows — into its private sink, so the order
// shards finish in cannot affect the merged result.
func (s *scanNode) scanRun(qctx context.Context, r *shardRun, workers []scanWorker) {
	mine := workers[r.base : r.base+r.dop]
	r.err = s.table.heaps[r.si].ScanBatchesCtx(qctx, r.dop, func(lw int) (storage.RecBatchFunc, func() error) {
		return mine[lw].page, nil
	})
	for i := 0; i < len(mine) && r.err == nil; i++ {
		r.err = mine[i].flush()
	}
}

func (s *scanNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	dop := "parallel"
	fmt.Fprintf(sb, "TableScan(%s, %s", s.table.Name, dop)
	if n := s.table.ShardCount(); n > 1 {
		// Compile-time route under the first-seen parameters; executions
		// re-derive it from their own bindings.
		fmt.Fprintf(sb, ", Shards(%d/%d)", s.routeStatic, n)
	}
	if s.label != "" {
		fmt.Fprintf(sb, ", filter=%s", s.label)
	}
	sb.WriteString(")\n")
}

// ---- index scan / seek ----

// boundKind describes the upper bound of an index range.
type boundKind int

const (
	boundNone boundKind = iota
	boundInclusive
	boundExclusive
)

// indexScanNode seeks or scans a B-tree index. With an equality prefix it
// is an index seek; with no bounds but full coverage it is the
// covered-column scan that replaces the paper's tag tables (10–100× less
// data than the base table). Entries are assembled directly into a batch —
// covered columns alias the tree's stable entry storage, heap lookups
// decode into batch columns — and the residual filter runs vectorized per
// batch.
type indexScanNode struct {
	table *Table
	index *Index
	cols  []ColRef

	// Seek bounds: eq prefix values, then an optional range on the next
	// key column. All compiled against the empty scope (constants/vars).
	eqExprs []compiledExpr
	loExpr  compiledExpr
	loIncl  bool
	hiExpr  compiledExpr
	hiKind  boundKind

	covering bool
	needed   []bool // heap columns needed when not covering
	filter   *compiledPred
	label    string
	// estRows is the planner's dive-based cardinality estimate (−1 when
	// unknown), reused for join ordering. Under ordered it is the number
	// of entries the scan expects to visit before the top-k stops it.
	estRows float64
	// ordered is the n of the TOP n … ORDER BY this access feeds in the
	// ORDER BY's own order (0 = order not relied on). The first batch is
	// flushed at n+1 entries — the fewest that can decide the cut — and
	// the threshold doubles after every flush, so the top-k above stops a
	// non-covering seek after ~n bookmark lookups instead of a full batch
	// of them.
	ordered int
	// keyDst/inclDst are the compile-time scatter lists for covering
	// access (see buildScatter).
	keyDst, inclDst []scatter
}

func (s *indexScanNode) Columns() []ColRef { return s.cols }

func (s *indexScanNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	emit, done := mk(0)
	// Evaluate bounds. eq and lo share one backing row (lo is eq plus the
	// optional range start), so bound evaluation is a single allocation.
	bounds := make(val.Row, len(s.eqExprs), len(s.eqExprs)+1)
	for i, e := range s.eqExprs {
		v, err := e(ctx, nil)
		if err != nil {
			return err
		}
		bounds[i] = v
	}
	eq := bounds
	lo := bounds
	loOpen := false
	if s.loExpr != nil {
		v, err := s.loExpr(ctx, nil)
		if err != nil {
			return err
		}
		lo = append(lo, v)
		loOpen = !s.loIncl
	}
	var hiVal val.Value
	if s.hiExpr != nil {
		v, err := s.hiExpr(ctx, nil)
		if err != nil {
			return err
		}
		hiVal = v
	}
	width := len(s.table.Cols)
	var buf []byte
	if !s.covering {
		buf = storage.GetPageBuf()
		defer storage.PutPageBuf(buf)
	}
	// Small-result case: a seek whose plan-time dive proved a handful of
	// rows acquires the pool's small column class, so a plan that mixes a
	// tiny seek with full-size join and projection batches does not churn
	// 1,024-slot arrays through the shells (rent: ARCHITECTURE.md). If the
	// estimate undershoots, the first full small batch upgrades to
	// full-size ones.
	capacity := val.BatchSize
	if s.estRows >= 0 && s.estRows <= val.SmallBatchSize {
		capacity = val.SmallBatchSize
	}
	batch := ctx.getBatch(width, capacity, s.needed)
	defer func() { batch.Release() }()
	ar := ctx.getArena()
	defer ar.Release()
	keyDst, inclDst := s.keyDst, s.inclDst
	flushAt := 0 // full batches only
	if s.ordered > 0 {
		flushAt = s.ordered + 1
	}
	flush := func() error {
		wasFull := batch.Full()
		if err := flushFiltered(ctx, batch, s.filter, ar, emit); err != nil {
			return err
		}
		if wasFull && batch.Cap() < val.BatchSize {
			batch.Release()
			batch = ctx.getBatch(width, val.BatchSize, s.needed)
		}
		if flushAt < val.BatchSize {
			flushAt *= 2
		}
		return nil
	}
	rows := int64(0)
	var innerErr error
	it := s.index.tree.Seek(lo)
	for ; it.Valid(); it.Next() {
		e := it.Entry()
		rows++
		if rows%4096 == 0 {
			if err := ctx.checkDeadline(); err != nil {
				innerErr = err
				break
			}
		}
		// Check the equality prefix.
		if len(eq) > 0 {
			if e.Key[:len(eq)].Compare(eq) != 0 {
				break
			}
		}
		rangePos := len(eq)
		if s.loExpr != nil && loOpen {
			if e.Key[rangePos].Compare(lo[rangePos]) == 0 {
				continue
			}
		}
		if s.hiKind != boundNone {
			c := e.Key[rangePos].Compare(hiVal)
			if c > 0 || (c == 0 && s.hiKind == boundExclusive) {
				break
			}
		}
		if s.covering {
			idx := batch.Grow()
			for _, sc := range keyDst {
				batch.Put(sc.dst, idx, e.Key[sc.src])
			}
			for _, sc := range inclDst {
				batch.Put(sc.dst, idx, e.Incl[sc.src])
			}
		} else {
			rec, err := s.table.GetRec(storage.RID(e.RID), buf)
			if err != nil {
				innerErr = err
				break
			}
			idx := batch.Grow()
			if _, err := batch.DecodeInto(idx, 0, rec, width, s.needed); err != nil {
				innerErr = err
				break
			}
		}
		if batch.Full() || batch.Size() == flushAt {
			// A seek that pays a heap fetch per entry can spend a long
			// time between the 4,096-entry polls above; poll per batch.
			if innerErr = ctx.checkDeadline(); innerErr != nil {
				break
			}
			if innerErr = flush(); innerErr != nil {
				break
			}
		}
	}
	if innerErr == nil {
		innerErr = flush()
	}
	ctx.RowsScanned.Add(rows)
	return finish(innerErr, done)
}

func (s *indexScanNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	kind := "IndexScan"
	if len(s.eqExprs) > 0 || s.loExpr != nil || s.hiExpr != nil {
		kind = "IndexSeek"
	}
	fmt.Fprintf(sb, "%s(%s.%s", kind, s.table.Name, s.index.Name)
	if s.ordered > 0 {
		sb.WriteString(", ordered")
	}
	if s.covering {
		sb.WriteString(", covering")
	}
	if s.label != "" {
		fmt.Fprintf(sb, ", filter=%s", s.label)
	}
	sb.WriteString(")\n")
}

// ---- table-valued function ----

type tvfNode struct {
	fn    *TableFunc
	args  []compiledExpr
	cols  []ColRef
	label string
}

func (t *tvfNode) Columns() []ColRef { return t.cols }

func (t *tvfNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	emit, done := mk(0)
	args := make([]val.Value, len(t.args))
	for i, a := range t.args {
		v, err := a(ctx, nil)
		if err != nil {
			return err
		}
		args[i] = v
	}
	// The function streams val.Batch directly — no []val.Row
	// materialization between the function and the plan.
	return finish(t.fn.Fn(ctx, args, TVFEmit(emit)), done)
}

func (t *tvfNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	fmt.Fprintf(sb, "TableValuedFunction(%s(%s), estRows=%d)\n", t.fn.Name, t.label, t.fn.EstRows)
}

// ---- temp (memory) table scan ----

type memScanNode struct {
	mem    *MemTable
	cols   []ColRef
	filter *compiledPred
	label  string
}

func (m *memScanNode) Columns() []ColRef { return m.cols }

func (m *memScanNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	emit, done := mk(0)
	batch := ctx.getBatch(len(m.cols), len(m.mem.Rows), nil)
	defer batch.Release()
	ar := ctx.getArena()
	defer ar.Release()
	flush := func() error { return flushFiltered(ctx, batch, m.filter, ar, emit) }
	for i, row := range m.mem.Rows {
		if i%4096 == 4095 {
			if err := ctx.checkDeadline(); err != nil {
				return err
			}
		}
		batch.AppendRow(row)
		if batch.Full() {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return finish(flush(), done)
}

func (m *memScanNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	fmt.Fprintf(sb, "TempTableScan(%s", m.mem.Name)
	if m.label != "" {
		fmt.Fprintf(sb, ", filter=%s", m.label)
	}
	sb.WriteString(")\n")
}

// ---- joins ----

// indexJoinNode is the nested-loop join of Figure 10 and Figure 12: for each
// outer row, probe the inner table's index with key values computed from the
// outer row, then evaluate the residual predicate on the combined row.
// Matches accumulate into a combined-width batch — preallocated once from
// the pool with the planner-computed combined needed-column mask, so probe
// output assembly is direct column writes with no per-probe lazy-column
// branches — that the residual filters vectorized before each emit.
type indexJoinNode struct {
	outer Node
	inner *Table
	index *Index
	cols  []ColRef

	probeExprs []compiledExpr // one per leading index key column, over outer row
	innerWidth int
	covering   bool
	needed     []bool // inner columns needed downstream (nil = all)
	// outNeeded marks the combined-width output columns any downstream
	// expression reads (nil = all): the planner's per-source needed masks
	// concatenated in join order. The output batch materializes exactly
	// these columns up front.
	outNeeded []bool
	residual  *compiledPred // over combined row
	label     string
	// keyDst/inclDst are the compile-time scatter lists for covering
	// probes, already shifted past the outer width (see buildScatter).
	keyDst, inclDst []scatter
}

func (j *indexJoinNode) Columns() []ColRef { return j.cols }

func (j *indexJoinNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	emit, done := mk(0)
	var buf []byte
	if !j.covering {
		buf = storage.GetPageBuf()
		defer storage.PutPageBuf(buf)
	}
	outerWidth := len(j.cols) - j.innerWidth
	out := ctx.getBatch(len(j.cols), val.BatchSize, j.outNeeded)
	defer out.Release()
	ar := ctx.getArena()
	defer ar.Release()
	// outerScratch is the sparse row gather the probe expressions and the
	// output copy read: only the columns downstream needs are filled per
	// row, the rest stay NULL — a covering-scan outer of the ~220-column
	// PhotoObj gathers its three needed columns, not 220. It shares one
	// backing allocation with the probe key row.
	scratchBuf := make(val.Row, outerWidth+len(j.probeExprs))
	outerScratch := scratchBuf[:outerWidth:outerWidth]
	key := scratchBuf[outerWidth:]
	flush := func() error { return flushFiltered(ctx, out, j.residual, ar, emit) }
	keyDst, inclDst := j.keyDst, j.inclDst
	// Outer gather/replicate lists, recomputed per batch into one reused
	// backing array sized for the worst case (every outer column in both).
	colListBuf := make([]int, 0, 2*outerWidth)
	readCols := colListBuf[:0:outerWidth]
	writeCols := colListBuf[outerWidth : outerWidth : 2*outerWidth]
	err := j.outer.Run(ctx, serialSink(ctx, func(ob *val.Batch) error {
		readCols, writeCols = outerCopyCols(ob, outerWidth, j.outNeeded, outerScratch, readCols, writeCols)
		probed := int64(0)
		sel := ob.Sel()
		for k, n := 0, ob.Len(); k < n; k++ {
			oi := k
			if sel != nil {
				oi = sel[k]
			}
			for _, c := range readCols {
				outerScratch[c] = ob.Col(c)[oi]
			}
			for i, pe := range j.probeExprs {
				v, err := pe(ctx, outerScratch)
				if err != nil {
					return err
				}
				key[i] = v
			}
			it := j.index.tree.Seek(key)
			for ; it.Valid(); it.Next() {
				e := it.Entry()
				if e.Key[:len(key)].Compare(key) != 0 {
					break
				}
				probed++
				idx := out.Grow()
				for _, c := range writeCols {
					out.Col(c)[idx] = outerScratch[c]
				}
				if j.covering {
					for _, sc := range keyDst {
						out.Col(sc.dst)[idx] = e.Key[sc.src]
					}
					for _, sc := range inclDst {
						out.Col(sc.dst)[idx] = e.Incl[sc.src]
					}
				} else {
					rec, err := j.inner.GetRec(storage.RID(e.RID), buf)
					if err != nil {
						return err
					}
					if _, err := out.DecodeInto(idx, outerWidth, rec, j.innerWidth, j.needed); err != nil {
						return err
					}
				}
				if out.Full() {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		ctx.RowsScanned.Add(probed)
		return nil
	}))
	if err == nil {
		err = flush()
	}
	return finish(err, done)
}

func (j *indexJoinNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	fmt.Fprintf(sb, "NestedLoopJoin(probe %s via %s", j.inner.Name, j.index.Name)
	if j.covering {
		sb.WriteString(", covering")
	}
	if j.label != "" {
		fmt.Fprintf(sb, ", residual=%s", j.label)
	}
	sb.WriteString(")\n")
	j.outer.explainTo(sb, depth+1)
	indent(sb, depth+1)
	fmt.Fprintf(sb, "IndexSeek(%s.%s, per outer row)\n", j.inner.Name, j.index.Name)
}

// nlJoinNode materializes its inner input once, then nested-loops the outer
// against it — the fallback when no index probe applies (the paper's
// "without the index the query takes about 10 minutes — a nested-loops join
// of two table scans").
type nlJoinNode struct {
	outer Node
	inner Node
	cols  []ColRef
	// outNeeded marks the combined-width output columns downstream reads
	// (nil = all); see indexJoinNode.outNeeded.
	outNeeded []bool
	cond      *compiledPred
	label     string
}

func (j *nlJoinNode) Columns() []ColRef { return j.cols }

func (j *nlJoinNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	emit, done := mk(0)
	innerWidth := len(j.inner.Columns())
	store := ctx.getRowStore(innerWidth)
	defer store.Release()
	if err := j.inner.Run(ctx, serialSink(ctx, func(b *val.Batch) error {
		b.Each(func(i int) { b.RowAt(i, store.NewRow()) })
		return nil
	})); err != nil {
		return err
	}
	innerRows := store.Rows()
	outerWidth := len(j.cols) - innerWidth
	rows := int64(0)
	out := ctx.getBatch(len(j.cols), val.BatchSize, j.outNeeded)
	defer out.Release()
	ar := ctx.getArena()
	defer ar.Release()
	outerScratch := make(val.Row, outerWidth)
	colListBuf := make([]int, 0, 2*outerWidth)
	// Inner columns downstream reads; the rest of the materialized row is
	// dropped here instead of being copied through the plan.
	var innerCols []int
	for c := 0; c < innerWidth; c++ {
		if j.outNeeded == nil || j.outNeeded[outerWidth+c] {
			innerCols = append(innerCols, c)
		}
	}
	flush := func() error { return flushFiltered(ctx, out, j.cond, ar, emit) }
	readCols := colListBuf[:0:outerWidth]
	writeCols := colListBuf[outerWidth : outerWidth : 2*outerWidth]
	err := j.outer.Run(ctx, serialSink(ctx, func(ob *val.Batch) error {
		readCols, writeCols = outerCopyCols(ob, outerWidth, j.outNeeded, outerScratch, readCols, writeCols)
		sel := ob.Sel()
		for k, n := 0, ob.Len(); k < n; k++ {
			oi := k
			if sel != nil {
				oi = sel[k]
			}
			for _, c := range readCols {
				outerScratch[c] = ob.Col(c)[oi]
			}
			for _, ir := range innerRows {
				rows++
				if rows%8192 == 0 {
					if err := ctx.checkDeadline(); err != nil {
						return err
					}
				}
				idx := out.Grow()
				for _, c := range writeCols {
					out.Col(c)[idx] = outerScratch[c]
				}
				for _, c := range innerCols {
					out.Col(outerWidth + c)[idx] = ir[c]
				}
				if out.Full() {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}))
	if err == nil {
		err = flush()
	}
	ctx.RowsScanned.Add(rows)
	return finish(err, done)
}

func (j *nlJoinNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	sb.WriteString("NestedLoopJoin(materialized inner")
	if j.label != "" {
		fmt.Fprintf(sb, ", cond=%s", j.label)
	}
	sb.WriteString(")\n")
	j.outer.explainTo(sb, depth+1)
	j.inner.explainTo(sb, depth+1)
}

// ---- filter ----

type filterNode struct {
	child Node
	cond  *compiledPred
	label string
}

func (f *filterNode) Columns() []ColRef { return f.child.Columns() }

// Run evaluates the predicate in each worker with a private arena and
// passes the per-worker sinks straight through — a filter holds no
// cross-batch state, so it never needs a serialization point.
func (f *filterNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	return f.child.Run(ctx, func(worker int) (batchFn, func() error) {
		ar := own(ctx, ctx.getArena())
		sink, done := mk(worker)
		return func(b *val.Batch) error {
			if err := f.cond.filter(ctx, b, ar); err != nil {
				return err
			}
			if b.Len() == 0 {
				return nil
			}
			return sink(b)
		}, done
	})
}

func (f *filterNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	fmt.Fprintf(sb, "Filter(%s)\n", f.label)
	f.child.explainTo(sb, depth+1)
}

// ---- aggregation ----

type aggSpec struct {
	name string // count, sum, avg, min, max
	arg  *compiledVec
}

// aggNode computes GROUP BY aggregation in one pass over its input as a
// two-phase partial+merge: each scan worker accumulates into a private
// aggPartial (no lock anywhere on the per-row path), and after the workers
// join, a serial merge combines the partials — COUNT/SUM add, MIN/MAX
// compare, AVG merges sum+count — preserving first-seen group order.
// Output columns are the group-by expressions followed by the aggregates.
// Group keys and aggregate arguments are evaluated vectorized per batch;
// only the hash-table probe remains per-row. A global aggregate (no GROUP
// BY) skips the hash table entirely and COUNT(*) folds a whole batch at a
// time.
type aggNode struct {
	child     Node
	cols      []ColRef
	groupBy   []*compiledVec
	aggs      []aggSpec
	keyLabels []string
	aggLabels []string
}

type aggState struct {
	key    val.Row
	counts []int64
	sums   []float64
	mins   []val.Value
	maxs   []val.Value
	seen   []bool
}

// aggAlloc carves aggregation states out of chunked slabs, so a grouped
// aggregate with thousands of groups (Q13's sky grid) pays a handful of
// allocations per 256 groups instead of six per group. The first slab is
// retained across pooled reuse (see reset/recycle): a repeated query shape
// with up to aggChunk groups per worker carves all its states without
// allocating. Overflow slabs stay plain allocations dropped to the GC.
type aggAlloc struct {
	nAgg, nKey int
	states     []aggState
	counts     []int64
	sums       []float64
	mins       []val.Value
	maxs       []val.Value
	seen       []bool
	keys       []val.Value
	slab0      *aggSlab
}

// aggSlab is one chunk's full backing, kept addressable so recycle can
// zero it and reset can re-point the carve lists at it.
type aggSlab struct {
	states []aggState
	counts []int64
	sums   []float64
	mins   []val.Value
	maxs   []val.Value
	seen   []bool
	keys   []val.Value
}

const aggChunk = 256

// reset prepares the alloc for a new aggregation of the given shape,
// re-pointing the carve lists at the retained (already zeroed) first slab
// when the shape matches; a shape change drops it and the next get
// reallocates.
func (s *aggAlloc) reset(nAgg, nKey int) {
	chunk := aggChunk
	if nKey == 0 {
		chunk = 1
	}
	if s.slab0 != nil && (s.nAgg != nAgg || s.nKey != nKey || len(s.slab0.states) != chunk) {
		s.slab0 = nil
	}
	s.nAgg, s.nKey = nAgg, nKey
	if sl := s.slab0; sl != nil {
		s.states, s.counts, s.sums = sl.states, sl.counts, sl.sums
		s.mins, s.maxs, s.seen, s.keys = sl.mins, sl.maxs, sl.seen, sl.keys
	}
}

// recycle zeroes the retained first slab — min/max and key Values there
// may pin producer blob backing — and drops the carve lists, so overflow
// slabs are released to the GC.
func (s *aggAlloc) recycle() {
	if sl := s.slab0; sl != nil {
		clear(sl.states)
		clear(sl.counts)
		clear(sl.sums)
		clear(sl.mins)
		clear(sl.maxs)
		clear(sl.seen)
		clear(sl.keys)
	}
	s.states, s.counts, s.sums = nil, nil, nil
	s.mins, s.maxs, s.seen, s.keys = nil, nil, nil, nil
}

// get carves one state, copying the group key into slab-backed storage.
// Key Values are copied shallowly: their string/blob backing is immutable
// producer-fresh memory (the batch contract), never recycled.
func (s *aggAlloc) get(key val.Row) *aggState {
	if len(s.states) == 0 {
		chunk := aggChunk
		if s.nKey == 0 {
			// A global aggregate has exactly one state.
			chunk = 1
		}
		sl := &aggSlab{
			states: make([]aggState, chunk),
			counts: make([]int64, chunk*s.nAgg),
			sums:   make([]float64, chunk*s.nAgg),
			mins:   make([]val.Value, chunk*s.nAgg),
			maxs:   make([]val.Value, chunk*s.nAgg),
			seen:   make([]bool, chunk*s.nAgg),
			keys:   make([]val.Value, chunk*s.nKey),
		}
		if s.slab0 == nil {
			s.slab0 = sl
		}
		s.states, s.counts, s.sums = sl.states, sl.counts, sl.sums
		s.mins, s.maxs, s.seen, s.keys = sl.mins, sl.maxs, sl.seen, sl.keys
	}
	st := &s.states[0]
	s.states = s.states[1:]
	n := s.nAgg
	st.counts, s.counts = s.counts[:n:n], s.counts[n:]
	st.sums, s.sums = s.sums[:n:n], s.sums[n:]
	st.mins, s.mins = s.mins[:n:n], s.mins[n:]
	st.maxs, s.maxs = s.maxs[:n:n], s.maxs[n:]
	st.seen, s.seen = s.seen[:n:n], s.seen[n:]
	if k := s.nKey; k > 0 {
		st.key, s.keys = val.Row(s.keys[:k:k]), s.keys[k:]
		copy(st.key, key)
	}
	return st
}

// add accumulates one non-COUNT(*) argument value into aggregate ai.
func (st *aggState) add(ai int, v val.Value) {
	if v.IsNull() {
		return
	}
	st.counts[ai]++
	if f, ok := v.AsFloat(); ok {
		st.sums[ai] += f
	}
	if !st.seen[ai] {
		st.mins[ai], st.maxs[ai] = v, v
		st.seen[ai] = true
	} else {
		if v.Compare(st.mins[ai]) < 0 {
			st.mins[ai] = v
		}
		if v.Compare(st.maxs[ai]) > 0 {
			st.maxs[ai] = v
		}
	}
}

// merge folds another worker's state for the same group into st: counts
// and sums add (which also merges AVG, rendered as sum/count at output),
// min/max compare. Commutative, so worker merge order only affects
// float rounding the same way arrival order already does.
func (st *aggState) merge(o *aggState) {
	for ai := range st.counts {
		st.counts[ai] += o.counts[ai]
		st.sums[ai] += o.sums[ai]
		if !o.seen[ai] {
			continue
		}
		if !st.seen[ai] {
			st.mins[ai], st.maxs[ai] = o.mins[ai], o.maxs[ai]
			st.seen[ai] = true
			continue
		}
		if o.mins[ai].Compare(st.mins[ai]) < 0 {
			st.mins[ai] = o.mins[ai]
		}
		if o.maxs[ai].Compare(st.maxs[ai]) > 0 {
			st.maxs[ai] = o.maxs[ai]
		}
	}
}

// groupTable maps encoded group keys to aggregation states with an
// open-addressed, power-of-two table whose key bytes live in one retained
// slab. Unlike a map[string]*aggState it allocates nothing per group in
// the steady state — the string copy a Go map insertion forces was a
// per-group-per-query allocation that per-worker partials would have
// multiplied by the scan dop.
type groupTable struct {
	slots []groupSlot
	keys  []byte // slab of concatenated key encodings
	n     int
}

// groupSlot is one table entry; st == nil marks it empty.
type groupSlot struct {
	hash     uint64
	off, end int32 // key bytes in the slab
	st       *aggState
}

const minGroupSlots = 64

// hashKey is FNV-1a over the encoded key.
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// lookup returns the state stored under the encoded key, or nil.
func (t *groupTable) lookup(h uint64, key []byte) *aggState {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.st == nil {
			return nil
		}
		if s.hash == h && string(t.keys[s.off:s.end]) == string(key) {
			return s.st
		}
	}
}

// insert stores a state under an encoded key that must not be present.
func (t *groupTable) insert(h uint64, key []byte, st *aggState) {
	if t.n+1 > len(t.slots)*3/4 {
		t.grow()
	}
	off := int32(len(t.keys))
	t.keys = append(t.keys, key...)
	t.place(groupSlot{hash: h, off: off, end: int32(len(t.keys)), st: st})
	t.n++
}

func (t *groupTable) place(s groupSlot) {
	mask := uint64(len(t.slots) - 1)
	i := s.hash & mask
	for t.slots[i].st != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

func (t *groupTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < minGroupSlots {
		size = minGroupSlots
	}
	t.slots = make([]groupSlot, size)
	for i := range old {
		if old[i].st != nil {
			t.place(old[i])
		}
	}
}

// reset empties the table keeping its backing (slots stay at their grown
// size, the key slab keeps its capacity) and drops the state pointers so
// pooled reuse does not pin the previous query's slabs.
func (t *groupTable) reset() {
	clear(t.slots)
	t.keys = t.keys[:0]
	t.n = 0
}

// aggPartial is one worker's private aggregation state: hash table, state
// slabs, evaluated key/argument vectors, and kernel arena. Nothing in it
// is shared, so the per-row accumulation path takes no lock. Partials
// recycle through a sync.Pool with their table and first slab attached —
// the zero-allocation steady state the serialized aggregate already had.
type aggPartial struct {
	alloc      aggAlloc
	tab        groupTable
	order      []*aggState // first-seen order within this worker
	global     *aggState   // the one state of a global (no GROUP BY) aggregate
	keyBufs    [][]val.Value
	argBufs    [][]val.Value
	keyScratch val.Row
	keyEnc     []byte
	ar         *val.Arena
	pooled     bool
	// The run the partial is bound to, and absorb as that run's per-worker
	// sink — bound once at creation, so a pooled partial costs its worker
	// no closure.
	ctx  *ExecCtx
	node *aggNode
	sink batchFn
}

func newAggPartial(pooled bool) *aggPartial {
	p := &aggPartial{pooled: pooled}
	p.sink = p.absorb
	return p
}

var aggPartialPool = sync.Pool{New: func() any { return newAggPartial(true) }}

// getAggPartial acquires a worker partial shaped for the aggregation:
// pooled unless DisablePooling.
func getAggPartial(ctx *ExecCtx, a *aggNode) *aggPartial {
	var p *aggPartial
	if ctx.DisablePooling {
		p = newAggPartial(false)
	} else {
		p = aggPartialPool.Get().(*aggPartial)
	}
	p.ctx, p.node = ctx, a
	nAgg, nKey := len(a.aggs), len(a.groupBy)
	p.alloc.reset(nAgg, nKey)
	if cap(p.keyBufs) < nKey {
		p.keyBufs = make([][]val.Value, nKey)
	} else {
		p.keyBufs = p.keyBufs[:nKey]
	}
	if cap(p.argBufs) < nAgg {
		p.argBufs = make([][]val.Value, nAgg)
	} else {
		p.argBufs = p.argBufs[:nAgg]
	}
	if cap(p.keyScratch) < nKey {
		p.keyScratch = make(val.Row, nKey)
	} else {
		p.keyScratch = p.keyScratch[:nKey]
	}
	p.global = nil
	if nKey == 0 {
		p.global = p.alloc.get(nil)
	}
	p.ar = ctx.getArena()
	return p
}

// release zeroes everything that could pin producer memory — slab Values,
// evaluated vectors, table state pointers — and pools the partial.
func (p *aggPartial) release() {
	if p.ar != nil {
		p.ar.Release()
		p.ar = nil
	}
	p.global = nil
	p.ctx, p.node = nil, nil
	if !p.pooled {
		return
	}
	p.alloc.recycle()
	p.tab.reset()
	for i := range p.keyBufs {
		clear(p.keyBufs[i][:cap(p.keyBufs[i])])
	}
	for i := range p.argBufs {
		clear(p.argBufs[i][:cap(p.argBufs[i])])
	}
	clear(p.keyScratch[:cap(p.keyScratch)])
	o := p.order[:cap(p.order)]
	clear(o)
	p.order = o[:0]
	aggPartialPool.Put(p)
}

// absorb folds one batch into the partial — the per-row path of the
// parallel aggregate, run lock-free on the worker that produced the batch.
func (p *aggPartial) absorb(b *val.Batch) error {
	ctx, a := p.ctx, p.node
	cnt := b.Len()
	if cnt == 0 {
		return nil
	}
	for gi, g := range a.groupBy {
		buf, err := g.appendTo(ctx, b, p.ar, p.keyBufs[gi][:0])
		if err != nil {
			return err
		}
		p.keyBufs[gi] = buf
	}
	for ai := range a.aggs {
		if a.aggs[ai].arg == nil {
			continue
		}
		buf, err := a.aggs[ai].arg.appendTo(ctx, b, p.ar, p.argBufs[ai][:0])
		if err != nil {
			return err
		}
		p.argBufs[ai] = buf
	}
	if p.global != nil {
		st := p.global
		for ai := range a.aggs {
			if a.aggs[ai].arg == nil { // COUNT(*)
				st.counts[ai] += int64(cnt)
				continue
			}
			for _, v := range p.argBufs[ai][:cnt] {
				st.add(ai, v)
			}
		}
		return nil
	}
	for k := 0; k < cnt; k++ {
		for gi := range p.keyBufs {
			p.keyScratch[gi] = p.keyBufs[gi][k]
		}
		p.keyEnc = val.AppendRow(p.keyEnc[:0], p.keyScratch)
		h := hashKey(p.keyEnc)
		st := p.tab.lookup(h, p.keyEnc)
		if st == nil {
			st = p.alloc.get(p.keyScratch)
			p.tab.insert(h, p.keyEnc, st)
			p.order = append(p.order, st)
		}
		for ai := range a.aggs {
			if a.aggs[ai].arg == nil {
				st.counts[ai]++
				continue
			}
			st.add(ai, p.argBufs[ai][k])
		}
	}
	return nil
}

// merge folds another worker's partial into p, appending groups p has not
// seen in that worker's first-seen order. Values copied out of o remain
// valid after o's slabs are recycled — Value structs carry their own
// backing pointers, and that backing is never reused.
func (p *aggPartial) merge(o *aggPartial) {
	if p.global != nil {
		p.global.merge(o.global)
		return
	}
	for _, ost := range o.order {
		p.keyEnc = val.AppendRow(p.keyEnc[:0], ost.key)
		h := hashKey(p.keyEnc)
		st := p.tab.lookup(h, p.keyEnc)
		if st == nil {
			st = p.alloc.get(ost.key)
			p.tab.insert(h, p.keyEnc, st)
			p.order = append(p.order, st)
		}
		st.merge(ost)
	}
}

func (a *aggNode) Columns() []ColRef { return a.cols }

func (a *aggNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	nGroup := len(a.groupBy)
	// Partial phase: one private partial per scan worker, acquired in the
	// sequential sinkFactory call, filled lock-free on that worker.
	parts := make([]*aggPartial, 0, 8)
	defer func() {
		for _, p := range parts {
			p.release()
		}
	}()
	err := a.child.Run(ctx, func(worker int) (batchFn, func() error) {
		p := getAggPartial(ctx, a)
		parts = append(parts, p)
		return p.sink, nil
	})
	if err != nil {
		return err
	}
	// Merge phase, serial in worker order: workers have all joined, so the
	// partials are quiescent. A producer with no workers (a zero-page scan)
	// never calls the factory; a global aggregate must still emit its one
	// (zero-count) row.
	if len(parts) == 0 {
		parts = append(parts, getAggPartial(ctx, a))
	}
	root := parts[0]
	for _, p := range parts[1:] {
		root.merge(p)
	}
	// Output states in first-seen order; a global aggregate (even over
	// zero rows) yields exactly its one state.
	nOut := len(root.order)
	if nGroup == 0 {
		nOut = 1
	}
	emit, done := mk(0)
	out := ctx.getBatch(len(a.cols), nOut, nil)
	defer out.Release()
	for oi := 0; oi < nOut; oi++ {
		st := root.global
		if nGroup > 0 {
			st = root.order[oi]
		}
		idx := out.Grow()
		for gi := range st.key {
			out.Col(gi)[idx] = st.key[gi]
		}
		for ai, ag := range a.aggs {
			var v val.Value
			switch ag.name {
			case "count":
				v = val.Int(st.counts[ai])
			case "sum":
				if st.counts[ai] > 0 {
					v = val.Float(st.sums[ai])
				}
			case "avg":
				if st.counts[ai] > 0 {
					v = val.Float(st.sums[ai] / float64(st.counts[ai]))
				}
			case "min":
				if st.seen[ai] {
					v = st.mins[ai]
				}
			case "max":
				if st.seen[ai] {
					v = st.maxs[ai]
				}
			default:
				return fmt.Errorf("sql: unknown aggregate %s", ag.name)
			}
			out.Col(nGroup + ai)[idx] = v
		}
		if out.Full() {
			if err := emit(out); err != nil {
				return err
			}
			out.Reset()
		}
	}
	if out.Size() > 0 {
		return finish(emit(out), done)
	}
	return finish(nil, done)
}

func (a *aggNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	fmt.Fprintf(sb, "PartialAgg→MergeAgg(groupBy=[%s], aggs=[%s])\n",
		strings.Join(a.keyLabels, ", "), strings.Join(a.aggLabels, ", "))
	a.child.explainTo(sb, depth+1)
}

// ---- projection ----

// projectNode computes the SELECT list (plus hidden ORDER BY keys appended
// after the visible columns for the sort node to use). Each output column
// is computed for the whole input batch at once — vectorized when the
// expression shape allows, gathered row-at-a-time otherwise — into a dense
// output batch.
type projectNode struct {
	child  Node
	cols   []ColRef // visible columns only
	exprs  []*compiledVec
	hidden []*compiledVec
	labels []string
}

func (p *projectNode) Columns() []ColRef { return p.cols }

// Run computes the projection in each worker with a private output batch
// and arena; the expression kernels are compile-time immutable, so sharing
// them across workers is safe.
func (p *projectNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	width := len(p.exprs) + len(p.hidden)
	return p.child.Run(ctx, func(worker int) (batchFn, func() error) {
		out := own(ctx, ctx.getBatch(width, val.BatchSize, nil))
		ar := own(ctx, ctx.getArena())
		sink, done := mk(worker)
		return func(b *val.Batch) error {
			if b.Len() == 0 {
				return nil
			}
			out.Reset()
			for j, e := range p.exprs {
				col, err := e.appendTo(ctx, b, ar, out.ColBuf(j))
				if err != nil {
					return err
				}
				out.SetColumn(j, col)
			}
			for j, e := range p.hidden {
				col, err := e.appendTo(ctx, b, ar, out.ColBuf(len(p.exprs)+j))
				if err != nil {
					return err
				}
				out.SetColumn(len(p.exprs)+j, col)
			}
			out.SetSize(b.Len())
			return sink(out)
		}, done
	})
}

func (p *projectNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	fmt.Fprintf(sb, "Project(%s)\n", strings.Join(p.labels, ", "))
	p.child.explainTo(sb, depth+1)
}

// ---- distinct ----

type distinctNode struct {
	child Node
}

func (d *distinctNode) Columns() []ColRef { return d.child.Columns() }

func (d *distinctNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	emit, done := mk(0)
	seen := make(map[string]bool)
	var keyEnc []byte
	var scratch val.Row
	err := d.child.Run(ctx, serialSink(ctx, func(b *val.Batch) error {
		if scratch == nil {
			scratch = make(val.Row, b.Width())
		}
		keep := b.SelScratch()
		b.Each(func(i int) {
			keyEnc = val.AppendRow(keyEnc[:0], b.RowAt(i, scratch))
			if !seen[string(keyEnc)] {
				seen[string(keyEnc)] = true
				keep = append(keep, i)
			}
		})
		b.SetSel(keep)
		if b.Len() == 0 {
			return nil
		}
		return emit(b)
	}))
	return finish(err, done)
}

func (d *distinctNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	sb.WriteString("Distinct\n")
	d.child.explainTo(sb, depth+1)
}

// ---- sort ----

// sortNode is the "sorted and inserted into the results table" tail of
// Figure 10, parallelized as a run sort: each scan worker materializes its
// rows into a private pooled RowStore run, the runs are sorted
// concurrently, and a k-way loser-tree merge streams them into pooled
// output batches in global order (stripping hidden columns). The
// comparator is the total order of rowLess, so the result is identical
// whatever order the workers delivered rows in.
type sortNode struct {
	child    Node
	keyPos   []int
	desc     []bool
	visible  int // columns to keep after sorting
	keyLabel string
}

func (s *sortNode) Columns() []ColRef { return s.child.Columns() }

// sortInputWidth is the width of the rows a sort or top-k consumes: the
// visible columns plus the hidden ORDER BY keys (child.Columns() reports
// only the visible schema; every hidden column has a keyPos entry).
func sortInputWidth(visible int, keyPos []int) int {
	width := visible
	for _, p := range keyPos {
		if p+1 > width {
			width = p + 1
		}
	}
	return width
}

func (s *sortNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	width := sortInputWidth(s.visible, s.keyPos)
	stores := make([]*val.RowStore, 0, 8)
	defer func() {
		for _, st := range stores {
			st.Release()
		}
	}()
	err := s.child.Run(ctx, func(worker int) (batchFn, func() error) {
		store := ctx.getRowStore(width)
		stores = append(stores, store)
		return func(b *val.Batch) error {
			b.Each(func(i int) { b.RowAt(i, store.NewRow()) })
			return nil
		}, nil
	})
	if err != nil {
		return err
	}
	runs := make([][]val.Row, 0, len(stores))
	total := 0
	for _, st := range stores {
		if rows := st.Rows(); len(rows) > 0 {
			runs = append(runs, rows)
			total += len(rows)
		}
	}
	if err := sortRuns(ctx, runs, s.keyPos, s.desc); err != nil {
		return err
	}
	capacity := total
	if capacity > val.BatchSize {
		capacity = val.BatchSize
	}
	emit, done := mk(0)
	out := ctx.getBatch(s.visible, capacity, nil)
	defer out.Release()
	err = mergeRuns(runs, s.keyPos, s.desc, func(r val.Row) error {
		out.AppendRow(r[:s.visible])
		if out.Full() {
			if err := ctx.checkDeadline(); err != nil {
				return err
			}
			if err := emit(out); err != nil {
				return err
			}
			out.Reset()
		}
		return nil
	})
	if err == nil && out.Size() > 0 {
		err = emit(out)
	}
	return finish(err, done)
}

func (s *sortNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	// k resolves at runtime (the scan dop); the plan is immutable and
	// shared across sessions, so EXPLAIN names the shape, not the count.
	fmt.Fprintf(sb, "Sort(%s, runs=k)\n", s.keyLabel)
	s.child.explainTo(sb, depth+1)
}

// sortRuns orders every run with the total-order comparator, concurrently
// when there is more than one. A comparator panic in a spare goroutine
// would kill the process, so it is caught and surfaced as the query's
// error instead.
func sortRuns(ctx *ExecCtx, runs [][]val.Row, keyPos []int, desc []bool) error {
	if err := ctx.checkDeadline(); err != nil {
		return err
	}
	if len(runs) <= 1 {
		if len(runs) == 1 {
			rows := runs[0]
			sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j], keyPos, desc) })
		}
		return nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicErr error
	for _, rows := range runs {
		wg.Add(1)
		go func(rows []val.Row) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicErr == nil {
						panicErr = fmt.Errorf("sql: parallel sort panicked: %v", r)
					}
					mu.Unlock()
				}
			}()
			sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j], keyPos, desc) })
		}(rows)
	}
	wg.Wait()
	return panicErr
}

// mergeRuns streams the sorted runs in global order. With several runs it
// plays a loser tree: each internal node remembers the loser of its
// subtree's last match and ls[0] holds the winner, so advancing costs one
// leaf-to-root replay — ⌈log₂ k⌉ comparisons — instead of scanning all k
// heads.
func mergeRuns(runs [][]val.Row, keyPos []int, desc []bool, emitRow func(val.Row) error) error {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		for _, r := range runs[0] {
			if err := emitRow(r); err != nil {
				return err
			}
		}
		return nil
	}
	t := newLoserTree(runs, keyPos, desc)
	for {
		w := t.ls[0]
		r := t.head(w)
		if r == nil {
			return nil
		}
		if err := emitRow(r); err != nil {
			return err
		}
		t.pos[w]++
		t.replay(w)
	}
}

// loserTree is the k-way merge tournament over sorted runs. ls[1:] are the
// internal nodes (loser of each match), ls[0] the current winner; leaf i's
// parent is (i+k)/2.
type loserTree struct {
	ls     []int
	pos    []int
	runs   [][]val.Row
	keyPos []int
	desc   []bool
}

func newLoserTree(runs [][]val.Row, keyPos []int, desc []bool) *loserTree {
	k := len(runs)
	t := &loserTree{
		ls: make([]int, k), pos: make([]int, k),
		runs: runs, keyPos: keyPos, desc: desc,
	}
	for i := range t.ls {
		t.ls[i] = -1
	}
	for i := 0; i < k; i++ {
		t.replay(i)
	}
	return t
}

// head returns run i's current front row, nil when exhausted.
func (t *loserTree) head(i int) val.Row {
	if t.pos[i] < len(t.runs[i]) {
		return t.runs[i][t.pos[i]]
	}
	return nil
}

// beats reports whether run i's head precedes run j's: an exhausted run
// always loses, full-row ties break by run index (such rows are
// byte-identical, so the choice cannot show in the output).
func (t *loserTree) beats(i, j int) bool {
	hi, hj := t.head(i), t.head(j)
	switch {
	case hj == nil:
		return true
	case hi == nil:
		return false
	}
	if rowLess(hi, hj, t.keyPos, t.desc) {
		return true
	}
	if rowLess(hj, hi, t.keyPos, t.desc) {
		return false
	}
	return i < j
}

// replay plays run i's head up its leaf-to-root path: at each node the
// loser stays, the winner moves up. During construction a -1 node absorbs
// the incoming contender — that match is played when the sibling path
// arrives.
func (t *loserTree) replay(i int) {
	w := i
	for j := (i + len(t.runs)) / 2; j >= 1; j /= 2 {
		if t.ls[j] == -1 {
			t.ls[j] = w
			return
		}
		if t.beats(t.ls[j], w) {
			t.ls[j], w = w, t.ls[j]
		}
	}
	t.ls[0] = w
}

// ---- top ----

type topNode struct {
	child Node
	n     int
}

func (t *topNode) Columns() []ColRef { return t.child.Columns() }

func (t *topNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	emit, done := mk(0)
	count := 0
	err := t.child.Run(ctx, serialSink(ctx, func(b *val.Batch) error {
		if count >= t.n {
			return errStopEarly
		}
		if rem := t.n - count; b.Len() > rem {
			b.Truncate(rem)
		}
		count += b.Len()
		if err := emit(b); err != nil {
			return err
		}
		if count >= t.n {
			return errStopEarly
		}
		return nil
	}))
	if errors.Is(err, errStopEarly) {
		err = nil
	}
	return finish(err, done)
}

func (t *topNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	fmt.Fprintf(sb, "Top(%d)\n", t.n)
	t.child.explainTo(sb, depth+1)
}

// ---- fused top-k (TOP n over ORDER BY) ----

// topKNode is the planner's fusion of TOP n over ORDER BY: each worker
// keeps a bounded heap of the n best rows it has seen, so peak
// materialized state is O(n × workers) rows — never the full input the
// sort+top stack would have built. The final serial phase sorts the ≤ n·k
// survivors and emits the first n.
//
// ordered marks an input that already arrives sorted by the (all-ascending)
// keys — an ordered index access. The node then ends its child with
// errStopEarly at the first row whose keys are strictly greater than the
// worst retained row's once the heap is full. It still consumes the whole
// tie group at the cut and still orders by rowLess, so the output is the
// one the unordered plan produces: index order among equal keys (RIDs, which
// are shard-tagged) never shows.
type topKNode struct {
	child    Node
	keyPos   []int
	desc     []bool
	visible  int
	n        int
	ordered  bool
	keyLabel string
}

func (t *topKNode) Columns() []ColRef { return t.child.Columns() }

// topKHeap is one worker's bounded candidate set: a max-heap under the
// rowLess total order (rows[0] is the worst retained row, evicted when a
// better one arrives). Heap rows and the one eviction scratch row are
// carved from the worker's pooled RowStore; the heap slice itself aliases
// the store's row list, so steady state adds no allocations.
type topKHeap struct {
	store *val.RowStore
	rows  []val.Row
	spare val.Row // eviction scratch, carved once the heap is full
}

// offer considers row i of b for the heap. It reports whether an ordered
// input is past the cut: the row lost to a full heap on its sort keys alone,
// so no later row can enter either.
func (h *topKHeap) offer(t *topKNode, b *val.Batch, i int) (past bool) {
	if h.spare == nil {
		r := h.store.NewRow()
		b.RowAt(i, r)
		h.rows = h.store.Rows()
		h.up(t, len(h.rows)-1)
		if len(h.rows) == t.n {
			h.spare = h.store.NewRow()
			h.rows = h.store.Rows()[:t.n]
		}
		return false
	}
	b.RowAt(i, h.spare)
	if !rowLess(h.spare, h.rows[0], t.keyPos, t.desc) {
		if t.ordered {
			// Not less under rowLess: either a sort key differs, and then
			// it is greater, or only the tie-break lost.
			for _, p := range t.keyPos {
				if h.spare[p].Compare(h.rows[0][p]) != 0 {
					return true
				}
			}
		}
		return false
	}
	h.rows[0], h.spare = h.spare, h.rows[0]
	h.down(t, 0)
	return false
}

func (h *topKHeap) up(t *topKNode, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !rowLess(h.rows[p], h.rows[i], t.keyPos, t.desc) {
			return
		}
		h.rows[p], h.rows[i] = h.rows[i], h.rows[p]
		i = p
	}
}

func (h *topKHeap) down(t *topKNode, i int) {
	n := len(h.rows)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && rowLess(h.rows[c], h.rows[c+1], t.keyPos, t.desc) {
			c++
		}
		if !rowLess(h.rows[i], h.rows[c], t.keyPos, t.desc) {
			return
		}
		h.rows[i], h.rows[c] = h.rows[c], h.rows[i]
		i = c
	}
}

func (t *topKNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	width := sortInputWidth(t.visible, t.keyPos)
	heaps := make([]*topKHeap, 0, 8)
	defer func() {
		for _, h := range heaps {
			h.store.Release()
		}
	}()
	err := t.child.Run(ctx, func(worker int) (batchFn, func() error) {
		h := &topKHeap{store: ctx.getRowStore(width)}
		heaps = append(heaps, h)
		return func(b *val.Batch) error {
			past := false
			b.Each(func(i int) { past = past || h.offer(t, b, i) })
			if past {
				return errStopEarly
			}
			return nil
		}, nil
	})
	if err != nil && !errors.Is(err, errStopEarly) {
		return err
	}
	var all []val.Row
	for _, h := range heaps {
		all = append(all, h.rows...)
	}
	sort.Slice(all, func(i, j int) bool { return rowLess(all[i], all[j], t.keyPos, t.desc) })
	if len(all) > t.n {
		all = all[:t.n]
	}
	emit, done := mk(0)
	out := ctx.getBatch(t.visible, len(all), nil)
	defer out.Release()
	for _, r := range all {
		out.AppendRow(r[:t.visible])
		if out.Full() {
			if err := emit(out); err != nil {
				return err
			}
			out.Reset()
		}
	}
	if out.Size() > 0 {
		return finish(emit(out), done)
	}
	return finish(nil, done)
}

func (t *topKNode) explainTo(sb *strings.Builder, depth int) {
	indent(sb, depth)
	fmt.Fprintf(sb, "TopK(%d, %s", t.n, t.keyLabel)
	if t.ordered {
		sb.WriteString(", ordered")
	}
	sb.WriteString(")\n")
	t.child.explainTo(sb, depth+1)
}

// stripHidden drops hidden sort columns when no sort consumed them.
type stripNode struct {
	child   Node
	visible int
}

func (s *stripNode) Columns() []ColRef { return s.child.Columns() }

func (s *stripNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	return s.child.Run(ctx, func(worker int) (batchFn, func() error) {
		sink, done := mk(worker)
		return func(b *val.Batch) error { return sink(b.Project(s.visible)) }, done
	})
}

func (s *stripNode) explainTo(sb *strings.Builder, depth int) {
	s.child.explainTo(sb, depth)
}
