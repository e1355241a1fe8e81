package sqlengine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyserver/internal/shard"
	"skyserver/internal/storage"
	"skyserver/internal/val"
)

// The operator contract (sinkFactory) pinned operator by operator: every
// node runs between a fake multi-worker producer, whose rows carry the
// worker that produced them, and a checking consumer that records how its
// factory, sinks and finalizers were driven.

const (
	fakeBatches = 3 // per worker
	fakeRows    = 4 // per batch
)

var errFake = errors.New("fake producer failure")

// fakeProducer emits rows (w, seq) from `workers` goroutines: w is the
// producing worker, seq a value unique across the whole run. fail makes the
// last worker return errFake after its first batch.
type fakeProducer struct {
	workers int
	fail    bool
}

func (f *fakeProducer) Columns() []ColRef {
	return []ColRef{{Name: "w", Kind: val.KindInt}, {Name: "seq", Kind: val.KindInt}}
}

func (f *fakeProducer) explainTo(sb *strings.Builder, depth int) {}

func (f *fakeProducer) Run(ctx *ExecCtx, mk sinkFactory) error {
	sinks := make([]batchFn, f.workers)
	dones := make([]func() error, f.workers)
	for w := range sinks {
		sinks[w], dones[w] = mk(w)
	}
	errs := make([]error, f.workers)
	var wg sync.WaitGroup
	for w := range sinks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < fakeBatches; k++ {
				b := val.NewBatch(2)
				for r := 0; r < fakeRows; r++ {
					b.AppendRow(val.Row{val.Int(int64(w)), val.Int(int64((w*fakeBatches+k)*fakeRows + r))})
				}
				if errs[w] = sinks[w](b); errs[w] != nil {
					return
				}
				if f.fail && w == f.workers-1 {
					errs[w] = errFake
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, done := range dones {
		if err := finish(nil, done); err != nil {
			return err
		}
	}
	return nil
}

// sinkCheck is the consumer end: a sinkFactory that records violations of
// the contract by whatever drives it.
type sinkCheck struct {
	mu         sync.Mutex
	violations []string
	inMk       atomic.Int32
	flowed     atomic.Bool
	mkOrder    []int
	inflight   [16]atomic.Int32 // per sink: concurrent calls into one sink
	batches    [16][]val.Row    // rows each sink received
	finalized  []int
	tagged     bool // rows carry their producing worker in column 0
}

func (c *sinkCheck) violate(format string, args ...any) {
	c.mu.Lock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *sinkCheck) factory(worker int) (batchFn, func() error) {
	if c.inMk.Add(1) != 1 {
		c.violate("mk(%d) called concurrently with another mk", worker)
	}
	defer c.inMk.Add(-1)
	if c.flowed.Load() {
		c.violate("mk(%d) called after a batch had flowed", worker)
	}
	c.mkOrder = append(c.mkOrder, worker)
	sink := func(b *val.Batch) error {
		c.flowed.Store(true)
		if c.inflight[worker].Add(1) != 1 {
			c.violate("sink %d entered concurrently", worker)
		}
		defer c.inflight[worker].Add(-1)
		b.Each(func(i int) {
			row := b.RowAt(i, make(val.Row, b.Width()))
			if c.tagged && row[0].I != int64(worker) {
				c.violate("sink %d received a row produced by worker %d", worker, row[0].I)
			}
			c.batches[worker] = append(c.batches[worker], row)
		})
		return nil
	}
	done := func() error {
		if c.inflight[worker].Load() != 0 {
			c.violate("finalizer %d ran while its sink was active", worker)
		}
		c.finalized = append(c.finalized, worker)
		return nil
	}
	return sink, done
}

func (c *sinkCheck) rows() int {
	n := 0
	for i := range c.batches {
		n += len(c.batches[i])
	}
	return n
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// contractOps builds every operator that takes a child over the fake
// producer's (w, seq) schema. passThrough operators must hand each
// producer worker its own downstream sink; the rest produce one stream.
// rows is the output cardinality over `workers` producer workers.
func contractOps(t *testing.T, db *DB) []struct {
	name        string
	passThrough bool
	build       func(child Node) Node
	rows        func(workers int) int
} {
	t.Helper()
	sc := &scope{cols: (&fakeProducer{}).Columns()}
	vec := func(expr string) *compiledVec {
		cv, err := compileVec(selectItemExpr(t, "select "+expr+" from t"), sc, db)
		if err != nil {
			t.Fatal(err)
		}
		return cv
	}
	pred := func(cond string) *compiledPred {
		stmts, err := Parse("select 1 from t where " + cond)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := compilePred(stmts[0].(*SelectStmt).Where, sc, db)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	probe, err := compileExpr(selectItemExpr(t, "select seq from t"), sc, db)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := db.Table("Obj")
	all := func(workers int) int { return workers * fakeBatches * fakeRows }
	cols2 := sc.cols
	return []struct {
		name        string
		passThrough bool
		build       func(child Node) Node
		rows        func(workers int) int
	}{
		{"filter", true, func(c Node) Node { return &filterNode{child: c, cond: pred("seq >= 0")} }, all},
		{"project", true, func(c Node) Node {
			return &projectNode{child: c, cols: cols2, exprs: []*compiledVec{vec("w"), vec("seq + 1")}}
		}, all},
		{"strip", true, func(c Node) Node { return &stripNode{child: c, visible: 1} }, all},
		{"schema", true, func(c Node) Node { return &schemaNode{child: c, cols: cols2} }, all},
		{"agg-global", false, func(c Node) Node {
			return &aggNode{child: c, cols: cols2[:1], aggs: []aggSpec{{name: "count"}}}
		}, func(int) int { return 1 }},
		{"agg-grouped", false, func(c Node) Node {
			return &aggNode{child: c, cols: cols2, groupBy: []*compiledVec{vec("w")}, aggs: []aggSpec{{name: "count"}}}
		}, func(workers int) int { return workers }},
		{"sort", false, func(c Node) Node {
			return &sortNode{child: c, keyPos: []int{1}, desc: []bool{true}, visible: 2}
		}, all},
		{"topk", false, func(c Node) Node {
			return &topKNode{child: c, keyPos: []int{1}, desc: []bool{false}, visible: 2, n: 5}
		}, func(workers int) int { return min(5, all(workers)) }},
		{"top", false, func(c Node) Node { return &topNode{child: c, n: 5} },
			func(workers int) int { return min(5, all(workers)) }},
		{"distinct", false, func(c Node) Node { return &distinctNode{child: c} }, all},
		{"nljoin-outer", false, func(c Node) Node {
			return &nlJoinNode{outer: c, inner: &fakeProducer{workers: 2}, cols: append(cols2[:2:2], cols2...)}
		}, func(workers int) int { return all(workers) * all(2) }},
		{"nljoin-inner", false, func(c Node) Node {
			return &nlJoinNode{outer: &fakeProducer{workers: 2}, inner: c, cols: append(cols2[:2:2], cols2...)}
		}, func(workers int) int { return all(workers) * all(2) }},
		{"indexjoin", false, func(c Node) Node {
			// Probe Obj's PK with seq: objIDs are 1..60, seqs 0..all-1.
			cols := append(cols2[:2:2], make([]ColRef, len(obj.Cols))...)
			return &indexJoinNode{outer: c, inner: obj, index: obj.indexes[0], cols: cols,
				probeExprs: []compiledExpr{probe}, innerWidth: len(obj.Cols)}
		}, func(workers int) int { return min(60, all(workers)-1) }},
	}
}

func TestOperatorContract(t *testing.T) {
	db, s := testDB(t)
	for _, op := range contractOps(t, db) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", op.name, workers), func(t *testing.T) {
				// Success: factory calls in worker order before any batch,
				// per-worker sinks fed only by their worker, finalizers in
				// worker order.
				ctx := s.newExecCtx(nil, nil, ExecOptions{}, time.Time{})
				check := &sinkCheck{tagged: op.passThrough}
				err := op.build(&fakeProducer{workers: workers}).Run(ctx, check.factory)
				ctx.releaseScratch()
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				want := []int{0}
				if op.passThrough {
					want = seqInts(workers)
				}
				if !equalInts(check.mkOrder, want) {
					t.Errorf("mk calls = %v, want %v", check.mkOrder, want)
				}
				if !equalInts(check.finalized, want) {
					t.Errorf("finalizers = %v, want %v (worker order)", check.finalized, want)
				}
				if got := check.rows(); got != op.rows(workers) {
					t.Errorf("rows out = %d, want %d", got, op.rows(workers))
				}
				for _, v := range check.violations {
					t.Error(v)
				}

				// Failure: one producer worker errors mid-stream — the error
				// surfaces and no finalizer runs. (TOP may have been satisfied by
				// the healthy workers first; a complete result is not an error,
				// and then its own finalizer does run.)
				ctx = s.newExecCtx(nil, nil, ExecOptions{}, time.Time{})
				check = &sinkCheck{tagged: op.passThrough}
				err = op.build(&fakeProducer{workers: workers, fail: true}).Run(ctx, check.factory)
				ctx.releaseScratch()
				if op.name == "top" && err == nil {
					return
				}
				if !errors.Is(err, errFake) {
					t.Fatalf("failing producer: err = %v, want errFake", err)
				}
				if len(check.finalized) != 0 {
					t.Errorf("finalizers %v ran after a failed run", check.finalized)
				}
				for _, v := range check.violations {
					t.Error(v)
				}
			})
		}
	}
}

// TestZeroWorkerProducer pins the degenerate end of the contract: a
// producer that starts no workers (a scan of an empty heap) never calls the
// factory, and a global aggregate above it must still yield its one
// zero-count row while a grouped one yields none.
func TestZeroWorkerProducer(t *testing.T) {
	db, s := testDB(t)
	for _, op := range contractOps(t, db) {
		if op.name != "agg-global" && op.name != "agg-grouped" {
			continue
		}
		ctx := s.newExecCtx(nil, nil, ExecOptions{}, time.Time{})
		check := &sinkCheck{}
		if err := op.build(&fakeProducer{workers: 0}).Run(ctx, check.factory); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		ctx.releaseScratch()
		want := 0
		if op.name == "agg-global" {
			want = 1
		}
		if got := check.rows(); got != want {
			t.Errorf("%s over zero workers: %d rows, want %d", op.name, got, want)
		}
		if want == 1 && check.batches[0][0][0].I != 0 {
			t.Errorf("count(*) over zero workers = %v, want 0", check.batches[0][0][0])
		}
		if !equalInts(check.finalized, []int{0}) {
			t.Errorf("%s: finalizers = %v, want [0]", op.name, check.finalized)
		}
	}
	// The same through SQL, on a table with an empty heap.
	if _, err := db.CreateTable("Empty", []Column{{Name: "x", Kind: val.KindInt}}, nil, ""); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "select count(*), max(x) from Empty")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("aggregate over empty table = %v, want [[0 NULL]]", res.Rows)
	}
}

// TestLeafProducersContract drives the leaf operators — the producers the
// fake stands in for above — through planned SQL: single-stream leaves call
// mk(0) exactly once, and a parallel heap scan builds every worker's sink
// before a row flows and finalizes them in worker order.
func TestLeafProducersContract(t *testing.T) {
	db, s := testDB(t)
	big, err := db.CreateTable("Big", []Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "pad", Kind: val.KindString},
	}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	pad := val.Str(string(make([]byte, 200)))
	for i := int64(0); i < 400; i++ {
		if _, err := big.Insert(val.Row{val.Int(i), pad}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, s, "select objID, mag_r into #tmp from Obj where objID < 10")
	for _, c := range []struct {
		name, sql string
		opt       ExecOptions
		parallel  bool
		rows      int
	}{
		{"dual", "select 1", ExecOptions{}, false, 1},
		{"index-seek", "select objID from Obj where objID = 5", ExecOptions{}, false, 1},
		{"tvf", "select objID from fNearIDs(7)", ExecOptions{}, false, 7},
		{"temp-table", "select objID from #tmp", ExecOptions{}, false, 9},
		{"heap-scan-serial", "select id from Big", ExecOptions{MaxConcurrency: 1}, false, 400},
		{"heap-scan-parallel", "select id from Big", ExecOptions{}, true, 400},
	} {
		t.Run(c.name, func(t *testing.T) {
			stmts, err := Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			root, err := (&planner{db: db, sess: s}).planSelect(stmts[0].(*SelectStmt))
			if err != nil {
				t.Fatal(err)
			}
			ctx := s.newExecCtx(nil, nil, c.opt, time.Time{})
			check := &sinkCheck{}
			err = root.Run(ctx, check.factory)
			ctx.releaseScratch()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if c.parallel {
				if len(check.mkOrder) < 2 {
					t.Fatalf("parallel scan built %d sinks, want several", len(check.mkOrder))
				}
			} else if len(check.mkOrder) != 1 {
				t.Fatalf("single-stream plan built sinks %v, want [0]", check.mkOrder)
			}
			if want := seqInts(len(check.mkOrder)); !equalInts(check.mkOrder, want) || !equalInts(check.finalized, want) {
				t.Errorf("mk calls = %v, finalizers = %v, want both %v", check.mkOrder, check.finalized, want)
			}
			if got := check.rows(); got != c.rows {
				t.Errorf("rows = %d, want %d", got, c.rows)
			}
			for _, v := range check.violations {
				t.Error(v)
			}
		})
	}
}

// tiesDB builds, on the given shard count, a gallery-shaped table whose sort
// key r takes only 12 values — every tie group is far wider than any TOP n —
// under the (typ, mode, r) index the famous-places statement reads. Rows
// hash-route by PK, so the RIDs, and with them the index's order inside a tie
// group, differ per shard count.
func tiesDB(t *testing.T, shards int) (*DB, *Session) {
	t.Helper()
	fgs := make([]*storage.FileGroup, shards)
	for i := range fgs {
		fgs[i] = storage.NewMemFileGroup(2, 1024)
	}
	db := NewShardedDB(shard.New(shard.EqualSplit(shards), fgs))
	gal, err := db.CreateTable("Gal", []Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "typ", Kind: val.KindInt, NotNull: true},
		{Name: "mode", Kind: val.KindInt, NotNull: true},
		{Name: "r", Kind: val.KindInt, NotNull: true},
		{Name: "g", Kind: val.KindFloat, NotNull: true},
		{Name: "iso", Kind: val.KindFloat, NotNull: true},
		{Name: "pad", Kind: val.KindString},
	}, []string{"id"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("Gal", "ix_typ_mode_r", []string{"typ", "mode", "r"}, []string{"id", "g"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pad := val.Str(strings.Repeat("x", 40))
	for i := int64(0); i < 3000; i++ {
		typ, mode := int64(3), int64(1)
		if rng.Intn(5) < 2 {
			typ = 6
		}
		if rng.Intn(5) == 0 {
			mode = 2
		}
		row := val.Row{val.Int(i), val.Int(typ), val.Int(mode), val.Int(int64(rng.Intn(12))),
			val.Float(float64(rng.Intn(40)) / 4), val.Float(float64(i % 97)), pad}
		if _, err := gal.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return db, NewSession(db)
}

// TestOrderedTopNEqualsSort is the ordered-access oracle: for random n,
// equality prefixes, range bounds and residuals, TOP n … ORDER BY — through
// the ordered index seek wherever the planner picks it — must equal the
// un-TOPped ORDER BY (the sortNode path, which shares nothing with the
// early-stopping top-k but rowLess) truncated to n, byte for byte, on every
// shard count, dop and evaluator; and every configuration must agree with
// the first.
func TestOrderedTopNEqualsSort(t *testing.T) {
	type query struct {
		n    int
		body string
	}
	rng := rand.New(rand.NewSource(20011002))
	shapes := []func() string{
		func() string { return "id, r, iso from Gal where typ = 3 and mode = 1 order by r" }, // the gallery: non-covering
		func() string { return "id, r, g from Gal where typ = 3 and mode = 1 order by r" },   // covered
		func() string {
			lo := rng.Intn(8)
			return fmt.Sprintf("id, iso from Gal where typ = 3 and mode = 1 and r >= %d and r < %d order by r", lo, lo+1+rng.Intn(5))
		},
		func() string {
			return fmt.Sprintf("g, id from Gal where typ = 6 and mode = %d and g > %d order by r", 1+rng.Intn(2), rng.Intn(9))
		},
		func() string {
			return fmt.Sprintf("id, mode, r, pad from Gal where typ = %d order by mode, r", 3+3*rng.Intn(2))
		},
		func() string { return "r, id from Gal where typ = 3 and mode = 1 order by 1" },
		func() string { return fmt.Sprintf("* from Gal where id >= %d order by id", rng.Intn(2900)) },
		func() string {
			return fmt.Sprintf("id, r from Gal where typ = 3 and mode = 1 and iso > %d order by r", rng.Intn(97))
		}, // guarded: heap scan
	}
	var queries []query
	for i := 0; i < 48; i++ {
		queries = append(queries, query{n: 1 + rng.Intn(150), body: shapes[i%len(shapes)]()})
	}
	render := func(rows []val.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%v", r)
		}
		return out
	}
	var first [][]string
	ordered := 0
	for _, shards := range []int{1, 2, 4, 7} {
		_, s := tiesDB(t, shards)
		for qi, q := range queries {
			full, err := s.Exec("select "+q.body, ExecOptions{})
			if err != nil {
				t.Fatalf("%d shards: oracle %q: %v", shards, q.body, err)
			}
			want := render(full.Rows)
			if len(want) > q.n {
				want = want[:q.n]
			}
			if shards == 1 {
				first = append(first, want)
			} else if !slices.Equal(want, first[qi]) {
				t.Fatalf("%d shards: sort oracle for %q differs from the unsharded one", shards, q.body)
			}
			top := fmt.Sprintf("select top %d %s", q.n, q.body)
			for _, opt := range []ExecOptions{{DOP: 1}, {DOP: 4}, {DOP: 1, ForceRowExprs: true}, {DOP: 4, ForceRowExprs: true}} {
				res, err := s.Exec(top, opt)
				if err != nil {
					t.Fatalf("%d shards %+v: %q: %v", shards, opt, top, err)
				}
				if got := render(res.Rows); !slices.Equal(got, want) {
					t.Fatalf("%d shards dop %d row=%v: %q\n got %v\nwant %v\nplan:\n%s",
						shards, opt.DOP, opt.ForceRowExprs, top, got, want, res.Plan)
				}
				if strings.Contains(res.Plan, ", ordered)") {
					ordered++
					// The seek must read through the cut's tie group (≈ 120
					// entries here) and, doubling its batches, may read as
					// much again — not the 1,440 entries of the prefix.
					if qi%len(shapes) < 2 && res.RowsScanned > int64(2*(q.n+160)) {
						t.Errorf("%q scanned %d entries, want at most twice n plus the tie group", top, res.RowsScanned)
					}
				}
			}
		}
	}
	// Seven of the eight shapes are within reach of an index order.
	if want := 4 * 4 * len(queries) * 7 / 8; ordered != want {
		t.Errorf("%d executions ran an ordered plan, want %d", ordered, want)
	}
}
