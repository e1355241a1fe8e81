package sqlengine

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"skyserver/internal/val"
)

// MemTable is an in-memory table: session temp tables (the ##results of the
// paper's queries) and materialized INTO targets.
type MemTable struct {
	Name string
	Cols []Column
	Rows []val.Row
}

// planner turns a SelectStmt into a physical Node tree, making the access
// path and join decisions §9.1.3/§11 describe: push single-table predicates
// into scans, prefer covering indices over base-table access, seek indices
// on equality/range prefixes, start joins from the smallest input, and
// probe indexed tables in nested loops.
type planner struct {
	db   *DB
	sess *Session
	// params is the execution parameter vector the statement was normalized
	// against; plan-time constant evaluation (index dive estimates) binds
	// against it, so a cached plan's access path reflects the first-seen
	// constants — the same parameter sniffing SQL Server does.
	params []val.Value
	// tables collects every base table the plan touches with its
	// data version at compile time, for plan-cache invalidation.
	tables []tableVer
	// usesTVF records that the plan reads a table-valued function. TVFs run
	// arbitrary code at execution time and may read tables the planner never
	// sees, so their version snapshot is incomplete — such plans stay in the
	// plan cache (re-binding is always correct) but are excluded from the
	// result cache (see CompiledPlan.ResultCacheable).
	usesTVF bool
	// routedScans collects heap scans whose shard route depends on the
	// parameter vector; the compiled plan re-derives its workload class
	// per execution from them (see CompiledPlan.ClassFor).
	routedScans []*scanNode
}

// plannedSource is one resolved FROM entry.
type plannedSource struct {
	binding string // fold(alias or name)
	display string
	table   *Table
	mem     *MemTable
	tvf     *TableFunc
	tvfArgs []Expr
	cols    []ColRef
	width   int
	pushed  []Expr // single-source conjuncts (incl. inlined view predicate)
	est     float64
	// accessNode is the index path chosen during estimation (with its
	// dive-based row estimate), nil for a heap scan; access building reuses
	// it so the two agree.
	accessNode *indexScanNode
}

func (p *planner) resolveSource(item FromItem) (*plannedSource, error) {
	binding := fold(item.Name())
	src := &plannedSource{binding: binding}
	if item.Func != nil {
		tvf, ok := p.db.TVF(item.Func.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table-valued function %s", item.Func.Name)
		}
		p.usesTVF = true
		src.tvf = tvf
		src.tvfArgs = item.Func.Args
		src.display = tvf.Name
		for _, c := range tvf.Cols {
			src.cols = append(src.cols, ColRef{Qualifier: binding, Name: c.Name, Kind: c.Kind})
		}
		src.width = len(tvf.Cols)
		src.est = float64(tvf.EstRows)
		if src.est <= 0 {
			src.est = 64
		}
		return src, nil
	}
	name := item.Table
	// Temp tables (#x, ##x) live in the session.
	if strings.HasPrefix(name, "#") {
		mt, ok := p.sess.Temp(name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown temp table %s", name)
		}
		src.mem = mt
		src.display = mt.Name
		for _, c := range mt.Cols {
			src.cols = append(src.cols, ColRef{Qualifier: binding, Name: c.Name, Kind: c.Kind})
		}
		src.width = len(mt.Cols)
		src.est = float64(len(mt.Rows))
		return src, nil
	}
	// Views inline to their base table plus predicate (§9.1.3: "The SQL
	// query optimizer rewrites such queries so that they map down to the
	// base photoObj table with the additional qualifiers").
	baseName := name
	var viewPred Expr
	for i := 0; i < 4; i++ { // views may stack (Galaxy → photoPrimary → PhotoObj)
		v, ok := p.db.View(baseName)
		if !ok {
			break
		}
		if v.where != nil {
			if viewPred == nil {
				viewPred = v.where
			} else {
				viewPred = &BinExpr{Op: "and", L: viewPred, R: v.where}
			}
		}
		baseName = v.Base
	}
	t, err := p.db.Table(baseName)
	if err != nil {
		return nil, err
	}
	p.tables = append(p.tables, tableVer{table: t, ver: t.DataVersion()})
	src.table = t
	src.display = t.Name
	src.cols = make([]ColRef, 0, len(t.Cols))
	for _, c := range t.Cols {
		src.cols = append(src.cols, ColRef{Qualifier: binding, Name: c.Name, Kind: c.Kind})
	}
	src.width = len(t.Cols)
	src.est = float64(t.Rows())
	if viewPred != nil {
		// Qualify the view predicate's bare columns with this source's
		// binding, so it stays unambiguous inside multi-source plans.
		src.pushed = append(src.pushed, splitConjuncts(qualifyColumns(viewPred, item.Name()))...)
	}
	return src, nil
}

// qualifyColumns returns a copy of e with every unqualified column reference
// qualified by the given binding name.
func qualifyColumns(e Expr, qualifier string) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *LitExpr, *VarExpr, *ParamExpr:
		return e
	case *ColExpr:
		if e.Qualifier != "" {
			return e
		}
		return &ColExpr{Qualifier: qualifier, Name: e.Name}
	case *UnaryExpr:
		return &UnaryExpr{Op: e.Op, X: qualifyColumns(e.X, qualifier)}
	case *BinExpr:
		return &BinExpr{Op: e.Op, L: qualifyColumns(e.L, qualifier), R: qualifyColumns(e.R, qualifier)}
	case *BetweenExpr:
		return &BetweenExpr{
			X:   qualifyColumns(e.X, qualifier),
			Lo:  qualifyColumns(e.Lo, qualifier),
			Hi:  qualifyColumns(e.Hi, qualifier),
			Not: e.Not,
		}
	case *InExpr:
		list := make([]Expr, len(e.List))
		for i, x := range e.List {
			list[i] = qualifyColumns(x, qualifier)
		}
		return &InExpr{X: qualifyColumns(e.X, qualifier), List: list, Not: e.Not}
	case *LikeExpr:
		return &LikeExpr{X: qualifyColumns(e.X, qualifier), Pattern: qualifyColumns(e.Pattern, qualifier), Not: e.Not}
	case *IsNullExpr:
		return &IsNullExpr{X: qualifyColumns(e.X, qualifier), Not: e.Not}
	case *FuncExpr:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = qualifyColumns(a, qualifier)
		}
		return &FuncExpr{Name: e.Name, Args: args}
	case *CaseExpr:
		out := &CaseExpr{}
		for _, w := range e.Whens {
			out.Whens = append(out.Whens, CaseWhen{
				Cond: qualifyColumns(w.Cond, qualifier),
				Then: qualifyColumns(w.Then, qualifier),
			})
		}
		if e.Else != nil {
			out.Else = qualifyColumns(e.Else, qualifier)
		}
		return out
	case *AggExpr:
		if e.Arg == nil {
			return e
		}
		return &AggExpr{Name: e.Name, Arg: qualifyColumns(e.Arg, qualifier)}
	default:
		return e
	}
}

// splitConjuncts flattens an AND tree.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinExpr); ok && b.Op == "and" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// andAll rebuilds a conjunction (nil for empty input).
func andAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinExpr{Op: "and", L: out, R: e}
		}
	}
	return out
}

// sourceSet identifies which sources a conjunct touches.
func conjunctSources(e Expr, sources []*plannedSource, globalScope *scope, offsets []int) (map[int]bool, error) {
	refs := map[int]bool{}
	if err := exprRefs(e, globalScope, refs); err != nil {
		return nil, err
	}
	set := map[int]bool{}
	for pos := range refs {
		for si := len(sources) - 1; si >= 0; si-- {
			if pos >= offsets[si] {
				set[si] = true
				break
			}
		}
	}
	return set, nil
}

// markNeeded records which source columns an expression touches, marking all
// same-named columns when resolution is ambiguous or deferred (output
// aliases) — over-approximation is safe, under-approximation is not.
func markNeeded(e Expr, sc *scope, offsets []int, needed [][]bool) {
	switch e := e.(type) {
	case nil:
	case *LitExpr, *VarExpr, *ParamExpr:
	case *ColExpr:
		if pos, err := sc.resolve(e.Qualifier, e.Name); err == nil {
			markPos(pos, offsets, needed)
			return
		}
		// Ambiguous or alias: mark every column with a matching name.
		n := fold(e.Name)
		q := fold(e.Qualifier)
		for pos, c := range sc.cols {
			if fold(c.Name) == n && (q == "" || fold(c.Qualifier) == q) {
				markPos(pos, offsets, needed)
			}
		}
	case *UnaryExpr:
		markNeeded(e.X, sc, offsets, needed)
	case *BinExpr:
		markNeeded(e.L, sc, offsets, needed)
		markNeeded(e.R, sc, offsets, needed)
	case *BetweenExpr:
		markNeeded(e.X, sc, offsets, needed)
		markNeeded(e.Lo, sc, offsets, needed)
		markNeeded(e.Hi, sc, offsets, needed)
	case *InExpr:
		markNeeded(e.X, sc, offsets, needed)
		for _, x := range e.List {
			markNeeded(x, sc, offsets, needed)
		}
	case *LikeExpr:
		markNeeded(e.X, sc, offsets, needed)
		markNeeded(e.Pattern, sc, offsets, needed)
	case *IsNullExpr:
		markNeeded(e.X, sc, offsets, needed)
	case *FuncExpr:
		for _, a := range e.Args {
			markNeeded(a, sc, offsets, needed)
		}
	case *CaseExpr:
		for _, w := range e.Whens {
			markNeeded(w.Cond, sc, offsets, needed)
			markNeeded(w.Then, sc, offsets, needed)
		}
		markNeeded(e.Else, sc, offsets, needed)
	case *AggExpr:
		markNeeded(e.Arg, sc, offsets, needed)
	}
}

func markPos(pos int, offsets []int, needed [][]bool) {
	for si := len(offsets) - 1; si >= 0; si-- {
		if pos >= offsets[si] {
			needed[si][pos-offsets[si]] = true
			return
		}
	}
}

// selectivity guesses how much a pushed conjunct narrows a table.
func selectivity(e Expr) float64 {
	switch e := e.(type) {
	case *BinExpr:
		switch e.Op {
		case "=":
			return 0.05
		case "<", "<=", ">", ">=":
			return 0.2
		}
	case *BetweenExpr:
		return 0.1
	}
	return 0.25
}

// estFloor keeps non-unique table estimates from dropping below a small
// uncertainty floor, so a genuinely tiny input (a TVF returning a handful of
// spatial matches, a temp table) still sorts ahead of a heavily-filtered
// big table — the Figure 10 join order.
const estFloor = 20

// planSelect builds the physical plan for a SELECT.
func (p *planner) planSelect(s *SelectStmt) (Node, error) {
	// FROM-less SELECT.
	if len(s.From) == 0 {
		return p.finishPlan(s, dualNode{}, &scope{}, false)
	}

	// 1. Resolve sources in syntactic order.
	sources := make([]*plannedSource, len(s.From))
	for i, item := range s.From {
		src, err := p.resolveSource(item)
		if err != nil {
			return nil, err
		}
		sources[i] = src
	}

	// Global scope in syntactic order, for classification.
	globalScope := &scope{}
	offsets := make([]int, len(sources))
	for i, src := range sources {
		offsets[i] = len(globalScope.cols)
		globalScope.cols = append(globalScope.cols, src.cols...)
	}

	// 2. Gather conjuncts from WHERE and all JOIN ... ON conditions.
	var pool []Expr
	if s.Where != nil {
		pool = append(pool, splitConjuncts(s.Where)...)
	}
	for _, item := range s.From {
		if item.JoinCond != nil {
			pool = append(pool, splitConjuncts(item.JoinCond)...)
		}
	}

	// 3. Classify: single-source conjuncts are pushed into the source.
	var joinPool []Expr
	joinPoolSets := []map[int]bool{}
	for _, c := range pool {
		set, err := conjunctSources(c, sources, globalScope, offsets)
		if err != nil {
			return nil, err
		}
		if len(set) == 1 {
			for si := range set {
				sources[si].pushed = append(sources[si].pushed, c)
			}
			continue
		}
		joinPool = append(joinPool, c)
		joinPoolSets = append(joinPoolSets, set)
	}

	// 4. Compute needed columns per source (syntactic order).
	needed := make([][]bool, len(sources))
	for i, src := range sources {
		needed[i] = make([]bool, src.width)
	}
	markStar := func(qualifier string) {
		q := fold(qualifier)
		for i, src := range sources {
			if q == "" || src.binding == q {
				for j := range needed[i] {
					needed[i][j] = true
				}
			}
		}
	}
	for _, item := range s.Items {
		if item.Star {
			markStar(item.Qualifier)
			continue
		}
		markNeeded(item.Expr, globalScope, offsets, needed)
	}
	for _, c := range pool {
		markNeeded(c, globalScope, offsets, needed)
	}
	for _, src := range sources {
		for _, c := range src.pushed {
			markNeeded(c, globalScope, offsets, needed)
		}
	}
	for _, g := range s.GroupBy {
		markNeeded(g, globalScope, offsets, needed)
	}
	markNeeded(s.Having, globalScope, offsets, needed)
	for _, k := range s.OrderBy {
		markNeeded(k.Expr, globalScope, offsets, needed)
	}

	// 5. Refine cardinality estimates. Table sources pick their access
	// path now; a bounded index path carries a plan-time dive estimate
	// (accurate even on skewed columns), a heap scan falls back to
	// selectivity guesses floored so heavily-filtered big tables never
	// displace genuinely tiny inputs (TVFs) from the outer side.
	var want orderWant
	if len(sources) == 1 {
		want = wantedOrder(s, sources[0])
	}
	for i, src := range sources {
		if src.table == nil {
			continue
		}
		src.accessNode = p.chooseIndex(src.table, src, needed[i], want)
		if src.accessNode != nil && src.accessNode.estRows >= 0 {
			src.est = src.accessNode.estRows
			if src.est < 1 {
				src.est = 1
			}
			continue
		}
		base := src.est
		for _, c := range src.pushed {
			src.est *= selectivity(c)
		}
		floor := math.Min(base, estFloor)
		if src.est < floor {
			src.est = floor
		}
	}

	// 6. Join order: greedy over the join graph. Start from the smallest
	// estimated input, then repeatedly attach the source most tightly
	// connected to the prefix — equality-joined sources first (they can
	// probe an index), then any-predicate-connected ones, and only then
	// cross products. This is what keeps Neighbors-style chains
	// (A ⋈ edge ⋈ B) from degenerating into an A×B cross join.
	eqEdge := make([][]bool, len(sources))
	weakEdge := make([][]bool, len(sources))
	for i := range sources {
		eqEdge[i] = make([]bool, len(sources))
		weakEdge[i] = make([]bool, len(sources))
	}
	for ci, set := range joinPoolSets {
		var members []int
		for s := range set {
			members = append(members, s)
		}
		isEq := false
		if b, ok := joinPool[ci].(*BinExpr); ok && b.Op == "=" && len(members) == 2 {
			isEq = true
		}
		for _, a := range members {
			for _, b := range members {
				if a == b {
					continue
				}
				weakEdge[a][b] = true
				if isEq {
					eqEdge[a][b] = true
				}
			}
		}
	}
	order := make([]int, 0, len(sources))
	used := make([]bool, len(sources))
	// Seed: smallest estimate (stable on ties).
	seed := 0
	for i := 1; i < len(sources); i++ {
		if sources[i].est < sources[seed].est {
			seed = i
		}
	}
	order = append(order, seed)
	used[seed] = true
	for len(order) < len(sources) {
		best, bestClass, bestEst := -1, 3, 0.0
		for i := range sources {
			if used[i] {
				continue
			}
			class := 2 // cross product
			for _, p := range order {
				if eqEdge[i][p] {
					class = 0
					break
				}
				if weakEdge[i][p] {
					class = 1
				}
			}
			if class < bestClass || (class == bestClass && sources[i].est < bestEst) {
				best, bestClass, bestEst = i, class, sources[i].est
			}
		}
		order = append(order, best)
		used[best] = true
	}

	// 7. Build the join tree left-deep in that order. prefixNeeded tracks
	// the needed masks of the sources joined so far, in join order, so
	// each join node carries the combined mask its output batch
	// preallocates from.
	var root Node
	prefixScope := &scope{}
	prefixSet := map[int]bool{}
	var prefixNeeded []bool
	consumed := make([]bool, len(joinPool))
	for step, si := range order {
		src := sources[si]
		// Conjuncts that become applicable at this step.
		var applicable []Expr
		for ci, set := range joinPoolSets {
			if consumed[ci] {
				continue
			}
			ok := true
			for s := range set {
				if s != si && !prefixSet[s] {
					ok = false
					break
				}
			}
			if ok {
				applicable = append(applicable, joinPool[ci])
				consumed[ci] = true
			}
		}
		if step == 0 {
			n, err := p.buildAccess(src, needed[si])
			if err != nil {
				return nil, err
			}
			root = n
			prefixScope.cols = append(prefixScope.cols, src.cols...)
			prefixSet[si] = true
			prefixNeeded = append(prefixNeeded, needed[si]...)
			// Conjuncts applicable with one source only happen for
			// constant conditions; filter them in step's tail.
			if len(applicable) > 0 {
				combined := &scope{cols: prefixScope.cols}
				cond, err := compilePred(andAll(applicable), combined, p.db)
				if err != nil {
					return nil, err
				}
				root = &filterNode{child: root, cond: cond, label: exprString(andAll(applicable))}
			}
			continue
		}
		prefixNeeded = append(prefixNeeded, needed[si]...)
		n, err := p.buildJoin(root, prefixScope, prefixSet, src, si, needed[si], prefixNeeded, applicable)
		if err != nil {
			return nil, err
		}
		root = n
		prefixScope.cols = append(prefixScope.cols, src.cols...)
		prefixSet[si] = true
	}
	// Constant conjuncts (no source refs) remain unconsumed only if their
	// set was empty: apply them as a final filter.
	var leftovers []Expr
	for ci := range joinPool {
		if !consumed[ci] {
			leftovers = append(leftovers, joinPool[ci])
		}
	}
	if len(leftovers) > 0 {
		cond, err := compilePred(andAll(leftovers), prefixScope, p.db)
		if err != nil {
			return nil, err
		}
		root = &filterNode{child: root, cond: cond, label: exprString(andAll(leftovers))}
	}

	// Only a lone source is ever offered an order to deliver.
	ordered := sources[0].accessNode != nil && sources[0].accessNode.ordered > 0
	return p.finishPlan(s, root, prefixScope, ordered)
}

// buildAccess picks the access path for one source: index seek, covering
// index scan, heap scan, TVF, or temp-table scan.
func (p *planner) buildAccess(src *plannedSource, needed []bool) (Node, error) {
	selfScope := &scope{cols: src.cols}
	filter, err := compilePred(andAll(src.pushed), selfScope, p.db)
	if err != nil {
		return nil, err
	}
	label := exprString(andAll(src.pushed))

	switch {
	case src.tvf != nil:
		args := make([]compiledExpr, len(src.tvfArgs))
		var argLabels []string
		for i, a := range src.tvfArgs {
			ce, err := compileExpr(a, &scope{}, p.db)
			if err != nil {
				return nil, fmt.Errorf("sql: %s argument %d: %w", src.tvf.Name, i+1, err)
			}
			args[i] = ce
			argLabels = append(argLabels, exprString(a))
		}
		node := Node(&tvfNode{fn: src.tvf, args: args, cols: src.cols, label: strings.Join(argLabels, ", ")})
		if filter != nil {
			node = &filterNode{child: node, cond: filter, label: label}
		}
		return node, nil

	case src.mem != nil:
		return &memScanNode{mem: src.mem, cols: src.cols, filter: filter, label: label}, nil
	}

	// Base table: the access path chosen during estimation (nil = heap scan).
	t := src.table
	best := src.accessNode
	allNeeded := true
	for _, n := range needed {
		if !n {
			allNeeded = false
			break
		}
	}
	var mask []bool
	if !allNeeded {
		mask = needed
	}
	if best != nil {
		best.table = t
		best.cols = src.cols
		best.filter = filter
		best.label = label
		best.needed = mask
		if best.covering {
			best.keyDst, best.inclDst = buildScatter(best.index, mask, 0)
		}
		return best, nil
	}
	sn := &scanNode{table: t, cols: src.cols, needed: mask, filter: filter, label: label}
	p.routeShardScan(sn, src, selfScope)
	return sn, nil
}

// routeShardScan attaches shard routing to a heap scan of a sharded
// table: bounds on the htmID routing column extracted from the pushed
// predicates (which stay in the scan's filter — routing prunes pages,
// never rows) become compiled constant/parameter expressions the
// executor intersects with the shard ranges on every execution. The
// compile-time route under the first-seen parameters feeds EXPLAIN's
// Shards(k/N) and the workload classification.
func (p *planner) routeShardScan(sn *scanNode, src *plannedSource, selfScope *scope) {
	t := sn.table
	n := t.ShardCount()
	sn.routeStatic = n
	if n <= 1 || t.shardCol < 0 {
		return
	}
	// An equality pin routes like a one-point range.
	var eq Expr
	for _, c := range src.pushed {
		b, ok := c.(*BinExpr)
		if !ok || b.Op != "=" {
			continue
		}
		if colMatches(b.L, selfScope, t.shardCol) && constExpr(b.R) {
			eq = b.R
			break
		}
		if colMatches(b.R, selfScope, t.shardCol) && constExpr(b.L) {
			eq = b.L
			break
		}
	}
	lo, loIncl, hi, hiKind := rangeBounds(src.pushed, selfScope, t.shardCol)
	if eq != nil {
		lo, loIncl, hi, hiKind = eq, true, eq, boundInclusive
	}
	if lo == nil && hi == nil {
		return
	}
	if lo != nil {
		if ce, err := compileExpr(lo, &scope{}, p.db); err == nil {
			sn.routeLo, sn.routeLoIncl = ce, loIncl
		}
	}
	if hi != nil && hiKind != boundNone {
		if ce, err := compileExpr(hi, &scope{}, p.db); err == nil {
			sn.routeHi, sn.routeHiIncl = ce, hiKind == boundInclusive
		}
	}
	if sn.routeLo == nil && sn.routeHi == nil {
		return
	}
	p.routedScans = append(p.routedScans, sn)
	ctx := &ExecCtx{DB: p.db, Session: p.sess, Params: p.params}
	if shards := sn.routedShards(ctx); shards != nil {
		sn.routeStatic = len(shards)
	}
}

// constExpr reports whether e references no columns (literals, variables,
// and pure functions of those) so it can be evaluated before the scan.
func constExpr(e Expr) bool {
	refs := map[int]bool{}
	empty := &scope{}
	return exprRefs(e, empty, refs) == nil
}

// indexCandidate describes how well one index serves the pushed predicates.
type indexCandidate struct {
	node *indexScanNode
	cost float64
}

// diveCap bounds plan-time index dives: seeking the index with the actual
// constants and counting matches (SQL Server does the same) gives accurate
// cardinalities without histograms — crucial for skewed columns like
// parentID, where "= 0" matches most of the table.
const diveCap = 2048

// Cost-model weights: scanning a covering index entry is much cheaper than
// decoding a full heap record; a non-covering index visit pays an extra
// random heap fetch.
const (
	costHeapRow     = 1.0
	costCoveredRow  = 0.35
	costLookupRow   = 3.0
	costUncappedEst = 0.5 // fraction assumed when a dive hits the cap
)

// orderWant is the one "interesting order" the planner tracks: the table
// columns a single-table SELECT TOP n … ORDER BY sorts by, all ascending.
// An index that delivers this order lets the scan stop once n rows have
// qualified. The zero value wants no order.
type orderWant struct {
	cols []int
	n    int
}

// wantedOrder derives the statement's orderWant over its only source, or the
// zero value when the shape is out of reach of an index order: no TOP,
// DISTINCT, grouping or aggregates, a descending key (the B-tree has no
// reverse iterator), or a key that is not a plain column of the table.
func wantedOrder(s *SelectStmt, src *plannedSource) orderWant {
	if src.table == nil || s.Top <= 0 || len(s.OrderBy) == 0 || s.Distinct || len(s.GroupBy) > 0 || s.Having != nil {
		return orderWant{}
	}
	sc := &scope{cols: src.cols}
	items, err := expandStars(s.Items, sc)
	if err != nil {
		return orderWant{}
	}
	for _, it := range items {
		if hasAgg(it.Expr) {
			return orderWant{}
		}
	}
	cols := make([]int, 0, len(s.OrderBy))
	for _, k := range s.OrderBy {
		if k.Desc {
			return orderWant{}
		}
		e := k.Expr
		if i := orderKeyItem(e, items); i >= 0 {
			e = items[i].Expr
		}
		c, ok := e.(*ColExpr)
		if !ok {
			return orderWant{}
		}
		pos, err := sc.resolve(c.Qualifier, c.Name)
		if err != nil {
			return orderWant{}
		}
		cols = append(cols, pos)
	}
	return orderWant{cols: cols, n: s.Top}
}

// chooseIndex selects the cheapest index access for a table source, or nil
// for a heap scan.
func (p *planner) chooseIndex(t *Table, src *plannedSource, needed []bool, want orderWant) *indexScanNode {
	selfScope := &scope{cols: src.cols}
	heapCost := float64(t.Rows()) * costHeapRow
	best := indexCandidate{cost: heapCost}
	for _, ix := range t.indexes {
		cand := p.matchIndex(t, ix, src, selfScope, needed, want)
		if cand == nil {
			continue
		}
		if best.node == nil || cand.cost < best.cost {
			if cand.cost < heapCost {
				best = *cand
			}
		}
	}
	return best.node
}

func (p *planner) matchIndex(t *Table, ix *Index, src *plannedSource, selfScope *scope, needed []bool, want orderWant) *indexCandidate {
	// Coverage: every needed column is in key or included columns.
	covering := true
	for col, n := range needed {
		if n && !indexHasCol(ix, col) {
			covering = false
			break
		}
	}

	node := &indexScanNode{index: ix, covering: covering}
	bounded := false
	// Collect the raw bound expressions alongside the compiled ones so a
	// plan-time dive can evaluate them.
	var eqRaw []Expr
	var loRaw, hiRaw Expr
	for _, keyCol := range ix.KeyCols {
		var eqExpr Expr
		for _, c := range src.pushed {
			b, ok := c.(*BinExpr)
			if !ok || b.Op != "=" {
				continue
			}
			if colMatches(b.L, selfScope, keyCol) && constExpr(b.R) {
				eqExpr = b.R
				break
			}
			if colMatches(b.R, selfScope, keyCol) && constExpr(b.L) {
				eqExpr = b.L
				break
			}
		}
		if eqExpr == nil {
			// Try a range on this key column, then stop.
			lo, loIncl, hi, hiKind := rangeBounds(src.pushed, selfScope, keyCol)
			if lo != nil {
				if ce, err := compileExpr(lo, &scope{}, p.db); err == nil {
					node.loExpr = ce
					node.loIncl = loIncl
					loRaw = lo
					bounded = true
				}
			}
			if hi != nil {
				if ce, err := compileExpr(hi, &scope{}, p.db); err == nil {
					node.hiExpr = ce
					node.hiKind = hiKind
					hiRaw = hi
					bounded = true
				}
			}
			break
		}
		ce, err := compileExpr(eqExpr, &scope{}, p.db)
		if err != nil {
			break
		}
		node.eqExprs = append(node.eqExprs, ce)
		eqRaw = append(eqRaw, eqExpr)
		bounded = true
	}
	total := float64(t.Rows())
	est := total
	if bounded {
		est = p.diveEstimate(ix, eqRaw, loRaw, node.loIncl, hiRaw, node.hiKind, total)
	}
	perRow := costCoveredRow
	if !covering {
		perRow = costLookupRow
	}

	// Ordered access: within the equality-bound prefix the entries arrive
	// sorted by the remaining key columns, so when those start with the
	// wanted ORDER BY columns the scan can stop after the TOP n rows that
	// pass the residual conjuncts (those no seek bound absorbed) — about
	// n / selectivity(residual) entries by the stats-free guesses. The
	// guesses cannot tell a rare residual from a common one, and a
	// non-covering seek that never fills the heap pays a bookmark lookup per
	// entry of the whole range; so with a residual it is trusted only where
	// even that worst case stays under a heap scan. A covering one cannot
	// lose: its worst case is the unordered candidate on the same index.
	nEq := len(node.eqExprs)
	if want.n > 0 && len(ix.KeyCols)-nEq >= len(want.cols) && slices.Equal(ix.KeyCols[nEq:nEq+len(want.cols)], want.cols) {
		pass, filtered := 1.0, false
		for _, c := range src.pushed {
			if !seekAbsorbs(c, selfScope, ix.KeyCols[:nEq], ix.KeyCols[nEq]) {
				pass *= selectivity(c)
				filtered = true
			}
		}
		if covering || !filtered || est*costLookupRow < total*costHeapRow {
			node.ordered = want.n
			est = math.Min(est, float64(want.n)/pass)
		}
	}
	if !bounded && !covering && node.ordered == 0 {
		return nil
	}
	node.estRows = est
	return &indexCandidate{node: node, cost: est * perRow}
}

// seekAbsorbs reports whether conjunct c has a shape matchIndex turns into a
// seek bound: an equality between one of eqCols and a constant, or a constant
// range on rangeCol.
func seekAbsorbs(c Expr, sc *scope, eqCols []int, rangeCol int) bool {
	switch e := c.(type) {
	case *BinExpr:
		cols := eqCols
		switch e.Op {
		case "=":
		case "<", "<=", ">", ">=":
			cols = []int{rangeCol}
		default:
			return false
		}
		for _, col := range cols {
			if (colMatches(e.L, sc, col) && constExpr(e.R)) || (colMatches(e.R, sc, col) && constExpr(e.L)) {
				return true
			}
		}
	case *BetweenExpr:
		return !e.Not && colMatches(e.X, sc, rangeCol) && constExpr(e.Lo) && constExpr(e.Hi)
	}
	return false
}

// diveEstimate evaluates the constant bounds and counts matching index
// entries, up to diveCap; a capped dive falls back to a pessimistic
// fraction of the table.
func (p *planner) diveEstimate(ix *Index, eqRaw []Expr, loRaw Expr, loIncl bool, hiRaw Expr, hiKind boundKind, total float64) float64 {
	ctx := &ExecCtx{DB: p.db, Session: p.sess, Params: p.params}
	evalConst := func(e Expr) (val.Value, bool) {
		ce, err := compileExpr(e, &scope{}, p.db)
		if err != nil {
			return val.Value{}, false
		}
		v, err := ce(ctx, nil)
		if err != nil {
			return val.Value{}, false
		}
		return v, true
	}
	var seek val.Row
	for _, e := range eqRaw {
		v, ok := evalConst(e)
		if !ok {
			return total * costUncappedEst
		}
		seek = append(seek, v)
	}
	eqLen := len(seek)
	var loVal, hiVal val.Value
	haveLo, haveHi := false, false
	if loRaw != nil {
		if v, ok := evalConst(loRaw); ok {
			seek = append(seek, v)
			loVal = v
			haveLo = true
		}
	}
	if hiRaw != nil {
		if v, ok := evalConst(hiRaw); ok {
			hiVal = v
			haveHi = true
		}
	}
	count := 0
	ix.Ascend(seek, func(key val.Row, rid uint64, incl val.Row) bool {
		if eqLen > 0 && key[:eqLen].Compare(val.Row(seek[:eqLen])) != 0 {
			return false
		}
		if eqLen < len(key) {
			k := key[eqLen]
			if haveLo && !loIncl && k.Compare(loVal) == 0 {
				return true
			}
			if haveHi {
				c := k.Compare(hiVal)
				if c > 0 || (c == 0 && hiKind == boundExclusive) {
					return false
				}
			}
		}
		count++
		return count < diveCap
	})
	if count >= diveCap {
		return total * costUncappedEst
	}
	return float64(count)
}

// indexHasCol reports whether a table column is among the index's key or
// included columns. Linear scan: index column lists are short, and the
// planner calls this in loops where a set allocation per index per query
// would dominate a point lookup's cost.
func indexHasCol(ix *Index, col int) bool {
	for _, c := range ix.KeyCols {
		if c == col {
			return true
		}
	}
	for _, c := range ix.InclCols {
		if c == col {
			return true
		}
	}
	return false
}

// colMatches reports whether e is a plain column reference to position col.
func colMatches(e Expr, sc *scope, col int) bool {
	c, ok := e.(*ColExpr)
	if !ok {
		return false
	}
	pos, err := sc.resolve(c.Qualifier, c.Name)
	return err == nil && pos == col
}

// rangeBounds extracts constant lower/upper bounds on a column from pushed
// conjuncts (>=, >, <=, <, BETWEEN).
func rangeBounds(pushed []Expr, sc *scope, col int) (lo Expr, loIncl bool, hi Expr, hiKind boundKind) {
	for _, c := range pushed {
		switch e := c.(type) {
		case *BinExpr:
			colLeft := colMatches(e.L, sc, col) && constExpr(e.R)
			colRight := colMatches(e.R, sc, col) && constExpr(e.L)
			if !colLeft && !colRight {
				continue
			}
			op := e.Op
			bound := e.R
			if colRight {
				bound = e.L
				// Flip: const < col  ⇒  col > const, etc.
				switch op {
				case "<":
					op = ">"
				case "<=":
					op = ">="
				case ">":
					op = "<"
				case ">=":
					op = "<="
				}
			}
			switch op {
			case ">=":
				if lo == nil {
					lo, loIncl = bound, true
				}
			case ">":
				if lo == nil {
					lo, loIncl = bound, false
				}
			case "<=":
				if hi == nil {
					hi, hiKind = bound, boundInclusive
				}
			case "<":
				if hi == nil {
					hi, hiKind = bound, boundExclusive
				}
			}
		case *BetweenExpr:
			if e.Not || !colMatches(e.X, sc, col) || !constExpr(e.Lo) || !constExpr(e.Hi) {
				continue
			}
			if lo == nil {
				lo, loIncl = e.Lo, true
			}
			if hi == nil {
				hi, hiKind = e.Hi, boundInclusive
			}
		}
	}
	return
}

// buildJoin attaches one more source to the plan, preferring an index-probe
// nested loop when the applicable equality conjuncts match an index prefix
// on the new source. combinedNeeded is the needed mask over the combined
// output width (prefix sources then this one, in join order); the join's
// output batch preallocates exactly those columns.
func (p *planner) buildJoin(outer Node, prefixScope *scope, prefixSet map[int]bool,
	src *plannedSource, si int, needed []bool, combinedNeeded []bool, applicable []Expr) (Node, error) {

	combinedScope := &scope{cols: append(append([]ColRef{}, prefixScope.cols...), src.cols...)}
	// An all-true mask means "materialize everything": pass nil, the
	// convention every mask consumer shares.
	outNeeded := append([]bool(nil), combinedNeeded...)
	allOut := true
	for _, n := range outNeeded {
		if !n {
			allOut = false
			break
		}
	}
	if allOut {
		outNeeded = nil
	}

	if src.table != nil {
		// Find equality conjuncts inner.col = f(prefix).
		eqByCol := map[int]Expr{} // inner col (source-local) -> prefix expr
		for _, c := range applicable {
			b, ok := c.(*BinExpr)
			if !ok || b.Op != "=" {
				continue
			}
			selfScope := &scope{cols: src.cols}
			if lc, ok := b.L.(*ColExpr); ok {
				if pos, err := selfScope.resolve(lc.Qualifier, lc.Name); err == nil && exprOverScope(b.R, prefixScope) {
					eqByCol[pos] = b.R
					continue
				}
			}
			if rc, ok := b.R.(*ColExpr); ok {
				if pos, err := selfScope.resolve(rc.Qualifier, rc.Name); err == nil && exprOverScope(b.L, prefixScope) {
					eqByCol[pos] = b.L
				}
			}
		}
		// Choose the index with the longest matched equality prefix.
		var bestIx *Index
		bestLen := 0
		for _, ix := range src.table.indexes {
			n := 0
			for _, kc := range ix.KeyCols {
				if _, ok := eqByCol[kc]; ok {
					n++
				} else {
					break
				}
			}
			if n > bestLen {
				bestLen = n
				bestIx = ix
			}
		}
		if bestIx != nil {
			probes := make([]compiledExpr, bestLen)
			for i := 0; i < bestLen; i++ {
				ce, err := compileExpr(eqByCol[bestIx.KeyCols[i]], prefixScope, p.db)
				if err != nil {
					return nil, err
				}
				probes[i] = ce
			}
			// Residual: all applicable join conjuncts plus the
			// source's pushed predicates, over the combined row
			// (pushed conjuncts re-resolve against the combined scope
			// because their qualifiers disambiguate).
			resExprs := append(append([]Expr{}, applicable...), src.pushed...)
			var residual *compiledPred
			label := ""
			if len(resExprs) > 0 {
				ce, err := compilePred(andAll(resExprs), combinedScope, p.db)
				if err != nil {
					return nil, err
				}
				residual = ce
				label = exprString(andAll(resExprs))
			}
			covering := true
			for col, n := range needed {
				if n && !indexHasCol(bestIx, col) {
					covering = false
					break
				}
			}
			allNeeded := true
			for _, n := range needed {
				if !n {
					allNeeded = false
					break
				}
			}
			var mask []bool
			if !allNeeded {
				mask = needed
			}
			node := &indexJoinNode{
				outer:      outer,
				inner:      src.table,
				index:      bestIx,
				cols:       combinedScope.cols,
				probeExprs: probes,
				innerWidth: src.width,
				covering:   covering,
				needed:     mask,
				outNeeded:  outNeeded,
				residual:   residual,
				label:      label,
			}
			if covering {
				node.keyDst, node.inclDst = buildScatter(bestIx, mask, len(prefixScope.cols))
			}
			return node, nil
		}
	}

	// Fallback: materialize the inner access path, nested-loop with cond.
	innerNode, err := p.buildAccess(src, needed)
	if err != nil {
		return nil, err
	}
	var cond *compiledPred
	label := ""
	if len(applicable) > 0 {
		ce, err := compilePred(andAll(applicable), combinedScope, p.db)
		if err != nil {
			return nil, err
		}
		cond = ce
		label = exprString(andAll(applicable))
	}
	return &nlJoinNode{outer: outer, inner: innerNode, cols: combinedScope.cols, outNeeded: outNeeded, cond: cond, label: label}, nil
}

// exprOverScope reports whether the expression resolves entirely within the
// scope (i.e. references only prefix columns, variables and literals).
func exprOverScope(e Expr, sc *scope) bool {
	refs := map[int]bool{}
	return exprRefs(e, sc, refs) == nil
}

// expandStars replaces every * and q.* select item with one item per
// matching column of the scope.
func expandStars(in []SelectItem, sc *scope) ([]SelectItem, error) {
	var items []SelectItem
	for _, item := range in {
		if !item.Star {
			items = append(items, item)
			continue
		}
		q := fold(item.Qualifier)
		found := false
		for _, c := range sc.cols {
			if q != "" && fold(c.Qualifier) != q {
				continue
			}
			items = append(items, SelectItem{
				Expr:  &ColExpr{Qualifier: c.Qualifier, Name: c.Name},
				Alias: c.Name,
			})
			found = true
		}
		if !found {
			return nil, fmt.Errorf("sql: %s.* matches no source", item.Qualifier)
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("sql: empty select list")
	}
	return items, nil
}

// outputName is the result-column name of the i-th select item.
func outputName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	return fmt.Sprintf("Column%d", i+1)
}

// orderKeyItem resolves an ORDER BY key that names a select-list item — by
// ordinal or by unqualified output name — to that item's position, or −1
// when the key is an expression of its own.
func orderKeyItem(k Expr, items []SelectItem) int {
	switch e := k.(type) {
	case *LitExpr:
		if n, ok := e.Val.AsInt(); ok && n >= 1 && int(n) <= len(items) {
			return int(n) - 1
		}
	case *ColExpr:
		if e.Qualifier == "" {
			for i, it := range items {
				if fold(outputName(it, i)) == fold(e.Name) {
					return i
				}
			}
		}
	}
	return -1
}

// finishPlan layers aggregation, projection, distinct, order and top on the
// join tree. ordered says the access path below already delivers the ORDER
// BY order (see wantedOrder), so the top-k may stop its input early.
func (p *planner) finishPlan(s *SelectStmt, root Node, inputScope *scope, ordered bool) (Node, error) {
	items, err := expandStars(s.Items, inputScope)
	if err != nil {
		return nil, err
	}

	// Aggregation?
	needAgg := len(s.GroupBy) > 0 || hasAgg(s.Having)
	for _, it := range items {
		if hasAgg(it.Expr) {
			needAgg = true
		}
	}

	projInputScope := inputScope
	having := s.Having
	if needAgg {
		root, projInputScope, items, having, err = p.buildAgg(s, root, inputScope, items)
		if err != nil {
			return nil, err
		}
	}

	if having != nil && !needAgg {
		return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}
	if having != nil {
		cond, err := compilePred(having, projInputScope, p.db)
		if err != nil {
			return nil, err
		}
		root = &filterNode{child: root, cond: cond, label: exprString(having)}
	}

	// Projection.
	outCols := make([]ColRef, len(items))
	exprs := make([]*compiledVec, len(items))
	labels := make([]string, len(items))
	for i, it := range items {
		ce, err := compileVec(it.Expr, projInputScope, p.db)
		if err != nil {
			return nil, err
		}
		exprs[i] = ce
		outCols[i] = ColRef{Name: outputName(it, i), Kind: inferKind(it.Expr, projInputScope)}
		labels[i] = exprString(it.Expr)
		if it.Alias != "" && labels[i] != it.Alias {
			labels[i] += " AS " + it.Alias
		}
	}

	// ORDER BY keys: output alias/ordinal, or hidden expression.
	var hidden []*compiledVec
	var keyPos []int
	var desc []bool
	var keyLabels []string
	for _, k := range s.OrderBy {
		pos := orderKeyItem(k.Expr, items)
		if pos < 0 {
			ce, err := compileVec(k.Expr, projInputScope, p.db)
			if err != nil {
				return nil, err
			}
			pos = len(items) + len(hidden)
			hidden = append(hidden, ce)
		}
		keyPos = append(keyPos, pos)
		desc = append(desc, k.Desc)
		dir := "ASC"
		if k.Desc {
			dir = "DESC"
		}
		keyLabels = append(keyLabels, exprString(k.Expr)+" "+dir)
	}
	if s.Distinct && len(hidden) > 0 {
		return nil, fmt.Errorf("sql: ORDER BY items must appear in the select list when DISTINCT is used")
	}

	root = &projectNode{child: root, cols: outCols, exprs: exprs, hidden: hidden, labels: labels}
	if s.Distinct {
		root = &distinctNode{child: root}
	}
	switch {
	case s.Top > 0 && len(keyPos) > 0:
		// TOP n over ORDER BY fuses into bounded per-worker top-k heaps:
		// peak materialized state is n rows per worker, not the full
		// sorted result.
		root = &topKNode{child: root, keyPos: keyPos, desc: desc, visible: len(items), n: s.Top, ordered: ordered, keyLabel: strings.Join(keyLabels, ", ")}
	case len(keyPos) > 0:
		root = &sortNode{child: root, keyPos: keyPos, desc: desc, visible: len(items), keyLabel: strings.Join(keyLabels, ", ")}
	case len(hidden) > 0:
		root = &stripNode{child: root, visible: len(items)}
	}
	if s.Top > 0 && len(keyPos) == 0 {
		root = &topNode{child: root, n: s.Top}
	}
	// Wrap so Columns() reports the visible schema even above sort/top.
	return &schemaNode{child: root, cols: outCols}, nil
}

// schemaNode pins the output schema of a finished plan.
type schemaNode struct {
	child Node
	cols  []ColRef
}

func (s *schemaNode) Columns() []ColRef { return s.cols }
func (s *schemaNode) Run(ctx *ExecCtx, mk sinkFactory) error {
	return s.child.Run(ctx, mk)
}
func (s *schemaNode) explainTo(sb *strings.Builder, depth int) {
	s.child.explainTo(sb, depth)
}

// buildAgg inserts the aggregation node and rewrites select items and HAVING
// to reference its outputs.
func (p *planner) buildAgg(s *SelectStmt, root Node, inputScope *scope, items []SelectItem) (Node, *scope, []SelectItem, Expr, error) {
	groupMap := map[string]string{} // exprString -> output col name
	var groupCEs []*compiledVec
	var keyLabels []string
	outScope := &scope{}
	for i, g := range s.GroupBy {
		ce, err := compileVec(g, inputScope, p.db)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		groupCEs = append(groupCEs, ce)
		name := fmt.Sprintf("#g%d", i)
		groupMap[exprString(g)] = name
		keyLabels = append(keyLabels, exprString(g))
		outScope.cols = append(outScope.cols, ColRef{Name: name, Kind: inferKind(g, inputScope)})
	}

	aggMap := map[string]string{}
	var aggSpecs []aggSpec
	var aggLabels []string
	collect := func(e Expr) error {
		var walk func(Expr) error
		walk = func(e Expr) error {
			if e == nil {
				return nil
			}
			if a, ok := e.(*AggExpr); ok {
				key := exprString(a)
				if _, dup := aggMap[key]; dup {
					return nil
				}
				name := fmt.Sprintf("#a%d", len(aggSpecs))
				aggMap[key] = name
				spec := aggSpec{name: a.Name}
				if a.Arg != nil {
					ce, err := compileVec(a.Arg, inputScope, p.db)
					if err != nil {
						return err
					}
					spec.arg = ce
				}
				aggSpecs = append(aggSpecs, spec)
				aggLabels = append(aggLabels, key)
				outScope.cols = append(outScope.cols, ColRef{Name: name, Kind: inferKind(a, inputScope)})
				return nil
			}
			return walkChildren(e, walk)
		}
		return walk(e)
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if err := collect(s.Having); err != nil {
		return nil, nil, nil, nil, err
	}
	for _, k := range s.OrderBy {
		if err := collect(k.Expr); err != nil {
			return nil, nil, nil, nil, err
		}
	}

	node := &aggNode{
		child:     root,
		cols:      outScope.cols,
		groupBy:   groupCEs,
		aggs:      aggSpecs,
		keyLabels: keyLabels,
		aggLabels: aggLabels,
	}

	// Rewrite items, having and order keys to the agg output scope.
	newItems := make([]SelectItem, len(items))
	for i, it := range items {
		re, err := rewriteAgg(it.Expr, groupMap, aggMap)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		newItems[i] = SelectItem{Expr: re, Alias: it.Alias}
	}
	var newHaving Expr
	if s.Having != nil {
		re, err := rewriteAgg(s.Having, groupMap, aggMap)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		newHaving = re
	}
	for i, k := range s.OrderBy {
		if re, err := rewriteAgg(k.Expr, groupMap, aggMap); err == nil {
			s.OrderBy[i] = OrderKey{Expr: re, Desc: k.Desc}
		}
	}
	return node, outScope, newItems, newHaving, nil
}

// walkChildren visits an expression's direct children.
func walkChildren(e Expr, fn func(Expr) error) error {
	switch e := e.(type) {
	case *UnaryExpr:
		return fn(e.X)
	case *BinExpr:
		if err := fn(e.L); err != nil {
			return err
		}
		return fn(e.R)
	case *BetweenExpr:
		for _, x := range []Expr{e.X, e.Lo, e.Hi} {
			if err := fn(x); err != nil {
				return err
			}
		}
	case *InExpr:
		if err := fn(e.X); err != nil {
			return err
		}
		for _, x := range e.List {
			if err := fn(x); err != nil {
				return err
			}
		}
	case *LikeExpr:
		if err := fn(e.X); err != nil {
			return err
		}
		return fn(e.Pattern)
	case *IsNullExpr:
		return fn(e.X)
	case *FuncExpr:
		for _, a := range e.Args {
			if err := fn(a); err != nil {
				return err
			}
		}
	case *CaseExpr:
		for _, w := range e.Whens {
			if err := fn(w.Cond); err != nil {
				return err
			}
			if err := fn(w.Then); err != nil {
				return err
			}
		}
		if e.Else != nil {
			return fn(e.Else)
		}
	}
	return nil
}

// rewriteAgg replaces group-by expressions and aggregate calls with
// references to the aggregation node's output columns.
func rewriteAgg(e Expr, groupMap, aggMap map[string]string) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	if name, ok := groupMap[exprString(e)]; ok {
		return &ColExpr{Name: name}, nil
	}
	switch e := e.(type) {
	case *AggExpr:
		if name, ok := aggMap[exprString(e)]; ok {
			return &ColExpr{Name: name}, nil
		}
		return nil, fmt.Errorf("sql: uncollected aggregate %s", exprString(e))
	case *LitExpr, *VarExpr, *ParamExpr:
		return e, nil
	case *ColExpr:
		return nil, fmt.Errorf("sql: column %s is invalid in the select list because it is not contained in either an aggregate function or the GROUP BY clause", exprString(e))
	case *UnaryExpr:
		x, err := rewriteAgg(e.X, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: e.Op, X: x}, nil
	case *BinExpr:
		l, err := rewriteAgg(e.L, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		r, err := rewriteAgg(e.R, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: e.Op, L: l, R: r}, nil
	case *BetweenExpr:
		x, err := rewriteAgg(e.X, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		lo, err := rewriteAgg(e.Lo, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		hi, err := rewriteAgg(e.Hi, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: x, Lo: lo, Hi: hi, Not: e.Not}, nil
	case *InExpr:
		x, err := rewriteAgg(e.X, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(e.List))
		for i, le := range e.List {
			if list[i], err = rewriteAgg(le, groupMap, aggMap); err != nil {
				return nil, err
			}
		}
		return &InExpr{X: x, List: list, Not: e.Not}, nil
	case *LikeExpr:
		x, err := rewriteAgg(e.X, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		pat, err := rewriteAgg(e.Pattern, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &LikeExpr{X: x, Pattern: pat, Not: e.Not}, nil
	case *IsNullExpr:
		x, err := rewriteAgg(e.X, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{X: x, Not: e.Not}, nil
	case *FuncExpr:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			ra, err := rewriteAgg(a, groupMap, aggMap)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return &FuncExpr{Name: e.Name, Args: args}, nil
	case *CaseExpr:
		out := &CaseExpr{}
		for _, w := range e.Whens {
			c, err := rewriteAgg(w.Cond, groupMap, aggMap)
			if err != nil {
				return nil, err
			}
			t, err := rewriteAgg(w.Then, groupMap, aggMap)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, CaseWhen{Cond: c, Then: t})
		}
		if e.Else != nil {
			el, err := rewriteAgg(e.Else, groupMap, aggMap)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil
	default:
		return nil, fmt.Errorf("sql: cannot rewrite %T under aggregation", e)
	}
}

// exprString renders an expression canonically, for EXPLAIN labels and for
// structural matching of GROUP BY expressions.
func exprString(e Expr) string {
	switch e := e.(type) {
	case nil:
		return ""
	case *LitExpr:
		if e.Val.K == val.KindString {
			return "'" + e.Val.S + "'"
		}
		return e.Val.String()
	case *ColExpr:
		if e.Qualifier != "" {
			return e.Qualifier + "." + e.Name
		}
		return e.Name
	case *VarExpr:
		return "@" + e.Name
	case *ParamExpr:
		// Parameters of one normalized shape print by index, so structural
		// matching (GROUP BY vs select list) works exactly as it does for
		// repeated equal literals — the normalizer gives those one index.
		return "?" + strconv.Itoa(e.Idx)
	case *UnaryExpr:
		if e.Op == "not" {
			return "NOT " + exprString(e.X)
		}
		return e.Op + exprString(e.X)
	case *BinExpr:
		return "(" + exprString(e.L) + " " + strings.ToUpper(e.Op) + " " + exprString(e.R) + ")"
	case *BetweenExpr:
		n := ""
		if e.Not {
			n = "NOT "
		}
		return "(" + exprString(e.X) + " " + n + "BETWEEN " + exprString(e.Lo) + " AND " + exprString(e.Hi) + ")"
	case *InExpr:
		parts := make([]string, len(e.List))
		for i, x := range e.List {
			parts[i] = exprString(x)
		}
		n := ""
		if e.Not {
			n = "NOT "
		}
		return "(" + exprString(e.X) + " " + n + "IN (" + strings.Join(parts, ", ") + "))"
	case *LikeExpr:
		n := ""
		if e.Not {
			n = "NOT "
		}
		return "(" + exprString(e.X) + " " + n + "LIKE " + exprString(e.Pattern) + ")"
	case *IsNullExpr:
		if e.Not {
			return "(" + exprString(e.X) + " IS NOT NULL)"
		}
		return "(" + exprString(e.X) + " IS NULL)"
	case *FuncExpr:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = exprString(a)
		}
		return e.Name + "(" + strings.Join(parts, ", ") + ")"
	case *CaseExpr:
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range e.Whens {
			sb.WriteString(" WHEN " + exprString(w.Cond) + " THEN " + exprString(w.Then))
		}
		if e.Else != nil {
			sb.WriteString(" ELSE " + exprString(e.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	case *AggExpr:
		if e.Arg == nil {
			return e.Name + "(*)"
		}
		return e.Name + "(" + exprString(e.Arg) + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}
