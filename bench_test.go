package skyserver

// One benchmark per table and figure of the paper's evaluation, wrapping
// internal/experiments (cmd/skybench prints the same measurements as
// reports):
//
//	Table 1    BenchmarkTable1Load
//	Figure 5   BenchmarkFig5Traffic
//	Fig 10–12  BenchmarkFig13Queries/Q1, /Q15A, /Q15B (plans printed by skybench)
//	Figure 12  BenchmarkIndexVsScanQ15B (the covering-index ablation)
//	Figure 13  BenchmarkFig13Queries/*
//	Figure 15  BenchmarkFig15ScanScaling/*
//	§11 prose  BenchmarkWarmColdIndexScan, BenchmarkColorCutScan
//	§9.1.1     BenchmarkNeighborsBuild
//	§9.4       BenchmarkLoadPipeline
//	§10        BenchmarkPersonalSubset

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"skyserver/internal/core"
	"skyserver/internal/experiments"
	"skyserver/internal/load"
	"skyserver/internal/neighbors"
	"skyserver/internal/pipeline"
	"skyserver/internal/queries"
	"skyserver/internal/resultcache"
	"skyserver/internal/schema"
	"skyserver/internal/sqlengine"
	"skyserver/internal/storage"
	"skyserver/internal/traffic"
)

// benchScale keeps `go test -bench=. ./...` tractable: 1/1000 of the EDR is
// ~14k photo objects. cmd/skybench runs the same experiments at any -scale.
const benchScale = 1.0 / 1000

var (
	benchOnce sync.Once
	benchSrv  *core.SkyServer
	benchErr  error
)

func benchServer(b *testing.B) *core.SkyServer {
	b.Helper()
	benchOnce.Do(func() {
		benchSrv, benchErr = core.Open(core.Config{Scale: benchScale, SkipFrames: true})
	})
	if benchErr != nil {
		b.Fatalf("building bench survey: %v", benchErr)
	}
	return benchSrv
}

// BenchmarkTable1Load regenerates Table 1: the pipeline-to-database load of
// the full schema, reporting rows and bytes per second.
func BenchmarkTable1Load(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fg := storage.NewMemFileGroup(4, 1<<14)
		sdb, err := schema.Build(fg)
		if err != nil {
			b.Fatal(err)
		}
		l := load.New(sdb)
		stats, err := l.LoadSurvey(pipeline.Config{Scale: 1.0 / 8000, Seed: int64(i + 1), SkipFrames: true})
		if err != nil {
			b.Fatal(err)
		}
		var bytes uint64
		for _, t := range sdb.Tables() {
			bytes += t.DataBytes()
		}
		b.SetBytes(int64(bytes))
		if stats.Truth.Objects == 0 {
			b.Fatal("empty survey")
		}
	}
}

// BenchmarkFig5Traffic regenerates Figure 5: seven months of synthetic logs
// through the sessionizing analyzer.
func BenchmarkFig5Traffic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig5(traffic.Config{Seed: int64(i + 1), BaseSessions: 20})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Sessions == 0 {
			b.Fatal("no sessions")
		}
	}
}

// BenchmarkFig13Queries runs each of the paper's 22 evaluation queries as a
// sub-benchmark — the Figure 13 series.
func BenchmarkFig13Queries(b *testing.B) {
	s := benchServer(b)
	for _, q := range queries.All() {
		q := q
		b.Run("Q"+q.ID, func(b *testing.B) {
			b.ReportAllocs()
			sess := s.Session()
			sql, err := q.SQL(sess)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(sql, sqlengine.ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexVsScanQ15B is the Figure 12 ablation: the NEO pair query
// with its covering index versus as a nested loop of table scans, cold, on
// the paper's 4-disk model.
func BenchmarkIndexVsScanQ15B(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// SpeedUp 2: disks at twice real time — slow enough that the
		// I/O gap the paper reports dominates, fast enough to bench.
		r, err := experiments.Fig12(experiments.Fig12Config{Scale: benchScale, Seed: int64(i + 1), SpeedUp: 2})
		if err != nil {
			b.Fatal(err)
		}
		if r.RowsWith != r.RowsWithout || r.RowsWith != 4 {
			b.Fatalf("answers diverge: %d vs %d", r.RowsWith, r.RowsWithout)
		}
		b.ReportMetric(r.WithIndex.Seconds()*1000, "withIndex-ms")
		b.ReportMetric(r.WithoutIndex.Seconds()*1000, "withoutIndex-ms")
	}
}

// BenchmarkFig15ScanScaling measures sequential-scan bandwidth under the
// §12 disk model at three of Figure 15's configurations.
func BenchmarkFig15ScanScaling(b *testing.B) {
	for _, disks := range []int{1, 4, 12} {
		disks := disks
		b.Run(fmt.Sprintf("%ddisk", disks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Fig15(experiments.Fig15Config{
					Disks: []int{disks}, MBPerDisk: 16,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[0].RawMBps, "raw-modelMB/s")
				b.ReportMetric(pts[0].SQLMBps, "sql-modelMB/s")
			}
		})
	}
}

// BenchmarkWarmColdIndexScan reproduces the §11 warm/cold scan comparison
// via the page cache (cold pays the volumes for every page, warm is pure
// CPU — the paper's 17s vs 7s contrast).
func BenchmarkWarmColdIndexScan(b *testing.B) {
	s := benchServer(b)
	const q = "select count(*) from PhotoObj where (petroMag_r - petroMag_g) > 1"
	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.DB().DB.FileGroup().DropCache()
			if _, err := s.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		b.ReportAllocs()
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColorCutScan is §12's color-cut aggregate in both access paths:
// the bare (r-g) form is answered from the covering index (the paper's
// tag-table replacement), the petroMag form must scan the heap.
func BenchmarkColorCutScan(b *testing.B) {
	s := benchServer(b)
	bytes := s.DB().PhotoObj.DataBytes()
	b.Run("CoveredIndex", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(bytes))
		for i := 0; i < b.N; i++ {
			if _, err := s.Query("select count(*) from PhotoObj where (r - g) > 1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HeapScan", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(bytes))
		for i := 0; i < b.N; i++ {
			if _, err := s.Query("select count(*) from PhotoObj where (petroMag_r - petroMag_g) > 1"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchVsRowFilter contrasts the vectorized filter kernels with
// the preserved row-at-a-time expression fallback (ForceRowExprs) on the
// §12 color-cut scan. Both run on the same batch pipeline; only expression
// evaluation differs — the gap is pure per-row interpreter overhead.
func BenchmarkBatchVsRowFilter(b *testing.B) {
	s := benchServer(b)
	const q = "select count(*) from PhotoObj where (r - g) > 1 and r < 22"
	bytes := s.DB().PhotoObj.DataBytes()
	run := func(b *testing.B, opt sqlengine.ExecOptions) {
		b.ReportAllocs()
		b.SetBytes(int64(bytes))
		sess := s.Session()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec(q, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Vectorized", func(b *testing.B) { run(b, sqlengine.ExecOptions{}) })
	b.Run("RowFallback", func(b *testing.B) { run(b, sqlengine.ExecOptions{ForceRowExprs: true}) })
}

// BenchmarkNeighborsBuild times the §9.1.1 zone join that materializes the
// Neighbors table.
func BenchmarkNeighborsBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.Open(core.Config{
			Scale: benchScale, Seed: int64(i + 1),
			SkipFrames: true, SkipBlobs: true, SkipNeighbors: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := neighbors.Build(s.DB(), neighbors.DefaultRadiusArcmin)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(n)/float64(s.DB().PhotoObj.Rows()), "pairs/object")
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkLoadPipeline is §9.4's load throughput (the paper: ~5 GB/hour on
// year-2001 hardware).
func BenchmarkLoadPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Load(1.0/8000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(r.Bytes))
		b.ReportMetric(r.GBPerHour, "GB/hour")
	}
}

// BenchmarkPersonalSubset carves the §10 personal SkyServer.
func BenchmarkPersonalSubset(b *testing.B) {
	b.ReportAllocs()
	s := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := s.PersonalSubset(184.5, 185.5, -1.0, 0.0)
		if err != nil {
			b.Fatal(err)
		}
		if sub.DB().PhotoObj.Rows() == 0 {
			b.Fatal("empty subset")
		}
		sub.Close()
	}
}

// BenchmarkPlanCache measures the three plan-cache paths on the Q9 index
// seek (the shape most dominated by parse+plan cost after PR 2): Hit is
// the steady state — normalize, probe, bind, execute, with no parsing or
// planning; Miss clears the cache each iteration, paying
// normalize + parse + compile + store + execute; Disabled is the
// ExecOptions.DisablePlanCache oracle, the pre-cache pipeline with
// literals compiled in place.
func BenchmarkPlanCache(b *testing.B) {
	s := benchServer(b)
	var q queries.Query
	for _, cand := range queries.All() {
		if cand.ID == "9" {
			q = cand
		}
	}
	sql, err := q.SQL(s.Session())
	if err != nil {
		b.Fatal(err)
	}
	db := s.DB().DB
	run := func(b *testing.B, opt sqlengine.ExecOptions, clear bool) {
		b.ReportAllocs()
		sess := s.Session()
		if _, err := sess.Exec(sql, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if clear {
				db.Plans().Clear()
			}
			if _, err := sess.Exec(sql, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Hit", func(b *testing.B) { run(b, sqlengine.ExecOptions{}, false) })
	b.Run("Miss", func(b *testing.B) { run(b, sqlengine.ExecOptions{}, true) })
	b.Run("Disabled", func(b *testing.B) { run(b, sqlengine.ExecOptions{DisablePlanCache: true}, false) })
}

// BenchmarkResultCacheHit measures the repeat-lookup fast path the web
// layer runs before admission on the same Q9 seek BenchmarkPlanCache
// uses: normalize the SQL to its result key, probe the version-keyed
// result cache, and match the stored ETag — no parse tree, no plan
// binding, no scan, no serialization. Compare against
// BenchmarkPlanCache/Hit (the best the engine does without it) for the
// short-circuit factor; the gate also pins the path allocation-flat.
func BenchmarkResultCacheHit(b *testing.B) {
	b.ReportAllocs()
	s := benchServer(b)
	var q queries.Query
	for _, cand := range queries.All() {
		if cand.ID == "9" {
			q = cand
		}
	}
	sess := s.Session()
	sql, err := q.SQL(sess)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sess.Exec(sql, sqlengine.ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cp := res.Compiled()
	if cp == nil || !res.Cacheable || !cp.ResultCacheable() {
		b.Fatal("Q9 did not produce a cacheable compiled plan")
	}
	cache := resultcache.New(0, 0)
	key, _, ok := sess.ResultKey(sql, nil)
	if !ok {
		b.Fatal("ResultKey failed")
	}
	etag := resultcache.ETag(key, cp.VersionDigest())
	if !cache.Store(key, etag, "text/csv", "interactive", make([]byte, 4096), cp) {
		b.Fatal("store rejected")
	}
	db := s.DB().DB
	keyBuf := make([]byte, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, _, ok := sess.ResultKey(sql, keyBuf[:0])
		if !ok {
			b.Fatal("ResultKey failed")
		}
		e := cache.Probe(k, db.SchemaVersion())
		if e == nil {
			b.Fatal("probe missed")
		}
		if e.ETag != etag {
			b.Fatal("etag mismatch")
		}
	}
}

// BenchmarkParallelAgg measures the PR 8 partial+merge aggregation on a
// GROUP BY over the full PhotoObj heap scan: Serial pins the
// MaxConcurrency=1 plan (one hash table fed in scan order), Parallel the
// per-worker partial hash tables merged after the scan. On a single-core
// machine the two should be within noise of each other (the gate cares
// about allocations, which must stay flat under pooled partials); on
// multi-core hardware Parallel is where the ≥1.5× shows up.
func BenchmarkParallelAgg(b *testing.B) {
	s := benchServer(b)
	const q = "select floor(petroMag_r) as bin, count(*) as n, avg(petroMag_g) as g " +
		"from PhotoObj group by floor(petroMag_r) order by bin"
	bytes := s.DB().PhotoObj.DataBytes()
	run := func(b *testing.B, opt sqlengine.ExecOptions) {
		b.ReportAllocs()
		b.SetBytes(int64(bytes))
		sess := s.Session()
		if _, err := sess.Exec(q, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec(q, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Serial", func(b *testing.B) { run(b, sqlengine.ExecOptions{MaxConcurrency: 1}) })
	b.Run("Parallel", func(b *testing.B) { run(b, sqlengine.ExecOptions{}) })
}

// BenchmarkTopKSort measures the TOP n ORDER BY fusion: per-worker bounded
// top-k heaps over a heap scan instead of a full materialize-and-sort.
// Peak live rows are O(n × workers) regardless of input size, and the
// pooled heap storage keeps the steady state allocation-flat.
func BenchmarkTopKSort(b *testing.B) {
	s := benchServer(b)
	const q = "select top 10 objID, petroMag_r from PhotoObj order by petroMag_r"
	bytes := s.DB().PhotoObj.DataBytes()
	run := func(b *testing.B, opt sqlengine.ExecOptions) {
		b.ReportAllocs()
		b.SetBytes(int64(bytes))
		sess := s.Session()
		if _, err := sess.Exec(q, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec(q, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Serial", func(b *testing.B) { run(b, sqlengine.ExecOptions{MaxConcurrency: 1}) })
	b.Run("Parallel", func(b *testing.B) { run(b, sqlengine.ExecOptions{}) })
}

// BenchmarkOrderedTopN measures ordered index access: a TOP n whose ORDER
// BY an index already delivers reads n+1 entries and stops. Gallery is the
// famous-places statement (a bookmark lookup per entry: isoA_r is in no
// index), Covered the same without isoA_r, NeighborsPanel the Explorer's
// ten nearest neighbors. TopKSort above is the control: no index sorts
// petroMag_r, so its plan and numbers must not move.
func BenchmarkOrderedTopN(b *testing.B) {
	s := benchServer(b)
	sess := s.Session()
	res, err := sess.Exec("select top 1 objID from Neighbors order by objID", sqlengine.ExecOptions{})
	if err != nil || len(res.Rows) != 1 {
		b.Fatalf("no object with neighbors: %v", err)
	}
	for _, c := range []struct{ name, q string }{
		{"Gallery", "select top 20 objID, ra, dec, r, isoA_r from Galaxy order by r asc"},
		{"Covered", "select top 20 objID, ra, dec, r from Galaxy order by r asc"},
		{"NeighborsPanel", fmt.Sprintf("select top 10 neighborObjID, distance from Neighbors where objID = %d order by distance", res.Rows[0][0].I)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			res, err := sess.Exec(c.q, sqlengine.ExecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !strings.Contains(res.Plan, ", ordered)") {
				b.Fatalf("not an ordered plan:\n%s", res.Plan)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(c.q, sqlengine.ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	benchShardOnce sync.Once
	benchShardSrv  *core.SkyServer
	benchShardErr  error
)

// benchShardedServer loads the bench survey once across 4 HTM-trixel
// shards — the layout `skyserver -shards 4` serves.
func benchShardedServer(b *testing.B) *core.SkyServer {
	b.Helper()
	benchShardOnce.Do(func() {
		benchShardSrv, benchShardErr = core.Open(core.Config{Scale: benchScale, Shards: 4, SkipFrames: true})
	})
	if benchShardErr != nil {
		b.Fatalf("building sharded bench survey: %v", benchShardErr)
	}
	return benchShardSrv
}

// BenchmarkShardedConeSearch measures what shard routing buys a spatial
// range scan on a 4-shard layout. Pruned is an htmID range owned by one
// shard (psfMag_r is in no index, so this is a heap scan); AllShards is
// the same predicate written as htmID+0, which defeats the planner's
// route extraction and fans the identical scan out to every shard. The
// fixture asserts the all-shards variant reads ≥2× the heap pages — the
// routing win the PR claims — so a silent routing regression fails the
// bench job before the timing gate even looks at it.
func BenchmarkShardedConeSearch(b *testing.B) {
	s := benchShardedServer(b)
	r := s.DB().DB.Shards().Plan().Range(1)
	pruned := fmt.Sprintf("select sum(psfMag_r) from PhotoObj where htmID between %d and %d", r.Lo, r.Hi-1)
	allShards := fmt.Sprintf("select sum(psfMag_r) from PhotoObj where htmID+0 between %d and %d", r.Lo, r.Hi-1)

	sess := s.Session()
	resP, err := sess.Exec(pruned, sqlengine.ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(resP.Plan, "Shards(1/4)") {
		b.Fatalf("pruned scan not routed to one shard:\n%s", resP.Plan)
	}
	resA, err := sess.Exec(allShards, sqlengine.ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(resA.Plan, "Shards(4/4)") {
		b.Fatalf("htmID+0 scan unexpectedly routed:\n%s", resA.Plan)
	}
	if resP.PagesScanned == 0 || resA.PagesScanned < 2*resP.PagesScanned {
		b.Fatalf("routing win below 2×: pruned scanned %d pages, all-shards %d",
			resP.PagesScanned, resA.PagesScanned)
	}

	run := func(b *testing.B, q string, pages int64) {
		b.ReportAllocs()
		sess := s.Session()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec(q, sqlengine.ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(pages), "pages")
	}
	b.Run("Pruned", func(b *testing.B) { run(b, pruned, resP.PagesScanned) })
	b.Run("AllShards", func(b *testing.B) { run(b, allShards, resA.PagesScanned) })
}

// BenchmarkSpatialLookup measures the fGetNearbyObjEq path: HTM cover plus
// covered index range scans — the heart of §9.1.4.
func BenchmarkSpatialLookup(b *testing.B) {
	b.ReportAllocs()
	s := benchServer(b)
	sess := s.Session()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Exec("select count(*) from fGetNearbyObjEq(185, -0.5, 1)", sqlengine.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0][0].I != 22 {
			b.Fatalf("TVF rows = %d, want 22", res.Rows[0][0].I)
		}
	}
}
