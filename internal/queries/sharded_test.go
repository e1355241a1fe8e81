package queries

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"skyserver/internal/load"
	"skyserver/internal/neighbors"
	"skyserver/internal/pipeline"
	"skyserver/internal/schema"
	"skyserver/internal/shard"
	"skyserver/internal/sky"
	"skyserver/internal/sqlengine"
	"skyserver/internal/storage"
)

// shardedSurvey builds (once per shard count) the same survey the
// unsharded fixture loads, but partitioned across n HTM-trixel shards
// with footprint-balanced ranges — the layout core.Open(-shards n)
// produces.
var (
	shardedMu  sync.Mutex
	shardedDBs = map[int]*schema.SkyDB{}
)

func shardedSurvey(t *testing.T, n int) *schema.SkyDB {
	t.Helper()
	shardedMu.Lock()
	defer shardedMu.Unlock()
	if db, ok := shardedDBs[n]; ok {
		return db
	}
	pcfg := pipeline.Config{Scale: 1.0 / 2000, SkipFrames: true}
	grid := pcfg.Footprint()
	raMax := grid.RA0 + float64(grid.FieldsPerStrip)*sky.FieldHeightDeg
	decMax := grid.Dec0 + float64(grid.Stripes)*sky.StripeWidthDeg
	plan := shard.ForRect(grid.RA0, grid.Dec0, raMax, decMax, n)
	fgs := make([]*storage.FileGroup, n)
	for i := range fgs {
		fgs[i] = storage.NewMemFileGroup(2, 2048)
	}
	sdbN, err := schema.BuildGroup(shard.New(plan, fgs))
	if err != nil {
		t.Fatalf("BuildGroup(%d shards): %v", n, err)
	}
	if _, err := load.New(sdbN).LoadSurvey(pcfg); err != nil {
		t.Fatalf("LoadSurvey(%d shards): %v", n, err)
	}
	if _, err := neighbors.Build(sdbN, neighbors.DefaultRadiusArcmin); err != nil {
		t.Fatalf("neighbors(%d shards): %v", n, err)
	}
	shardedDBs[n] = sdbN
	return sdbN
}

// TestShardedAndSingleAgree is the scatter-gather equivalence oracle:
// the whole Figure 13 workload against 2-, 4-, and 7-shard layouts must
// produce the same result sets as the unsharded baseline — rows
// byte-identical for ordered queries, multiset-identical (canonicalized
// floats) for unordered ones, cardinality for the nondeterministic Q20.
// Under -race this also exercises the cross-shard sink fan-in for
// races.
func TestShardedAndSingleAgree(t *testing.T) {
	base, _ := survey(t)
	for _, n := range []int{1, 2, 4, 7} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			var sdbN *schema.SkyDB
			if n == 1 {
				sdbN = base
			} else {
				sdbN = shardedSurvey(t, n)
			}
			for _, q := range All() {
				q := q
				t.Run("Q"+q.ID, func(t *testing.T) {
					baseSess := sqlengine.NewSession(base.DB)
					shardSess := sqlengine.NewSession(sdbN.DB)
					sql, err := q.SQL(baseSess)
					if err != nil {
						t.Fatalf("Q%s parameter lookup: %v", q.ID, err)
					}
					alt, err := q.SQL(shardSess)
					if err != nil {
						t.Fatalf("Q%s sharded parameter lookup: %v", q.ID, err)
					}
					if alt != sql {
						t.Fatalf("Q%s parameter lookups diverge:\n%s\nvs\n%s", q.ID, sql, alt)
					}
					want, err := baseSess.Exec(sql, sqlengine.ExecOptions{})
					if err != nil {
						t.Fatalf("Q%s unsharded: %v", q.ID, err)
					}
					got, err := shardSess.Exec(sql, sqlengine.ExecOptions{})
					if err != nil {
						t.Fatalf("Q%s %d-shard: %v", q.ID, n, err)
					}
					if q.ID == "20" {
						if len(want.Rows) != len(got.Rows) {
							t.Fatalf("Q20: %d rows unsharded vs %d rows %d-shard", len(want.Rows), len(got.Rows), n)
						}
						return
					}
					compareStable(t, q.ID+" sharded-vs-single", want, got)
				})
			}
			// The page statements stop an ordered index seek early. Index
			// order inside a tie group follows the shard-tagged RIDs, so
			// this is where a top-k that trusted it would diverge: rows
			// must match position by position, and the ordered ones must
			// read a few entries, not the table.
			for _, ps := range pageStatements {
				ps := ps
				t.Run(ps.name, func(t *testing.T) {
					baseSess := sqlengine.NewSession(base.DB)
					shardSess := sqlengine.NewSession(sdbN.DB)
					sql := pageSQL(t, baseSess, ps.sql)
					if alt := pageSQL(t, shardSess, ps.sql); alt != sql {
						t.Fatalf("%s parameter lookups diverge:\n%s\nvs\n%s", ps.name, sql, alt)
					}
					want, err := baseSess.Exec(sql, sqlengine.ExecOptions{})
					if err != nil {
						t.Fatalf("%s unsharded: %v", ps.name, err)
					}
					got, err := shardSess.Exec(sql, sqlengine.ExecOptions{})
					if err != nil {
						t.Fatalf("%s %d-shard: %v", ps.name, n, err)
					}
					if len(want.Rows) == 0 || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
						t.Fatalf("%s: %d-shard rows differ from unsharded:\n%v\nvs\n%v", ps.name, n, got.Rows, want.Rows)
					}
					if strings.Contains(got.Plan, ", ordered)") {
						if top := int64(len(got.Rows)); got.RowsScanned > 4*top {
							t.Errorf("%s: scanned %d entries for top %d, want ≤ 4n\n%s", ps.name, got.RowsScanned, top, got.Plan)
						}
					} else if !strings.HasSuffix(ps.name, "-key") {
						t.Errorf("%s: not an ordered plan:\n%s", ps.name, got.Plan)
					}
				})
			}
		})
	}
}

// TestShardedExplainRouting pins the planner's cover→shard pruning as it
// surfaces in EXPLAIN: a heap scan bounded to a sub-range of htmID shows
// Shards(k/N) with k < N, while a scan with no usable spatial bound
// fans out to Shards(N/N).
func TestShardedExplainRouting(t *testing.T) {
	sdbN := shardedSurvey(t, 4)
	plan := sdbN.DB.Shards().Plan()
	// A range spanning shards 1..2 only. Wide enough (> the planner's
	// dive cap) that the htmID index loses to the sharded heap scan;
	// psfMag_r keeps covering indexes out (it is in no index's columns).
	lo, hi := plan.Range(1).Lo, plan.Range(2).Hi-1
	sql := fmt.Sprintf("select sum(psfMag_r) from PhotoObj where htmID between %d and %d", lo, hi)
	res, err := sqlengine.NewSession(sdbN.DB).Exec(sql, sqlengine.ExecOptions{})
	if err != nil {
		t.Fatalf("pruned scan: %v", err)
	}
	pruned := regexp.MustCompile(`Shards\([123]/4\)`)
	if !pruned.MatchString(res.Plan) {
		t.Fatalf("pruned cone-range plan missing Shards(k/4), k<4:\n%s", res.Plan)
	}
	// Non-spatial sweep: no htmID bound, so the scan must fan out.
	res, err = sqlengine.NewSession(sdbN.DB).Exec("select sum(psfMag_r) from PhotoObj", sqlengine.ExecOptions{})
	if err != nil {
		t.Fatalf("full sweep: %v", err)
	}
	if !strings.Contains(res.Plan, "Shards(4/4)") {
		t.Fatalf("non-spatial sweep plan missing Shards(4/4):\n%s", res.Plan)
	}
}

// TestShardedClassFlips is the parameter-sniffing regression: one plan,
// cached from a binding that routes to a pruned shard subset (and so
// classifies interactive), must re-classify as batch when a later
// binding through the same cached plan fans out to every shard.
func TestShardedClassFlips(t *testing.T) {
	sdbN := shardedSurvey(t, 4)
	plan := sdbN.DB.Shards().Plan()
	sess := sqlengine.NewSession(sdbN.DB)

	narrow := fmt.Sprintf("select sum(psfMag_r) from PhotoObj where htmID between %d and %d",
		plan.Range(1).Lo, plan.Range(2).Hi-1)
	res, err := sess.Exec(narrow, sqlengine.ExecOptions{})
	if err != nil {
		t.Fatalf("narrow: %v", err)
	}
	if res.Class != sqlengine.ClassInteractive {
		t.Fatalf("2-of-4-shard scan classified %v, want interactive (plan:\n%s)", res.Class, res.Plan)
	}

	// Same statement shape — the literals normalize into parameters, so
	// this binds the plan cached above — but covering every shard (the
	// upper bound is the top of the legal depth-20 HTM ID space; the
	// last shard's Range().Hi is MaxUint64, which no int literal holds).
	wide := fmt.Sprintf("select sum(psfMag_r) from PhotoObj where htmID between %d and %d",
		0, uint64(16)<<40)
	res, err = sess.Exec(wide, sqlengine.ExecOptions{})
	if err != nil {
		t.Fatalf("wide: %v", err)
	}
	if !res.PlanCacheHit {
		t.Fatalf("wide binding missed the plan cache; the flip must happen on the cached plan")
	}
	if res.Class != sqlengine.ClassBatch {
		t.Fatalf("all-shard binding through the cached plan classified %v, want batch", res.Class)
	}

	// And back: the cached plan classifies each binding independently.
	res, err = sess.Exec(narrow, sqlengine.ExecOptions{})
	if err != nil {
		t.Fatalf("narrow again: %v", err)
	}
	if !res.PlanCacheHit || res.Class != sqlengine.ClassInteractive {
		t.Fatalf("re-narrowed binding: hit=%v class=%v, want cached interactive", res.PlanCacheHit, res.Class)
	}
}

// TestShardedRoutingCounters checks the /x/shards accounting end to end:
// a pruned scan increments spatialRouted and only the routed shards'
// counters; a full sweep increments fullRouted on every shard.
func TestShardedRoutingCounters(t *testing.T) {
	sdbN := shardedSurvey(t, 4)
	g := sdbN.DB.Shards()
	plan := g.Plan()
	before := g.Stats()

	sess := sqlengine.NewSession(sdbN.DB)
	narrow := fmt.Sprintf("select sum(psfMag_r) from PhotoObj where htmID between %d and %d",
		plan.Range(1).Lo, plan.Range(1).Hi-1)
	if _, err := sess.Exec(narrow, sqlengine.ExecOptions{}); err != nil {
		t.Fatalf("narrow: %v", err)
	}
	if _, err := sess.Exec("select sum(psfMag_r) from PhotoObj", sqlengine.ExecOptions{}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	after := g.Stats()
	if after.SpatialRouted <= before.SpatialRouted {
		t.Errorf("spatialRouted did not advance: %d -> %d", before.SpatialRouted, after.SpatialRouted)
	}
	if after.FullRouted <= before.FullRouted {
		t.Errorf("fullRouted did not advance: %d -> %d", before.FullRouted, after.FullRouted)
	}
	var touched int
	for i := range after.PerShard {
		if after.PerShard[i].QueriesRouted > before.PerShard[i].QueriesRouted {
			touched++
		}
	}
	if touched != 4 {
		t.Errorf("full sweep should touch all 4 shards' query counters; %d advanced", touched)
	}
}
