package queries

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"skyserver/internal/schema"
	"skyserver/internal/sqlengine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain.golden from the current planner")

// pageStatements are the web tier's own TOP n … ORDER BY statements — the
// famous-places gallery, the Explorer's neighbors panel (%d: an objID) and
// the SQL page's default textarea — which read an index in the ORDER BY's
// order, and two shapes outside ordered access (a descending and an
// expression key) that keep the plain top-k over the old access path.
var pageStatements = []struct{ name, sql string }{
	{"places", "select top 20 objID, ra, dec, r, isoA_r from Galaxy order by r asc"},
	{"places-covered", "select top 20 objID, ra, dec, r from Galaxy order by r asc"},
	{"neighbors-panel", "select top 10 neighborObjID, distance from Neighbors where objID = %d order by distance"},
	{"sql-default", "select top 10 objID, ra, dec, r from Galaxy order by r"},
	{"desc-key", "select top 10 objID, ra, dec, r from Galaxy order by r desc"},
	{"expr-key", "select top 10 objID, ra, dec, r from Galaxy order by r - g"},
}

// pageSQL fills a page statement's objID with the first object that has
// neighbors (the same one on every layout).
func pageSQL(t *testing.T, sess *sqlengine.Session, sql string) string {
	t.Helper()
	if !strings.Contains(sql, "%d") {
		return sql
	}
	res, err := sess.Exec("select top 1 objID from Neighbors order by objID", sqlengine.ExecOptions{})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("no object with neighbors: %v", err)
	}
	return fmt.Sprintf(sql, res.Rows[0][0].I)
}

// TestExplainGolden pins the EXPLAIN text of the whole Figure 13 workload
// and of the web tier's page statements,
// unsharded and on the 4-shard layout (for the Shards(k/N) annotations),
// against a checked-in golden file. The executor's operator contract is
// not part of a plan's shape: a refactor of how operators run must leave
// every line here byte-identical. Regenerate deliberately with
// `go test ./internal/queries -run TestExplainGolden -update`.
func TestExplainGolden(t *testing.T) {
	db, _ := survey(t)
	var sb strings.Builder
	for _, layout := range []struct {
		name string
		db   *schema.SkyDB
	}{{"unsharded", db}, {"4 shards", shardedSurvey(t, 4)}} {
		sess := sqlengine.NewSession(layout.db.DB)
		for _, q := range All() {
			sql, err := q.SQL(sess)
			if err != nil {
				t.Fatalf("Q%s (%s): sql: %v", q.ID, layout.name, err)
			}
			// Exec, not Explain: several workload entries are batches whose
			// last SELECT reads a temp table an earlier statement fills.
			res, err := sess.Exec(sql, sqlengine.ExecOptions{})
			if err != nil {
				t.Fatalf("Q%s (%s): exec: %v", q.ID, layout.name, err)
			}
			fmt.Fprintf(&sb, "== Q%s (%s)\n%s\n", q.ID, layout.name, res.Plan)
		}
		for _, ps := range pageStatements {
			res, err := sess.Exec(pageSQL(t, sess, ps.sql), sqlengine.ExecOptions{})
			if err != nil {
				t.Fatalf("%s (%s): exec: %v", ps.name, layout.name, err)
			}
			fmt.Fprintf(&sb, "== %s (%s)\n%s\n", ps.name, layout.name, res.Plan)
		}
	}
	const path = "testdata/explain.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("EXPLAIN text changed at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("EXPLAIN text changed: %d lines, golden has %d", len(gl), len(wl))
	}
}
