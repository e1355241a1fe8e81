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

// TestExplainGolden pins the EXPLAIN text of the whole Figure 13 workload,
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
