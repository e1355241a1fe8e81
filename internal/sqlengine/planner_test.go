package sqlengine

import (
	"strings"
	"testing"

	"skyserver/internal/storage"
	"skyserver/internal/val"
)

// skewDB builds a table where parentID = 0 matches 95% of rows — the
// classic skewed-column trap for selectivity guessing.
func skewDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := NewDB(storage.NewMemFileGroup(2, 1024))
	_, err := db.CreateTable("Obj", []Column{
		{Name: "objID", Kind: val.KindInt, NotNull: true},
		{Name: "parentID", Kind: val.KindInt, NotNull: true},
		{Name: "a", Kind: val.KindFloat, NotNull: true},
		{Name: "b", Kind: val.KindFloat, NotNull: true},
	}, []string{"objID"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("Obj", "ix_parent", []string{"parentID"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("Obj", "ix_cover_ab", []string{"objID"}, []string{"parentID", "a", "b"}); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("Obj")
	for i := int64(0); i < 5000; i++ {
		parent := int64(0)
		if i%20 == 5 {
			parent = i - 1
		}
		_, err := tab.Insert(val.Row{val.Int(i), val.Int(parent), val.Float(float64(i % 17)), val.Float(float64(i % 5))})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, NewSession(db)
}

func TestDiveAvoidsSkewedEqSeek(t *testing.T) {
	// parentID = 0 matches ~95% of rows: a naive eq-selectivity guess
	// would pick the ix_parent seek plus 4,750 heap lookups. The plan-time
	// index dive sees the skew and must not choose that path.
	_, s := skewDB(t)
	res, err := s.Exec("select objID, a, b from Obj where parentID = 0 and a > 100", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Plan, "IndexSeek(Obj.ix_parent") {
		t.Errorf("planner fell into the skewed-column trap:\n%s", res.Plan)
	}
	// A selective probe still uses the index.
	res, err = s.Exec("select objID from Obj where parentID = 4", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexSeek(Obj.ix_parent") {
		t.Errorf("selective eq did not seek:\n%s", res.Plan)
	}
	if len(res.Rows) != 1 {
		t.Errorf("parentID=4 matched %d rows", len(res.Rows))
	}
}

func TestCoveringBeatsHeapForColumnSubsets(t *testing.T) {
	_, s := skewDB(t)
	// (objID, parentID, a, b) are covered: the paper's tag-table effect.
	res, err := s.Exec("select objID, a from Obj where b > 3", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexScan(Obj.ix_cover_ab, covering") {
		t.Errorf("covering scan not chosen:\n%s", res.Plan)
	}
}

// TestOrderedAccessChoice pins where the planner lets an index's order stand
// in for the sort of a TOP n … ORDER BY, and where it must not: both sides
// of the selective-residual guard, and every shape that falls back to the
// plain top-k over the old access path.
func TestOrderedAccessChoice(t *testing.T) {
	_, s := tiesDB(t, 1)
	const gal = " from Gal where typ = 3 and mode = 1"
	for _, c := range []struct {
		name, sql string
		plan      []string // substrings of EXPLAIN
	}{
		{"gallery, non-covering", "select top 20 id, r, iso" + gal + " order by r asc",
			[]string{"TopK(20, r ASC, ordered)", "IndexSeek(Gal.ix_typ_mode_r, ordered, filter="}},
		{"covered", "select top 20 id, r, g" + gal + " order by r",
			[]string{"TopK(20, r ASC, ordered)", "IndexSeek(Gal.ix_typ_mode_r, ordered, covering"}},
		{"unbounded non-covering PK", "select top 5 * from Gal order by id",
			[]string{"TopK(5, id ASC, ordered)", "IndexScan(Gal.pk_Gal, ordered)"}},
		{"order continues past a range bound", "select top 5 id, iso" + gal + " and r > 4 order by r",
			[]string{"TopK(5, r ASC, ordered)", "IndexSeek(Gal.ix_typ_mode_r, ordered, filter="}},
		{"two keys after a one-column prefix", "select top 5 id, pad from Gal where typ = 6 order by mode, r",
			[]string{"TopK(5, mode ASC, r ASC, ordered)", "IndexSeek(Gal.ix_typ_mode_r, ordered, filter="}},
		// The guard. iso is in no index: were the residual rare, the
		// ordered seek would pay a heap fetch for each of the prefix's
		// 1,440 entries, costlier than scanning the heap's 3,000 rows.
		{"residual, non-covering, wide range", "select top 10 id, r" + gal + " and iso > 95 order by r",
			[]string{"TopK(10, r ASC)", "TableScan(Gal"}},
		// The same residual where the whole range is affordable …
		{"residual, non-covering, narrow range", "select top 10 id, r" + gal + " and r >= 3 and r < 5 and iso > 95 order by r",
			[]string{"TopK(10, r ASC, ordered)", "IndexSeek(Gal.ix_typ_mode_r, ordered, filter="}},
		// … and where it is covered: the worst case is the plan it replaces.
		{"residual, covering", "select top 10 id, r" + gal + " and g > 9.5 order by r",
			[]string{"TopK(10, r ASC, ordered)", "IndexSeek(Gal.ix_typ_mode_r, ordered, covering"}},
		// Out of scope: the old plans.
		{"descending", "select top 10 id, r" + gal + " order by r desc",
			[]string{"TopK(10, r DESC)", "IndexSeek(Gal.ix_typ_mode_r, covering"}},
		{"expression key", "select top 10 id, r" + gal + " order by r + 1",
			[]string{"TopK(10, (r + 1) ASC)", "IndexSeek(Gal.ix_typ_mode_r, covering"}},
		{"output alias shadows the column", "select top 10 g as r, id" + gal + " order by r",
			[]string{"TopK(10, r ASC)", "IndexSeek(Gal.ix_typ_mode_r, covering"}},
		{"prefix not bound", "select top 10 id, r from Gal where typ = 3 order by r",
			[]string{"TopK(10, r ASC)", "IndexSeek(Gal.ix_typ_mode_r, covering"}},
		{"no TOP", "select id, r" + gal + " and r < 1 order by r",
			[]string{"Sort(r ASC", "IndexSeek(Gal.ix_typ_mode_r, covering"}},
	} {
		res, err := s.Exec(c.sql, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, want := range c.plan {
			if !strings.Contains(res.Plan, want) {
				t.Errorf("%s: plan lacks %q:\n%s", c.name, want, res.Plan)
			}
		}
		// An ordered plan is classified by the entries it expects to read.
		if heap := strings.Contains(res.Plan, "TableScan"); (res.Class == ClassBatch) != heap {
			t.Errorf("%s: class %v over\n%s", c.name, res.Class, res.Plan)
		}
	}
	// The alias case orders by g, not by the column the index sorts.
	res := mustExec(t, s, "select top 3 g as r, id"+gal+" order by r")
	if res.Rows[0][0].F != 0 {
		t.Errorf("order by an alias that shadows a column sorted by the column: %v", res.Rows)
	}
}

func TestJoinGraphAvoidsCrossProducts(t *testing.T) {
	// A chain A–B–C (eq edges) written with C's predicate against A in
	// the middle must not plan A×C.
	db := NewDB(storage.NewMemFileGroup(2, 256))
	mk := func(name string) *Table {
		tb, err := db.CreateTable(name, []Column{
			{Name: "id", Kind: val.KindInt, NotNull: true},
			{Name: "ref", Kind: val.KindInt, NotNull: true},
			{Name: "v", Kind: val.KindFloat, NotNull: true},
		}, []string{"id"}, "")
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 300; i++ {
			if _, err := tb.Insert(val.Row{val.Int(i), val.Int(i), val.Float(float64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	mk("A")
	mk("B")
	mk("C")
	s := NewSession(db)
	res, err := s.Exec(`
		select a.id from A a, B b, C c
		where a.v < 50 and c.v < 50
		  and b.id = a.ref and c.id = b.ref`, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every join should be an index probe; no materialized cross join.
	if strings.Contains(res.Plan, "materialized inner") {
		t.Errorf("join graph produced a cross product:\n%s", res.Plan)
	}
	if len(res.Rows) != 50 {
		t.Errorf("chain join returned %d rows, want 50", len(res.Rows))
	}
}

func TestDropIndexChangesPlans(t *testing.T) {
	db, s := skewDB(t)
	res, _ := s.Exec("select objID from Obj where parentID = 4", ExecOptions{})
	if !strings.Contains(res.Plan, "ix_parent") {
		t.Fatalf("precondition: seek expected:\n%s", res.Plan)
	}
	if err := db.DropIndex("Obj", "ix_parent"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("select objID from Obj where parentID = 4", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Plan, "ix_parent") {
		t.Errorf("dropped index still used:\n%s", res.Plan)
	}
	if len(res.Rows) != 1 {
		t.Errorf("answer changed after drop: %d rows", len(res.Rows))
	}
	if err := db.DropIndex("Obj", "pk_Obj"); err == nil {
		t.Error("primary key drop allowed")
	}
	if err := db.DropIndex("Obj", "nope"); err == nil {
		t.Error("dropping unknown index succeeded")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	db := NewDB(storage.NewMemFileGroup(1, 64))
	_, err := db.CreateTable("N", []Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "x", Kind: val.KindFloat},
	}, []string{"id"}, "")
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("N")
	_, _ = tab.Insert(val.Row{val.Int(1), val.Float(5)})
	_, _ = tab.Insert(val.Row{val.Int(2), val.Null()})
	_, _ = tab.Insert(val.Row{val.Int(3), val.Float(-5)})
	s := NewSession(db)

	cases := []struct {
		where string
		want  int
	}{
		{"x > 0", 1},           // NULL row filtered
		{"not x > 0", 1},       // NOT NULL stays unknown
		{"x > 0 or x <= 0", 2}, // NULL fails both
		{"x is null", 1},
		{"x is not null", 2},
		{"x > 0 or id = 2", 2}, // OR with true arm rescues
		{"x > 0 and id = 1", 1},
		{"x in (5, -5)", 2},
		{"x not in (5)", 1}, // NULL not-in is unknown
		{"x between -10 and 10", 2},
		{"isnull(x, 0) >= 0", 2},
		{"coalesce(x, 99) > 0", 2},
	}
	for _, c := range cases {
		res, err := s.Exec("select id from N where "+c.where, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		if len(res.Rows) != c.want {
			t.Errorf("where %s: %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"galaxy", "galaxy", true},
		{"galaxy", "gal%", true},
		{"galaxy", "%axy", true},
		{"galaxy", "%ala%", true},
		{"galaxy", "g_laxy", true},
		{"galaxy", "g_axy", false},
		{"galaxy", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"abc", "a%d", false},
		{"aaa", "a%a", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ippi%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.pat, got)
		}
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	db, s := skewDB(t)
	res, err := s.Exec("delete from Obj where objID between 10 and 19", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 10 {
		t.Fatalf("deleted %d", res.RowsAffected)
	}
	// Probe through the PK and the secondary index.
	res, _ = s.Exec("select count(*) from Obj where objID = 15", ExecOptions{})
	if res.Rows[0][0].I != 0 {
		t.Error("PK index still finds deleted row")
	}
	tab, _ := db.Table("Obj")
	for _, ix := range tab.Indexes() {
		count := 0
		ix.Ascend(nil, func(key val.Row, rid uint64, incl val.Row) bool {
			count++
			return true
		})
		if count != 4990 {
			t.Errorf("index %s has %d entries after delete, want 4990", ix.Name, count)
		}
	}
}

func TestInsertSelectIntoBaseTable(t *testing.T) {
	db, s := skewDB(t)
	_, err := db.CreateTable("Copy", []Column{
		{Name: "objID", Kind: val.KindInt, NotNull: true},
		{Name: "a", Kind: val.KindFloat, NotNull: true},
	}, []string{"objID"}, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("insert into Copy select objID, a from Obj where objID < 100", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 100 {
		t.Fatalf("inserted %d", res.RowsAffected)
	}
	res, _ = s.Exec("select count(*) from Copy", ExecOptions{})
	if res.Rows[0][0].I != 100 {
		t.Error("copy incomplete")
	}
}

func TestCaseInWhereAndHavingWithAlias(t *testing.T) {
	_, s := skewDB(t)
	res, err := s.Exec(`
		select case when a > 8 then 1 else 0 end as big, count(*) as n
		from Obj
		group by case when a > 8 then 1 else 0 end
		having count(*) > 0
		order by big`, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %v", res.Rows)
	}
	if res.Rows[0][1].I+res.Rows[1][1].I != 5000 {
		t.Error("groups don't cover table")
	}
}
