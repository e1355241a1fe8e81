package sqlengine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"skyserver/internal/val"
)

// cancelDB builds a database with enough rows that a full scan spans many
// batch boundaries — the granularity cancellation is polled at.
func cancelDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db, sess := testDB(t)
	obj, err := db.Table("Obj")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		row := val.Row{
			val.Int(int64(i)), val.Int(int64(i % 7)), val.Int(int64(i % 6)),
			val.Int(int64(i % 100)), val.Float(float64(i % 360)), val.Float(float64(i%60) - 30),
			val.Float(float64(i%25) + 1), val.Float(float64(i%22) + 1),
			val.Int(3), val.Int(1), val.Str("x"),
		}
		if _, err := obj.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return db, sess
}

func TestExecContextCanceled(t *testing.T) {
	_, sess := cancelDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sess.ExecContext(ctx, "select count(*) from Obj where mag_r - mag_g > 1", ExecOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestExecContextDeadlineIsTimeout(t *testing.T) {
	_, sess := cancelDB(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := sess.ExecContext(ctx, "select count(*) from Obj where mag_r - mag_g > 1", ExecOptions{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestExecOptionsDeadline(t *testing.T) {
	_, sess := cancelDB(t)
	_, err := sess.Exec("select count(*) from Obj where mag_r - mag_g > 1",
		ExecOptions{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The earlier of Timeout and Deadline wins: a generous deadline must
	// not mask an already-expired timeout and vice versa.
	_, err = sess.Exec("select count(*) from Obj where mag_r - mag_g > 1",
		ExecOptions{Timeout: time.Nanosecond, Deadline: time.Now().Add(time.Hour)})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout from the shorter timeout", err)
	}
}

func TestExecContextCancelMidStream(t *testing.T) {
	_, sess := cancelDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	_, err := sess.ExecStreamContext(ctx, "select objID, mag_r from Obj", ExecOptions{},
		func(cols []string, b *val.Batch) error {
			batches++
			if batches == 2 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if batches >= 20 {
		t.Errorf("saw %d batches after cancellation, want an early abort", batches)
	}
}

// TestOrderedTopNEarlyStopIsSuccess: an ordered top-k ends its child with
// errStopEarly once the cut is decided. That is a complete result, not an
// error or a truncation, and the statistics count only what was visited.
func TestOrderedTopNEarlyStopIsSuccess(t *testing.T) {
	_, sess := cancelDB(t)
	res, err := sess.Exec("select top 20 objID, name from Obj order by objID", ExecOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexScan(Obj.pk_Obj, ordered)") {
		t.Fatalf("not an ordered non-covering scan:\n%s", res.Plan)
	}
	if len(res.Rows) != 20 || res.Truncated {
		t.Fatalf("rows=%d truncated=%v, want 20/false", len(res.Rows), res.Truncated)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0].I < res.Rows[i-1][0].I {
			t.Fatalf("rows out of order at %d: %v", i, res.Rows)
		}
	}
	if res.RowsScanned > 80 || res.PagesScanned != 0 {
		t.Errorf("scanned %d rows / %d pages of a 20,000-row table, want ≤ 80 / 0", res.RowsScanned, res.PagesScanned)
	}
}

// TestOrderedSeekPollsCancellationPerBatch: a non-covering seek pays a heap
// fetch per entry, so it must notice a deadline or a closed context at every
// flushed batch — here within the first 1,024 entries — not only at the
// 4,096-entry poll, which a TOP n under 4,096 never reaches.
func TestOrderedSeekPollsCancellationPerBatch(t *testing.T) {
	db, sess := cancelDB(t)
	stmts, err := Parse("select top 3000 objID, name from Obj order by objID")
	if err != nil {
		t.Fatal(err)
	}
	root, err := (&planner{db: db, sess: sess}).planSelect(stmts[0].(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if plan := Explain(root); !strings.Contains(plan, "IndexScan(Obj.pk_Obj, ordered)") {
		t.Fatalf("not an ordered non-covering scan:\n%s", plan)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		qctx context.Context
		opt  ExecOptions
		want error
	}{
		{"deadline", nil, ExecOptions{Deadline: time.Now().Add(-time.Second)}, ErrTimeout},
		{"context", canceled, ExecOptions{}, ErrCanceled},
	} {
		ctx := sess.newExecCtx(c.qctx, nil, c.opt, time.Now())
		err := root.Run(ctx, (&sinkCheck{}).factory)
		ctx.releaseScratch()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if n := ctx.RowsScanned.Load(); n > val.BatchSize {
			t.Errorf("%s: %d entries fetched before the abort, want at most one batch", c.name, n)
		}
	}
}

// TestMaxRowsTruncationUnderParallelScan regresses the joined-sentinel
// bug: when several scan shards hit the MaxRows limit concurrently, their
// errStopEarly returns are joined by the storage layer, and runPlan must
// still recognize the early stop (errors.Is, not ==) and return the
// truncated rows instead of an error.
func TestMaxRowsTruncationUnderParallelScan(t *testing.T) {
	_, sess := cancelDB(t)
	for i := 0; i < 300; i++ {
		res, err := sess.Exec("select objID from Obj", ExecOptions{MaxRows: 1, DOP: 4})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !res.Truncated || len(res.Rows) != 1 {
			t.Fatalf("iteration %d: truncated=%v rows=%d, want true/1", i, res.Truncated, len(res.Rows))
		}
	}
}

func TestMaxConcurrencyCapsScanDOP(t *testing.T) {
	ctx := &ExecCtx{DOP: 0, MaxDOP: 2}
	if got := ctx.scanDOP(8); got != 2 {
		t.Errorf("scanDOP(8) with MaxDOP 2 = %d, want 2", got)
	}
	ctx = &ExecCtx{DOP: 6, MaxDOP: 4}
	if got := ctx.scanDOP(8); got != 4 {
		t.Errorf("scanDOP with DOP 6, MaxDOP 4 = %d, want 4", got)
	}
	ctx = &ExecCtx{DOP: 0}
	if got := ctx.scanDOP(8); got != 8 {
		t.Errorf("scanDOP(8) uncapped = %d, want 8", got)
	}
	// A capped query still returns correct results.
	_, sess := cancelDB(t)
	res, err := sess.Exec("select count(*) from Obj where mag_r - mag_g > 1",
		ExecOptions{MaxConcurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	unc, err := sess.Exec("select count(*) from Obj where mag_r - mag_g > 1", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != unc.Rows[0][0].I {
		t.Errorf("capped count %d != uncapped %d", res.Rows[0][0].I, unc.Rows[0][0].I)
	}
}
