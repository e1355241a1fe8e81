package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"skyserver/internal/htm"
	"skyserver/internal/load"
	"skyserver/internal/schema"
	"skyserver/internal/sky"
	"skyserver/internal/storage"
	"skyserver/internal/val"
)

const (
	churnRows   = 64
	churnPeriod = 250 * time.Millisecond
)

// churnWriter is sql.churn's loader: on a fixed schedule it alternates a
// journaled load step of churnRows synthetic PhotoObj rows with the undo of
// that step. Each bumps PhotoObj's data version, so every cached plan and
// result that reads the table goes stale.
//
// The engine does not yet define a read that runs concurrently with DML
// (B-tree readers take no lock; ROADMAP aim 3), so the writer holds gate for
// writing while it changes the table and clients hold it for reading around
// each request: a request sees the table before or after a step, never
// during. The time a step keeps clients waiting is charged to throughput,
// not to any one request's latency.
type churnWriter struct {
	gate   sync.RWMutex
	loaded int // synthetic rows present; guarded by gate

	template val.Row
	event    int64
	stop     chan struct{}
	done     chan error

	stepS, undoMs, lateMs []float64
}

var errStop = errors.New("stop")

// newChurnWriter returns the writer for sql.churn and nil, which every
// method accepts, for any other workload.
func newChurnWriter(in *instance, workload string) (*churnWriter, error) {
	if workload != "sql.churn" {
		return nil, nil
	}
	w := &churnWriter{}
	t := in.sky.DB().PhotoObj
	err := t.ScanRows(1, nil, func(_ storage.RID, row val.Row) error {
		w.template = row.Clone()
		return errStop
	})
	if err != nil && !errors.Is(err, errStop) {
		return nil, fmt.Errorf("read a PhotoObj row: %w", err)
	}
	if w.template == nil {
		return nil, errors.New("PhotoObj is empty")
	}
	// Far from the survey stripe and fainter than any magnitude cut, so no
	// pool request other than the sentinel count can see a synthetic row.
	const ra, dec = 10.0, 60.0
	v := sky.EqToVec(ra, dec)
	set := func(name string, x val.Value) { w.template[t.ColIndex(name)] = x }
	set("ra", val.Float(ra))
	set("dec", val.Float(dec))
	set("cx", val.Float(v.X))
	set("cy", val.Float(v.Y))
	set("cz", val.Float(v.Z))
	set("htmID", val.Int(int64(htm.LookupEq(ra, dec, schema.HTMDepth))))
	for _, b := range schema.Bands {
		set(b, val.Float(99))
	}
	return w, nil
}

// hold is what a client does before a request: it shuts the writer out and
// returns how many synthetic rows the request will see. release ends it.
// Both do nothing on a nil writer — every workload but sql.churn.
func (w *churnWriter) hold() int {
	if w == nil {
		return 0
	}
	w.gate.RLock()
	return w.loaded
}

func (w *churnWriter) release() {
	if w != nil {
		w.gate.RUnlock()
	}
}

// start begins the schedule on its own goroutine; finish ends it and returns
// once the goroutine has exited, with the first error it met.
func (w *churnWriter) start(in *instance) {
	if w == nil {
		return
	}
	w.stop, w.done = make(chan struct{}), make(chan error, 1)
	go func() { w.done <- w.run(in) }()
}

func (w *churnWriter) finish() error {
	if w == nil {
		return nil
	}
	close(w.stop)
	return <-w.done
}

// run applies one operation per period until stop closes, then undoes an
// outstanding step so the table ends as it began.
func (w *churnWriter) run(in *instance) error {
	begin := time.Now()
	tick := time.NewTicker(churnPeriod)
	defer tick.Stop()
	for k := 1; ; k++ {
		select {
		case <-w.stop:
			if w.loaded > 0 {
				return w.apply(in, time.Now())
			}
			return nil
		case <-tick.C:
			if err := w.apply(in, begin.Add(time.Duration(k)*churnPeriod)); err != nil {
				return err
			}
		}
	}
}

// apply performs the next operation — a load step when no synthetic rows
// are present, otherwise the undo of the last step — that was due at due.
func (w *churnWriter) apply(in *instance, due time.Time) error {
	loader := in.sky.Loader()
	w.gate.Lock()
	defer w.gate.Unlock()
	start := time.Now()
	w.lateMs = append(w.lateMs, float64(start.Sub(due))/float64(time.Millisecond))
	if w.loaded == 0 {
		objID := in.sky.DB().PhotoObj.ColIndex("objID")
		batch := make([]val.Row, churnRows)
		for i := range batch {
			batch[i] = w.template.Clone()
			batch[i][objID] = val.Int(churnBase + int64(i))
		}
		id, err := loader.RunStep(load.NewSliceSource("PhotoObj", "bench-churn", batch))
		if err != nil {
			return fmt.Errorf("churn load step: %w", err)
		}
		w.event, w.loaded = id, churnRows
		w.stepS = append(w.stepS, time.Since(start).Seconds())
		return nil
	}
	n, err := loader.Undo(w.event)
	if err != nil {
		return fmt.Errorf("churn undo: %w", err)
	}
	if n != churnRows {
		return fmt.Errorf("churn undo removed %d rows, want %d", n, churnRows)
	}
	w.loaded = 0
	w.undoMs = append(w.undoMs, float64(time.Since(start))/float64(time.Millisecond))
	return nil
}
