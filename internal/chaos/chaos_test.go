package chaos

import (
	"errors"
	"fmt"
	"testing"

	"skyserver/internal/storage"
)

// newFaultedHeap builds a single-volume, cache-less file group behind a
// FaultVolume and fills a heap with n records.
func newFaultedHeap(t *testing.T, cfg Config, n int) (*storage.FileGroup, *storage.Heap, *FaultVolume) {
	t.Helper()
	fv := NewFaultVolume(storage.NewMemVolume(), cfg)
	fg := storage.NewFileGroup([]storage.Volume{fv}, 0)
	t.Cleanup(func() { fg.Close() })
	h := storage.NewHeap(fg)
	for i := 0; i < n; i++ {
		if _, err := h.Append([]byte(fmt.Sprintf("rec-%06d-payload-padding-padding", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return fg, h, fv
}

func countRows(t *testing.T, h *storage.Heap) int {
	t.Helper()
	n := 0
	err := h.Scan(1, func(storage.RID, []byte) error { n++; return nil })
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return n
}

func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, TransientRate: 0.2, CorruptRate: 0.1}
	run := func() (Stats, []error) {
		fv := NewFaultVolume(storage.NewMemVolume(), cfg)
		buf := make([]byte, storage.PageSize)
		stamped := make([]byte, storage.PageSize)
		fv.WritePage(0, stamped)
		var errs []error
		for i := 0; i < 200; i++ {
			errs = append(errs, fv.ReadPage(0, buf))
		}
		return fv.Stats(), errs
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	if s1.Transients == 0 || s1.Corrupts == 0 {
		t.Fatalf("expected some faults at these rates, got %+v", s1)
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("same seed, different fault at read %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestFailNThenSucceed(t *testing.T) {
	fg, h, fv := newFaultedHeap(t, Config{Seed: 1}, 50)
	fv.FailReads(0, 2)
	if got := countRows(t, h); got != 50 {
		t.Fatalf("rows = %d, want 50", got)
	}
	if got := fg.ReadRetries(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	// Beyond the per-read attempt cap the error surfaces, classified.
	fv.FailReads(0, 100)
	err := h.Scan(1, func(storage.RID, []byte) error { return nil })
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	fv.Heal()
	if got := countRows(t, h); got != 50 {
		t.Fatalf("rows after heal = %d, want 50", got)
	}
}

func TestRandomCorruptionIsRetriedAway(t *testing.T) {
	// In-flight bit flips: the checksum rejects the read, the re-read
	// redraws, and the scan result is exactly the clean data.
	_, h, fv := newFaultedHeap(t, Config{Seed: 7, CorruptRate: 0.3}, 200)
	if got := countRows(t, h); got != 200 {
		t.Fatalf("rows = %d, want 200", got)
	}
	if fv.Stats().Corrupts == 0 {
		t.Fatal("no corruption injected at rate 0.3")
	}
}

func TestStickyCorruptionIsPermanent(t *testing.T) {
	fg, h, fv := newFaultedHeap(t, Config{Seed: 3}, 50)
	fv.CorruptSticky(0)
	err := h.Scan(1, func(storage.RID, []byte) error { return nil })
	if !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if fg.ChecksumFails() == 0 {
		t.Fatal("checksum failure not counted")
	}
}

func TestPanicReads(t *testing.T) {
	_, h, fv := newFaultedHeap(t, Config{Seed: 9}, 50)
	fv.PanicReads(0, 1)
	// A one-worker scan is the parallel scan's job run inline: the injected
	// panic comes back classified, never raw.
	err := h.Scan(1, func(storage.RID, []byte) error { return nil })
	if !errors.Is(err, storage.ErrScanPanic) {
		t.Fatalf("err = %v, want ErrScanPanic", err)
	}
}
