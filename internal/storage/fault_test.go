package storage

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// flakyVolume wraps a Volume, failing configured reads with a transient
// error a set number of times before letting them through.
type flakyVolume struct {
	Volume
	mu     sync.Mutex
	fails  map[uint32]int // local page -> remaining transient failures
	always error          // if set, every read fails with this error
	reads  int
}

func (v *flakyVolume) ReadPage(n uint32, buf []byte) error {
	v.mu.Lock()
	v.reads++
	if v.always != nil {
		err := v.always
		v.mu.Unlock()
		return err
	}
	if left := v.fails[n]; left > 0 {
		v.fails[n] = left - 1
		v.mu.Unlock()
		return fmt.Errorf("%w: injected", ErrTransient)
	}
	v.mu.Unlock()
	return v.Volume.ReadPage(n, buf)
}

// fillHeapRIDs appends n distinct records and returns their RIDs.
func fillHeapRIDs(t *testing.T, h *Heap, n int) []RID {
	t.Helper()
	rids := make([]RID, n)
	for i := range rids {
		rid, err := h.Append([]byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", 200))))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		rids[i] = rid
	}
	return rids
}

func TestChecksumRoundTrip(t *testing.T) {
	fg := NewMemFileGroup(2, 0) // no cache: every read is physical + verified
	defer fg.Close()
	h := NewHeap(fg)
	rids := fillHeapRIDs(t, h, 100)
	buf := make([]byte, PageSize)
	for i, rid := range rids {
		rec, err := h.Get(rid, buf)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("record-%04d-", i); !strings.HasPrefix(string(rec), want) {
			t.Fatalf("get %d: got %q, want prefix %q", i, rec, want)
		}
	}
	if got := fg.ChecksumFails(); got != 0 {
		t.Fatalf("checksum failures on clean data: %d", got)
	}
}

func TestChecksumDetectsStoredCorruption(t *testing.T) {
	mv := NewMemVolume()
	fg := NewFileGroup([]Volume{mv}, 0)
	defer fg.Close()
	h := NewHeap(fg)
	rids := fillHeapRIDs(t, h, 40)

	// Flip one record byte in the stored page: every re-read sees the same
	// corruption, so the error must be permanent-after-retries.
	mv.mu.Lock()
	mv.pages[0][pageHeaderSize+3] ^= 0x40
	mv.mu.Unlock()

	buf := make([]byte, PageSize)
	_, err := h.Get(rids[0], buf)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("get corrupted page: err = %v, want ErrChecksum", err)
	}
	if fg.ChecksumFails() != maxReadAttempts {
		t.Fatalf("checksum failures = %d, want %d (one per attempt)", fg.ChecksumFails(), maxReadAttempts)
	}
	if fg.ReadRetries() != maxReadAttempts-1 {
		t.Fatalf("read retries = %d, want %d", fg.ReadRetries(), maxReadAttempts-1)
	}

	// A scan over the corrupted heap fails with the same classified error —
	// never silently delivers bad bytes.
	err = h.Scan(1, func(RID, []byte) error { return nil })
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("scan over corrupted page: err = %v, want ErrChecksum", err)
	}
}

func TestTransientReadRetriesSucceed(t *testing.T) {
	mv := NewMemVolume()
	fv := &flakyVolume{Volume: mv, fails: map[uint32]int{}}
	fg := NewFileGroup([]Volume{fv}, 0)
	defer fg.Close()
	h := NewHeap(fg)
	rids := fillHeapRIDs(t, h, 40)

	fv.mu.Lock()
	fv.fails[0] = 2 // fail twice, then succeed
	fv.mu.Unlock()

	buf := make([]byte, PageSize)
	if _, err := h.Get(rids[0], buf); err != nil {
		t.Fatalf("get with transient faults: %v", err)
	}
	if got := fg.ReadRetries(); got != 2 {
		t.Fatalf("read retries = %d, want 2", got)
	}
	if got := fg.ChecksumFails(); got != 0 {
		t.Fatalf("checksum failures = %d, want 0", got)
	}
}

func TestTransientExhaustsAttempts(t *testing.T) {
	fv := &flakyVolume{Volume: NewMemVolume(), always: fmt.Errorf("%w: disk glitch", ErrTransient)}
	fg := NewFileGroup([]Volume{fv}, 0)
	defer fg.Close()

	buf := make([]byte, PageSize)
	err := fg.ReadPage(0, buf)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if fv.reads != maxReadAttempts {
		t.Fatalf("volume reads = %d, want %d", fv.reads, maxReadAttempts)
	}
}

func TestRetryBudgetBoundsRetries(t *testing.T) {
	fv := &flakyVolume{Volume: NewMemVolume(), always: fmt.Errorf("%w: disk glitch", ErrTransient)}
	fg := NewFileGroup([]Volume{fv}, 0)
	defer fg.Close()

	// Zero budget: the first failure is final, no re-reads at all.
	ctx := WithRetryBudget(context.Background(), 0)
	buf := make([]byte, PageSize)
	err := fg.ReadPageCtx(ctx, 0, buf)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if fv.reads != 1 {
		t.Fatalf("volume reads = %d, want 1 under zero budget", fv.reads)
	}

	// A budget of 1 shares across reads under the same context: the first
	// read spends it, the second gets none.
	fv.mu.Lock()
	fv.reads = 0
	fv.mu.Unlock()
	ctx = WithRetryBudget(context.Background(), 1)
	_ = fg.ReadPageCtx(ctx, 0, buf)
	_ = fg.ReadPageCtx(ctx, 0, buf)
	if fv.reads != 3 {
		t.Fatalf("volume reads = %d, want 3 (1+retry, then 1)", fv.reads)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	permanent := errors.New("medium failure")
	fv := &flakyVolume{Volume: NewMemVolume(), always: permanent}
	fg := NewFileGroup([]Volume{fv}, 0)
	defer fg.Close()

	buf := make([]byte, PageSize)
	err := fg.ReadPage(0, buf)
	if !errors.Is(err, permanent) {
		t.Fatalf("err = %v, want the permanent error", err)
	}
	if fv.reads != 1 {
		t.Fatalf("volume reads = %d, want 1 (no retries for permanent errors)", fv.reads)
	}
	if fg.ReadRetries() != 0 {
		t.Fatalf("read retries = %d, want 0", fg.ReadRetries())
	}
}

func TestCanceledContextStopsRetries(t *testing.T) {
	fv := &flakyVolume{Volume: NewMemVolume(), always: fmt.Errorf("%w: disk glitch", ErrTransient)}
	fg := NewFileGroup([]Volume{fv}, 0)
	defer fg.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf := make([]byte, PageSize)
	err := fg.ReadPageCtx(ctx, 0, buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fv.reads != 1 {
		t.Fatalf("volume reads = %d, want 1 (no backoff sleep after cancel)", fv.reads)
	}
}

func TestScanShardPanicIsolated(t *testing.T) {
	fg := NewMemFileGroup(4, 1<<10)
	defer fg.Close()
	h := NewHeap(fg)
	fillHeap(t, h, 400) // several pages across all stripes

	// Panic on a fixed page so exactly one shard — whichever claims it —
	// blows up, regardless of how the pool schedules shards. dop 1 is the
	// same job run inline on the caller (every loader ScanRows(1, …) and
	// MaxConcurrency=1 query): it must classify the panic too, not let it
	// escape raw.
	for _, dop := range []int{1, 4} {
		err := h.ScanBatches(dop, func(worker int) (RecBatchFunc, func() error) {
			return func(rids []RID, recs [][]byte) error {
				if rids[0].Page() == 2 {
					panic("poisoned page decode")
				}
				return nil
			}, nil
		})
		if !errors.Is(err, ErrScanPanic) {
			t.Fatalf("dop=%d scan with panicking shard: err = %v, want ErrScanPanic", dop, err)
		}
	}

	// The pool and heap survive: a follow-up scan sees every record.
	var mu sync.Mutex
	seen := 0
	err := h.Scan(4, func(RID, []byte) error {
		mu.Lock()
		seen++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("scan after panic: %v", err)
	}
	if seen != 400 {
		t.Fatalf("rows after panic = %d, want 400", seen)
	}
}
