package storage

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"skyserver/internal/sched"
)

// RID addresses a record: heap-local page index in the high 48 bits, slot in
// the low 16. RIDs are stable for the life of a heap (ghost deletion).
type RID uint64

// MakeRID composes a record ID.
func MakeRID(pageIdx uint64, slot int) RID { return RID(pageIdx<<16 | uint64(slot)&0xFFFF) }

// Page returns the heap-local page index.
func (r RID) Page() uint64 { return uint64(r) >> 16 }

// Slot returns the slot within the page.
func (r RID) Slot() int { return int(uint64(r) & 0xFFFF) }

// ShardShift positions the shard tag in the top 8 bits of a RID. Heaps
// never see tagged RIDs — the catalog tags the RIDs it hands out (index
// entries, insert results) and strips the tag before heap access, so the
// page index keeps its full 48 bits heap-locally. TagRID(0, r) == r: an
// unsharded database's RIDs are bit-for-bit unchanged.
const ShardShift = 56

// TagRID stamps a shard index into the RID's tag bits.
func TagRID(shard int, r RID) RID { return r | RID(uint64(shard)<<ShardShift) }

// Shard returns the shard tag (0 for unsharded RIDs).
func (r RID) Shard() int { return int(uint64(r) >> ShardShift) }

// Untag returns the heap-local RID with the shard tag cleared.
func (r RID) Untag() RID { return r & (1<<ShardShift - 1) }

// FileGroup stripes pages round-robin across volumes and serves reads
// through a shared page cache. All tables of a database live in one file
// group, exactly as in the paper's physical design.
type FileGroup struct {
	vols  []Volume
	alloc atomic.Uint64 // next global page number

	cache *pageCache

	// pool is the file group's persistent scan-worker pool, created
	// lazily on the first parallel scan and alive until Close: parallel
	// scans dispatch page morsels onto it instead of spawning goroutines
	// per query.
	poolMu   sync.Mutex
	pool     *sched.Pool
	poolSize int // 0 = sched.DefaultPoolSize

	// noVerify disables page-checksum verification on physical reads.
	// Only the disk-model experiments set it: their SpeedUp factor
	// multiplies wall-clock time into model time, which would misattribute
	// the (sub-microsecond) CRC CPU cost as 25x-amplified model I/O time.
	noVerify atomic.Bool

	// stats
	physReads     atomic.Uint64
	physBytes     atomic.Uint64
	readRetries   atomic.Uint64
	checksumFails atomic.Uint64
}

// NewFileGroup creates a file group over the given volumes with a page
// cache of cachePages pages (0 disables caching).
func NewFileGroup(vols []Volume, cachePages int) *FileGroup {
	fg := &FileGroup{vols: vols}
	if cachePages > 0 {
		fg.cache = newPageCache(cachePages)
	}
	return fg
}

// NewMemFileGroup is a convenience constructor: n in-memory volumes and a
// cache sized for warm workloads.
func NewMemFileGroup(n, cachePages int) *FileGroup {
	vols := make([]Volume, n)
	for i := range vols {
		vols[i] = NewMemVolume()
	}
	return NewFileGroup(vols, cachePages)
}

// NumVolumes returns the stripe width.
func (fg *FileGroup) NumVolumes() int { return len(fg.vols) }

// SetScanWorkers sizes the scan pool (0 = sched.DefaultPoolSize). It must
// be called before the first parallel scan; afterwards it has no effect.
func (fg *FileGroup) SetScanWorkers(n int) {
	fg.poolMu.Lock()
	if fg.pool == nil {
		fg.poolSize = n
	}
	fg.poolMu.Unlock()
}

// ScanPool returns the file group's persistent scan-worker pool, creating
// it on first use. The pool lives until Close.
func (fg *FileGroup) ScanPool() *sched.Pool {
	fg.poolMu.Lock()
	if fg.pool == nil {
		fg.pool = sched.NewPool(fg.poolSize)
	}
	p := fg.pool
	fg.poolMu.Unlock()
	return p
}

// ScanPoolStats reports the pool's counters without forcing its creation.
func (fg *FileGroup) ScanPoolStats() sched.PoolStats {
	fg.poolMu.Lock()
	p := fg.pool
	fg.poolMu.Unlock()
	return p.Stats()
}

// AllocPage reserves the next global page number.
func (fg *FileGroup) AllocPage() uint64 { return fg.alloc.Add(1) - 1 }

// locate maps a global page to (volume, local page).
func (fg *FileGroup) locate(global uint64) (Volume, uint32) {
	n := uint64(len(fg.vols))
	return fg.vols[global%n], uint32(global / n)
}

// WritePage stamps the page checksum into buf's header, writes the page to
// its volume, and refreshes the cache.
func (fg *FileGroup) WritePage(global uint64, buf []byte) error {
	stampPageChecksum(buf)
	v, local := fg.locate(global)
	if err := v.WritePage(local, buf); err != nil {
		return err
	}
	if fg.cache != nil {
		fg.cache.put(global, buf)
	}
	return nil
}

// ReadPage is ReadPageCtx under a background context: retries are bounded
// per read (maxReadAttempts) but draw no per-query budget.
func (fg *FileGroup) ReadPage(global uint64, buf []byte) error {
	return fg.ReadPageCtx(context.Background(), global, buf)
}

// ReadPageCtx reads a global page into buf, consulting the cache first.
// Cache misses charge the (possibly throttled) volume, verify the page
// checksum, and retry transient failures — volume errors wrapping
// ErrTransient, or checksum mismatches, which a re-read can fix when the
// corruption happened in flight — with exponential backoff + jitter, up to
// maxReadAttempts per page and ctx's retry budget (WithRetryBudget) per
// query. Permanent volume errors surface immediately.
func (fg *FileGroup) ReadPageCtx(ctx context.Context, global uint64, buf []byte) error {
	if fg.cache != nil && fg.cache.get(global, buf) {
		return nil
	}
	v, local := fg.locate(global)
	for attempt := 1; ; attempt++ {
		err := v.ReadPage(local, buf)
		if err == nil {
			fg.physReads.Add(1)
			fg.physBytes.Add(PageSize)
			if fg.noVerify.Load() || verifyPageChecksum(buf) {
				if fg.cache != nil {
					fg.cache.put(global, buf)
				}
				return nil
			}
			fg.checksumFails.Add(1)
			err = fmt.Errorf("%w: page %d", ErrChecksum, global)
		} else if !errors.Is(err, ErrTransient) {
			return err
		}
		if attempt >= maxReadAttempts || !takeRetry(ctx) {
			return fmt.Errorf("storage: page %d read failed after %d attempts: %w", global, attempt, err)
		}
		fg.readRetries.Add(1)
		if serr := sleepRetry(ctx, attempt); serr != nil {
			return serr
		}
	}
}

// DropCache empties the page cache, forcing subsequent scans cold.
func (fg *FileGroup) DropCache() {
	if fg.cache != nil {
		fg.cache.drop()
	}
}

// PhysReads returns the number of physical (cache-miss) page reads.
func (fg *FileGroup) PhysReads() uint64 { return fg.physReads.Load() }

// PhysBytes returns the number of physical bytes read.
func (fg *FileGroup) PhysBytes() uint64 { return fg.physBytes.Load() }

// SetVerifyChecksums toggles page-checksum verification on physical reads
// (on by default). Only sped-up disk-model experiments should turn it off:
// under a SpeedUp factor, wall-clock CPU spent on the CRC is misread as
// amplified model I/O time. Serving paths must leave verification on.
func (fg *FileGroup) SetVerifyChecksums(on bool) { fg.noVerify.Store(!on) }

// ReadRetries returns the number of page re-reads issued after transient
// failures or checksum mismatches.
func (fg *FileGroup) ReadRetries() uint64 { return fg.readRetries.Load() }

// ChecksumFails returns the number of physical reads whose page checksum
// did not verify.
func (fg *FileGroup) ChecksumFails() uint64 { return fg.checksumFails.Load() }

// Close stops the scan pool and closes all volumes.
func (fg *FileGroup) Close() error {
	fg.poolMu.Lock()
	if fg.pool != nil {
		fg.pool.Close()
	}
	fg.poolMu.Unlock()
	var first error
	for _, v := range fg.vols {
		if err := v.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pageCache is a sharded LRU-ish page cache (random-eviction clock within a
// shard keeps it simple and contention-free enough for scans).
type pageCache struct {
	shards [16]cacheShard
	cap    int
}

type cacheShard struct {
	mu    sync.Mutex
	pages map[uint64][]byte
}

func newPageCache(capPages int) *pageCache {
	c := &pageCache{cap: capPages}
	for i := range c.shards {
		c.shards[i].pages = make(map[uint64][]byte)
	}
	return c
}

func (c *pageCache) shard(g uint64) *cacheShard { return &c.shards[g%16] }

func (c *pageCache) get(g uint64, buf []byte) bool {
	s := c.shard(g)
	s.mu.Lock()
	p, ok := s.pages[g]
	if ok {
		copy(buf, p)
	}
	s.mu.Unlock()
	return ok
}

func (c *pageCache) put(g uint64, buf []byte) {
	s := c.shard(g)
	s.mu.Lock()
	if p, ok := s.pages[g]; ok {
		copy(p, buf)
		s.mu.Unlock()
		return
	}
	if len(s.pages) >= c.cap/16+1 {
		// Evict an arbitrary victim (map iteration order).
		for k := range s.pages {
			delete(s.pages, k)
			break
		}
	}
	p := make([]byte, PageSize)
	copy(p, buf)
	s.pages[g] = p
	s.mu.Unlock()
}

func (c *pageCache) drop() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.pages = make(map[uint64][]byte)
		s.mu.Unlock()
	}
}

// pageBufPool recycles the page-size scratch buffers random record
// lookups (Heap.Get) and scan workers read pages into, so point lookups
// and index probes stop paying an 8 KB allocation per query.
var pageBufPool = sync.Pool{New: func() any {
	b := make([]byte, PageSize)
	return &b
}}

// GetPageBuf returns a pooled PageSize scratch buffer. Pair with
// PutPageBuf; forgetting to return it leaks nothing (the GC reclaims it).
func GetPageBuf() []byte { return *pageBufPool.Get().(*[]byte) }

// PutPageBuf returns a buffer obtained from GetPageBuf. The caller must
// not retain any record slice aliasing it (Heap.Get's contract already
// requires copying before buffer reuse).
func PutPageBuf(buf []byte) {
	if cap(buf) < PageSize {
		return
	}
	buf = buf[:PageSize]
	pageBufPool.Put(&buf)
}

// scanBuf is one scan worker's reusable page buffer and record-slice
// headers, pooled across scans.
type scanBuf struct {
	page []byte
	rids []RID
	recs [][]byte
}

var scanBufPool = sync.Pool{New: func() any {
	return &scanBuf{page: make([]byte, PageSize)}
}}

// Heap is one table's record file: an ordered list of global pages
// allocated from the file group, append-only with ghost deletes.
type Heap struct {
	fg *FileGroup

	mu      sync.RWMutex
	pageIDs []uint64 // heap-local page index -> global page
	open    page     // buffer of the last page, still accepting inserts
	rows    uint64   // live rows
	bytes   uint64   // live payload bytes
}

// NewHeap creates an empty heap in the file group.
func NewHeap(fg *FileGroup) *Heap {
	return &Heap{fg: fg}
}

// NumVolumes returns the stripe width of the heap's file group — the
// default scan parallelism.
func (h *Heap) NumVolumes() int { return h.fg.NumVolumes() }

// Rows returns the number of live records.
func (h *Heap) Rows() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rows
}

// Bytes returns the live payload bytes (the "bytes" column of Table 1).
func (h *Heap) Bytes() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.bytes
}

// Pages returns the number of pages the heap occupies.
func (h *Heap) Pages() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return uint64(len(h.pageIDs))
}

// Append stores rec and returns its RID.
func (h *Heap) Append(rec []byte) (RID, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.open == nil {
		h.open = newPage()
		h.pageIDs = append(h.pageIDs, h.fg.AllocPage())
	}
	slot, ok := h.open.insert(rec)
	if !ok {
		// Flush and start a fresh page.
		if err := h.fg.WritePage(h.pageIDs[len(h.pageIDs)-1], h.open); err != nil {
			return 0, err
		}
		h.open = newPage()
		h.pageIDs = append(h.pageIDs, h.fg.AllocPage())
		slot, ok = h.open.insert(rec)
		if !ok {
			return 0, fmt.Errorf("storage: record of %d bytes does not fit an empty page", len(rec))
		}
	}
	if err := h.fg.WritePage(h.pageIDs[len(h.pageIDs)-1], h.open); err != nil {
		return 0, err
	}
	h.rows++
	h.bytes += uint64(len(rec))
	return MakeRID(uint64(len(h.pageIDs)-1), slot), nil
}

// Get returns a copy-free view of the record; the caller owns buf (length
// PageSize) as scratch and must not retain the returned slice past the next
// use of buf.
func (h *Heap) Get(rid RID, buf []byte) ([]byte, error) {
	h.mu.RLock()
	if rid.Page() >= uint64(len(h.pageIDs)) {
		h.mu.RUnlock()
		return nil, fmt.Errorf("storage: rid page %d out of range", rid.Page())
	}
	global := h.pageIDs[rid.Page()]
	h.mu.RUnlock()
	if err := h.fg.ReadPage(global, buf); err != nil {
		return nil, err
	}
	rec, ok := page(buf).record(rid.Slot())
	if !ok {
		return nil, fmt.Errorf("storage: rid %d/%d is deleted or invalid", rid.Page(), rid.Slot())
	}
	return rec, nil
}

// Delete tombstones a record, reporting whether it was live.
func (h *Heap) Delete(rid RID) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rid.Page() >= uint64(len(h.pageIDs)) {
		return false, fmt.Errorf("storage: rid page %d out of range", rid.Page())
	}
	global := h.pageIDs[rid.Page()]
	// The open (last) page's buffer is authoritative: a later Append
	// writes it through wholesale, so the tombstone must land in the
	// buffer itself or the append would resurrect the record.
	var buf page
	if h.open != nil && rid.Page() == uint64(len(h.pageIDs)-1) {
		buf = h.open
	} else {
		buf = newPage()
		if err := h.fg.ReadPage(global, buf); err != nil {
			return false, err
		}
	}
	rec, ok := buf.record(rid.Slot())
	if !ok {
		return false, nil
	}
	n := len(rec)
	if !buf.del(rid.Slot()) {
		return false, nil
	}
	if err := h.fg.WritePage(global, buf); err != nil {
		return false, err
	}
	h.rows--
	h.bytes -= uint64(n)
	return true, nil
}

// ScanFunc receives each live record during a scan. rec aliases an internal
// page buffer: copy it to retain. Scans with dop > 1 call fn concurrently.
type ScanFunc func(rid RID, rec []byte) error

// Scan visits every live record. dop <= 0 selects one worker per volume
// (the paper's parallel prefetch model); dop == 1 is a serial scan. Page
// ranges are dealt round-robin so each worker streams one volume when dop
// equals the stripe width.
func (h *Heap) Scan(dop int, fn ScanFunc) error {
	bf := func(rids []RID, recs [][]byte) error {
		for i, rec := range recs {
			if err := fn(rids[i], rec); err != nil {
				return err
			}
		}
		return nil
	}
	return h.ScanBatches(dop, func(int) (RecBatchFunc, func() error) { return bf, nil })
}

// RecBatchFunc receives one page's worth of live records during a batch
// scan: rids[i] addresses recs[i]. The slices and the record bytes alias
// per-worker buffers that are reused for the next page — decode or copy
// before returning. Scans with dop > 1 call different workers' functions
// concurrently.
type RecBatchFunc func(rids []RID, recs [][]byte) error

// ScanBatches visits every live record, delivering a page-worth of records
// per callback instead of one record at a time — the decode amortization
// the vectorized executor builds batches from. dop <= 0 selects one worker
// per volume; dop == 1 is a serial scan. mk is called once per worker and
// returns that worker's page callback plus an optional flush run (serially,
// in worker order) after all workers finish successfully.
func (h *Heap) ScanBatches(dop int, mk func(worker int) (RecBatchFunc, func() error)) error {
	return h.ScanBatchesCtx(context.Background(), dop, mk)
}

// ScanBatchesCtx is ScanBatches with cancellation: workers stop claiming
// pages once ctx is done and the scan returns ctx's error. Parallel scans
// do not spawn goroutines — shards run on the file group's persistent
// scan-worker pool (plus the calling goroutine), claiming pages in
// morsel-sized chunks from per-stripe counters: each shard streams its own
// volume-aligned stripe first (one worker per volume when dop equals the
// stripe width, the paper's parallel prefetch model) and steals from the
// other stripes when its own runs dry, so a shard the pool schedules late
// never leaves pages behind.
func (h *Heap) ScanBatchesCtx(ctx context.Context, dop int, mk func(worker int) (RecBatchFunc, func() error)) error {
	j := scanJobPool.Get().(*scanJob)
	h.mu.RLock()
	j.pageIDs = append(j.pageIDs[:0], h.pageIDs...)
	h.mu.RUnlock()
	nPages := len(j.pageIDs)
	if nPages == 0 {
		scanJobPool.Put(j)
		return nil
	}
	if dop <= 0 {
		dop = h.fg.NumVolumes()
	}
	if dop > nPages {
		dop = nPages
	}
	if dop > 4*runtime.NumCPU() {
		dop = 4 * runtime.NumCPU()
	}
	j.init(h, ctx, dop, mk)
	if dop == 1 {
		// One worker is the same job run inline on the caller: no pool
		// dispatch, and the same panic isolation and error path as dop > 1.
		j.RunShard(0)
	} else {
		h.fg.ScanPool().Run(dop, j)
	}
	err := j.finish()
	j.reset()
	scanJobPool.Put(j)
	return err
}

// scanMorselPages is how many pages one counter claim hands a shard:
// large enough that claims are off the hot path, small enough that
// work-stealing rebalances a shard the pool scheduled late.
const scanMorselPages = 8

// scanJob is one parallel scan's dispatch state, pooled across scans so a
// steady-state parallel scan allocates nothing. It implements sched.Task:
// shard w drains stripe w (pages ≡ w mod dop — one volume when dop equals
// the stripe width), then steals leftovers from the other stripes.
type scanJob struct {
	h       *Heap
	ctx     context.Context
	pageIDs []uint64
	dop     int
	fns     []RecBatchFunc
	flushes []func() error
	errs    []error
	stripes []atomic.Int64 // per-stripe count of pages already claimed
	stop    atomic.Bool
}

var scanJobPool = sync.Pool{New: func() any { return new(scanJob) }}

// init sizes the per-shard state and collects the worker callbacks. mk
// runs sequentially here, before any shard is dispatched, preserving
// ScanBatches' contract that per-worker state needs no locking to build.
func (j *scanJob) init(h *Heap, ctx context.Context, dop int, mk func(worker int) (RecBatchFunc, func() error)) {
	j.h, j.ctx, j.dop = h, ctx, dop
	j.stop.Store(false)
	if cap(j.fns) < dop {
		j.fns = make([]RecBatchFunc, dop)
		j.flushes = make([]func() error, dop)
		j.errs = make([]error, dop)
		j.stripes = make([]atomic.Int64, dop)
	}
	j.fns, j.flushes = j.fns[:dop], j.flushes[:dop]
	j.errs, j.stripes = j.errs[:dop], j.stripes[:dop]
	for w := 0; w < dop; w++ {
		j.fns[w], j.flushes[w] = mk(w)
		j.errs[w] = nil
		j.stripes[w].Store(0)
	}
}

// reset drops references so the pooled job retains nothing between scans.
func (j *scanJob) reset() {
	j.h, j.ctx = nil, nil
	for w := range j.fns {
		j.fns[w], j.flushes[w], j.errs[w] = nil, nil, nil
	}
}

// RunShard implements sched.Task. A panic in the consumer callback (or a
// decode of a poisoned page) is confined to this query: the shard records
// an ErrScanPanic for finish() to join, stops the scan's other shards, and
// the pool worker survives.
func (j *scanJob) RunShard(w int) {
	if j.stop.Load() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			j.errs[w] = fmt.Errorf("%w: shard %d: %v", ErrScanPanic, w, r)
			j.stop.Store(true)
		}
	}()
	sb := scanBufPool.Get().(*scanBuf)
	fn := j.fns[w]
	for o := 0; o < j.dop; o++ {
		stripe := w + o
		if stripe >= j.dop {
			stripe -= j.dop
		}
		if err := j.drainStripe(stripe, fn, sb); err != nil {
			j.errs[w] = err
			j.stop.Store(true)
			break
		}
		if j.stop.Load() {
			break
		}
	}
	// Not deferred on purpose: a panicking shard must not recycle its
	// buffer — the failed callback may still alias it.
	scanBufPool.Put(sb)
}

// drainStripe claims morsels of the stripe's pages until it runs dry, the
// scan is stopped, or the context is done.
func (j *scanJob) drainStripe(stripe int, fn RecBatchFunc, sb *scanBuf) error {
	nPages := len(j.pageIDs)
	for {
		if j.stop.Load() {
			return nil
		}
		if j.ctx.Err() != nil {
			j.stop.Store(true)
			return nil
		}
		k0 := int(j.stripes[stripe].Add(scanMorselPages)) - scanMorselPages
		if stripe+k0*j.dop >= nPages {
			return nil
		}
		for k := k0; k < k0+scanMorselPages; k++ {
			pi := stripe + k*j.dop
			if pi >= nPages {
				break
			}
			// Re-check inside the morsel: a claim hands this shard up to
			// scanMorselPages reads, and cancellation must not wait out the
			// rest of the morsel page by page.
			if j.ctx.Err() != nil {
				j.stop.Store(true)
				return nil
			}
			if err := j.scanPage(pi, fn, sb); err != nil {
				return err
			}
		}
	}
}

// scanPage reads one page and delivers its live records to fn.
func (j *scanJob) scanPage(pi int, fn RecBatchFunc, sb *scanBuf) error {
	if err := j.h.fg.ReadPageCtx(j.ctx, j.pageIDs[pi], sb.page); err != nil {
		return err
	}
	p := page(sb.page)
	rids, recs := sb.rids[:0], sb.recs[:0]
	for s := 0; s < p.slotCount(); s++ {
		rec, ok := p.record(s)
		if !ok {
			continue
		}
		rids = append(rids, MakeRID(uint64(pi), s))
		recs = append(recs, rec)
	}
	sb.rids, sb.recs = rids, recs
	if len(recs) == 0 {
		return nil
	}
	return fn(rids, recs)
}

// finish joins every shard's error — a multi-volume read failure reports
// all failing workers, not just the first — and, on success, runs the
// flushes serially in worker order.
func (j *scanJob) finish() error {
	var first error
	multi := false
	for _, e := range j.errs {
		if e == nil {
			continue
		}
		if first == nil {
			first = e
		} else {
			multi = true
		}
	}
	if multi {
		return errors.Join(j.errs...)
	}
	if first != nil {
		return first
	}
	if err := j.ctx.Err(); err != nil {
		return err
	}
	for _, flush := range j.flushes {
		if flush == nil {
			continue
		}
		if err := flush(); err != nil {
			return err
		}
	}
	return nil
}
