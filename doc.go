// Package skyserver is a from-scratch Go reproduction of "The SDSS
// SkyServer — Public Access to the Sloan Digital Sky Survey Data"
// (Szalay, Gray, Thakar, Kunszt, Malik, Raddick, Stoughton, vandenBerg;
// ACM SIGMOD 2002).
//
// # Architecture
//
// The repository implements the paper's whole stack around a vectorized
// relational engine. Data moves through the system in columnar row-batches
// (val.Batch: up to 1,024 rows as per-column slices with a selection
// vector) rather than one row at a time:
//
//   - internal/storage lays slotted 8 KB pages across simulated striped
//     volumes behind a page cache, and its heap scan delivers page-worth
//     record slices per callback (Heap.ScanBatches) so decode costs
//     amortize across a page.
//   - internal/val defines the tagged value codec shared by storage, the
//     B+tree (internal/btree), and the engine — plus the Batch type the
//     executor flows. Batches prune columns the planner proves unread: a
//     scan of the ~220-column PhotoObj that touches three columns
//     materializes three column arrays, not 220.
//   - internal/sqlengine parses the paper's T-SQL dialect, plans access
//     paths (covering-index scans replacing the paper's tag tables, index
//     seeks from dive-based cardinality estimates, index-probe nested
//     loops), and executes on a batch push model: every operator — scans,
//     joins, filter, project, aggregate, sort, distinct, top — consumes
//     and emits val.Batch. Filters and projections compile twice: to
//     vectorized kernels that process a whole batch per call (writing
//     selection vectors in place, with AND/OR preserving the row path's
//     short-circuit evaluation order and CASE evaluating each arm only on
//     the rows that reach it), and to a row-at-a-time fallback that
//     handles the shapes the kernels don't and serves as the semantic
//     oracle in the equivalence tests (ExecOptions.ForceRowExprs).
//   - Results stream batch-wise out of the engine:
//     Session.ExecStreamContext hands each result batch to a sink, and
//     internal/web's SQL endpoint serializes HTTP responses (CSV, JSON, XML, HTML) directly from the
//     columnar batches with the paper's public limits (1,000 rows / 30
//     seconds) applied by truncating the final batch. Serializers keep
//     one reused output buffer per stream and render every value through
//     val.Value.AppendString with no per-row allocation — CSV quoting and
//     JSON escaping/number formatting are direct buffer appends that
//     match encoding/csv's and encoding/json's wire output.
//
// # Query lifecycle and the plan cache
//
// A statement moves through parse → parameterize → compile → (cached) →
// bind → execute. Session.Exec first lexes the text and normalizes the
// token stream (sqlengine/normalize.go): literals are extracted into a
// parameter vector and the remaining shape — folded identifiers,
// operators, parameter slots — becomes the cache key, so WHERE objID = 123
// and WHERE objID = 456 are one shape. The key is probed against the
// DB-wide PlanCache shared by every session. On a hit, the immutable
// CompiledPlan executes immediately with the fresh parameter values bound
// through ExecCtx.Params — no parsing, no planning. On a miss, the parser
// replaces each extracted literal with a ParamExpr, the planner compiles
// a CompiledPlan (operator tree, output schema, EXPLAIN text, and the
// referenced tables' data versions), execution proceeds, and a cacheable
// statement stores the plan for every later session.
//
// Cacheability rules: only a single SELECT with no INTO target and no
// session-local references — no @variables and no #temp tables — is
// cached; everything else (DML, DDL, multi-statement batches) executes
// from its AST each time. Literals that shape the plan stay structural
// rather than parameterized: the count after TOP, number literals in
// ORDER BY (ordinals), and the kind of every parameter (an int and a
// float literal never share a slot, since arithmetic and output schema
// kinds differ). Equal literals deduplicate to one parameter slot so
// GROUP BY expressions keep matching their select-list copies
// structurally after parameterization.
//
// Invalidation is lazy, at lookup: a cached plan records the catalog's
// schema version (any CREATE/DROP of tables, indexes, or views bumps it —
// after DROP INDEX a stale plan would probe an unmaintained tree) and
// each referenced table's DML counter (inserts and deletes age the dive
// based cardinality estimates the access path was chosen from). A stale
// entry is evicted and recompiled on next use. Entries are LRU-evicted
// against a byte budget, counters are exposed via PlanCache.Stats (and
// the web front end's /x/plancache endpoint), and
// ExecOptions.DisablePlanCache bypasses the cache entirely — the
// pre-cache pipeline that the cached-vs-fresh Q1–Q20 equivalence test
// uses as its oracle, mirroring DisablePooling.
//
// # Batch memory lifecycle
//
// Steady-state execution is allocation-free: batches, column arrays, and
// kernel scratch recycle through sync.Pool-backed pools in internal/val.
// The ownership rules:
//
//   - Whoever acquires releases. Each operator that produces batches
//     acquires them from val.GetBatch (via ExecCtx.getBatch) at Run start
//     and Releases them after its child's Run returns — by then the last
//     emit that could reference the batch has completed, because the
//     batch contract forbids consumers from retaining a batch past the
//     emit callback. (Scratch a filter or projection hands one worker
//     inside its sink factory is owned by the execution instead and
//     released when the plan finishes.) Released column arrays recycle
//     through size-classed pools (a small class serves index seeks whose
//     plan-time dive proved a handful of rows; everything else uses full
//     val.BatchSize), and a batch shell keeps its arrays attached so the
//     common same-query-shape steady state touches no pool at all.
//     Double-release panics; forgetting to release leaks nothing (the GC
//     reclaims unpooled memory).
//   - Scratch is per-worker. Compiled expression kernels are shared by
//     every parallel scan worker, so the vectors they compute into come
//     from a val.Arena owned by the calling worker (each scan worker,
//     and each serialized operator, holds its own). Arenas bump-allocate
//     and recycle wholesale: the batch-level entry points (filter,
//     appendTo) Reset the arena once per batch, after which every vector
//     from the previous batch is free. Arena memory is not zeroed, so
//     kernels write every active position, including explicit NULLs.
//   - Values outlive batches. Recycling reuses only batch structure and
//     column arrays; a Value's string or blob backing bytes are fresh
//     per decode and never recycled, so copied-out Values (aggregation
//     keys, sort rows, results) stay valid forever.
//   - ExecOptions.DisablePooling allocates everything fresh — the debug
//     oracle internal/queries' equivalence test runs the Q1–Q20 workload
//     against to prove recycling never corrupts results.
//
// # Query scheduler: worker pool and admission control
//
// internal/sched governs how queries share the machine, the answer to
// §7's operational story (2.5M hits in seven months with 20× television
// driven spikes):
//
//   - A persistent scan-worker pool (sched.Pool) lives on the storage
//     FileGroup for the life of the database. Parallel heap scans no
//     longer spawn goroutines per query: Heap.ScanBatches dispatches
//     shard tasks onto the pool, and shards claim pages in morsel-sized
//     chunks from per-stripe atomic counters. Shard w drains stripe w
//     first (pages ≡ w mod dop — one volume per worker when dop equals
//     the stripe width, the paper's parallel prefetch model) and then
//     steals leftovers from other stripes, so a shard the pool schedules
//     late never strands work. One shard always runs on the submitting
//     goroutine, so a saturated pool degrades to inline execution instead
//     of deadlocking. Worker errors are joined (errors.Join), not
//     first-one-wins.
//   - Every query carries a context.Context (Session.ExecContext /
//     ExecStreamContext): operators poll cancellation at batch
//     boundaries, the storage scan loop checks it between morsels, and a
//     closed HTTP connection or expired deadline aborts the query with
//     ErrCanceled / ErrTimeout within one batch. ExecOptions gained
//     Deadline (absolute; the earlier of it and Timeout wins) and
//     MaxConcurrency (caps one query's scan parallelism).
//   - The web layer admits query-running requests through a
//     workload-class admission gate (sched.Scheduler). The planner
//     classifies every plan at compile time — dive-proven index seeks
//     and small TVF probes are interactive, heap scans and large sweeps
//     are batch (sqlengine.QueryClass, cached with the plan; the web
//     gate classifies pre-admission from the cache alone via
//     Session.ClassifyCached, never compiling unadmitted text, with
//     unknown shapes admitted conservatively as batch) — and each class
//     owns a bounded FIFO queue with weighted running slots: interactive
//     queries hold a hard reservation and dequeue with priority (never
//     rejected while a reserved slot is free), batch queries may borrow
//     idle capacity but never past a waiting interactive query.
//     Everything beyond slots and queue bounds is shed immediately with
//     a well-formed 503 plus Retry-After; every gated response carries
//     X-Query-Class, and clients may downgrade to ?class=batch (never
//     escalate — the reservation is not client-claimable). Per-query and
//     per-class statistics — queue wait, execution time, pages and rows
//     scanned — aggregate at the /x/sched endpoint next to the pool's
//     counters (the endpoint itself is ungated so operators can watch
//     an overloaded server shed load). cmd/skyserver exposes
//     -scanworkers, -interactive-slots, -batch-slots,
//     -queuedepth-interactive, -queuedepth-batch and -timeout.
//
// Around the engine sit the Hierarchical Triangular Mesh spatial index
// (internal/htm); the SDSS snowflake schema with subclassing views and
// spatial table-valued functions (internal/schema); a deterministic
// synthetic survey pipeline with planted query answers
// (internal/pipeline); the journaled, undoable load pipeline
// (internal/load); the Neighbors materialized view (internal/neighbors);
// the image pyramid (internal/pyramid); the web front end
// (internal/web); and the traffic analytics of the paper's operations
// study (internal/traffic).
//
// Package core ties them together; cmd/skybench regenerates every table and
// figure of the paper's evaluation; bench_test.go (this directory) wraps
// those experiments as standard Go benchmarks — including
// BenchmarkBatchVsRowFilter, which isolates the vectorized-vs-row-fallback
// gap.
//
// # Where to read more
//
// Each internal package carries its own doc comment with the §-references
// it reproduces — start with internal/sqlengine (the engine and its
// planner), internal/sched (worker pool + class admission),
// internal/storage (pages, volumes, the disk model), internal/val (the
// value/batch representation and pooling contract), and internal/web (the
// HTTP surface). Repository-level documents:
//
//   - ARCHITECTURE.md — the full query lifecycle (parse → parameterize →
//     compile/cache → classify → admit → bind → schedule → scan-pool
//     execute → stream), a package-by-package tour with file pointers,
//     and the pooling/ownership rules.
//   - docs/ops.md — the operational surface: every cmd/skyserver flag and
//     the /x/sched and /x/plancache endpoint fields.
//   - docs/benchmarks.md — the measured PR-by-PR performance trajectory
//     and the benchmark-regression workflow (skybench -exp benchdiff).
//   - ROADMAP.md — the north star and open items.
package skyserver
