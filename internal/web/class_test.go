package web

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyserver/internal/sqlengine"
)

// seekSQL is a Q9-style dive-proven index seek (interactive); scanSQL is
// a ColorCutScan-style heap-scanning aggregate (batch).
const (
	seekSQL = "select specObjID, objID, z, zConf from SpecObj where specClass = 3 and z between 2.5 and 2.7"
	scanSQL = "select count(*) from PhotoObj where (petroMag_r - petroMag_g) > 1"
)

// TestQueryClassHeaderAndOverride checks the classification surface of
// the SQL endpoint: cold shapes admit conservatively as batch, cached
// shapes carry the planner's compile-time class into the X-Query-Class
// response header, and the ?class= parameter downgrades only.
func TestQueryClassHeaderAndOverride(t *testing.T) {
	sdb := survey(t)
	// ResultCacheBytes -1: repeated shapes below must reach the gate and
	// the engine every time, not be short-circuited from cached bytes.
	srv := NewServer(sdb, Options{Public: true, ResultCacheBytes: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A shape the plan cache has never seen admits as batch: the gate
	// must not compile unadmitted text.
	coldSeek := seekSQL + " and z > 0"
	code, _, hdr := get(t, ts.URL+"/x/sql?format=csv&cmd="+urlq(coldSeek))
	if code != http.StatusOK || hdr.Get("X-Query-Class") != "batch" {
		t.Errorf("cold shape: status %d class %q, want 200 batch", code, hdr.Get("X-Query-Class"))
	}
	// That admitted execution cached the plan with its real class: the
	// same shape (different constants) now classifies interactive.
	code, _, hdr = get(t, ts.URL+"/x/sql?format=csv&cmd="+urlq(seekSQL+" and z > 1"))
	if code != http.StatusOK || hdr.Get("X-Query-Class") != "interactive" {
		t.Errorf("warmed shape: status %d class %q, want 200 interactive", code, hdr.Get("X-Query-Class"))
	}

	// Warm the two template shapes through the engine (no admission).
	sess := sqlengine.NewSession(sdb.DB)
	for _, sql := range []string{seekSQL, scanSQL} {
		if _, err := sess.Exec(sql, sqlengine.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		path string
		want string
	}{
		{"/x/sql?format=csv&cmd=" + urlq(seekSQL), "interactive"},
		{"/x/sql?format=csv&cmd=" + urlq(scanSQL), "batch"},
		// Escalation is not honored: a batch scan cannot claim the
		// interactive reservation with a query parameter.
		{"/x/sql?format=csv&class=interactive&cmd=" + urlq(scanSQL), "batch"},
		// Downgrade is: a polite client keeps its seek out of the way.
		{"/x/sql?format=csv&class=batch&cmd=" + urlq(seekSQL), "batch"},
		// An unknown override value falls back to classification.
		{"/x/sql?format=csv&class=bogus&cmd=" + urlq(seekSQL), "interactive"},
		// Canned tools are interactive by construction.
		{"/en/tools/places/", "interactive"},
	}
	for _, tc := range cases {
		code, body, hdr := get(t, ts.URL+tc.path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, code, body)
		}
		if got := hdr.Get("X-Query-Class"); got != tc.want {
			t.Errorf("%s: X-Query-Class = %q, want %q", tc.path, got, tc.want)
		}
	}

	st := srv.Sched().Stats()
	// Cold probe (batch) + warmed seek (interactive) + 3 interactive and
	// 3 batch from the table above.
	if st.Interactive.Admitted != 4 || st.Batch.Admitted != 4 {
		t.Errorf("admitted interactive/batch = %d/%d, want 4/4",
			st.Interactive.Admitted, st.Batch.Admitted)
	}

	// The class is cached with the plan and readable without compiling.
	class, ok := sess.ClassifyCached(scanSQL)
	if !ok || class != sqlengine.ClassBatch {
		t.Errorf("ClassifyCached(scan) = %v/%v, want batch/true", class, ok)
	}
}

// TestDefaultSQLStatementIsInteractive: the statement the SQL page ships in
// its textarea reads ten entries of the (type, mode, r) index in order, so
// once its shape is known it classifies interactive, and its result is
// served from the result cache — a heap-scanning top-k was batch and never
// filled.
func TestDefaultSQLStatementIsInteractive(t *testing.T) {
	sdb := survey(t)
	srv := NewServer(sdb, Options{Public: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := ts.URL + "/x/sql?format=csv&cmd=" + urlq("select top 10 objID, ra, dec, r from Galaxy order by r")
	code, first, _ := get(t, p)
	if code != http.StatusOK {
		t.Fatalf("first GET: status %d: %s", code, first)
	}
	admitted := srv.Sched().Stats().Admitted
	code, second, hdr := get(t, p)
	if code != http.StatusOK || second != first {
		t.Fatalf("second GET: status %d, body match %v", code, second == first)
	}
	if got := hdr.Get("X-Query-Class"); got != "interactive" {
		t.Errorf("second GET X-Query-Class = %q, want interactive", got)
	}
	if st := resultCacheStats(t, ts); st.Fills != 1 || st.Hits != 1 {
		t.Errorf("result cache fills/hits = %d/%d, want 1/1", st.Fills, st.Hits)
	}
	if got := srv.Sched().Stats().Admitted; got != admitted {
		t.Errorf("the repeat passed admission (admitted %d -> %d), want a cache hit", admitted, got)
	}
}

// TestBatchFloodKeepsInteractiveSnappy is the tentpole acceptance test:
// saturating batch scans — enough concurrent clients to keep the batch
// queue full for the whole run — must not make the scheduler queue or
// reject a single interactive query while reserved interactive slots
// exist, and the per-class statistics must account for every request the
// clients sent.
func TestBatchFloodKeepsInteractiveSnappy(t *testing.T) {
	sdb := survey(t)
	// ResultCacheBytes -1: the per-class admission accounting asserted
	// below needs every interactive request to pass the scheduler.
	srv := NewServer(sdb, Options{Public: true,
		InteractiveSlots: 2, BatchSlots: 1,
		InteractiveQueueDepth: 8, BatchQueueDepth: 2,
		ResultCacheBytes: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The interactive stream is internal/traffic's page mix (explorer
	// drill-downs, the gallery, navigator rectangles — the canned-tool
	// routes), plus a planner-classified Q9-style seek on the SQL
	// endpoint; the /x/sql entries of the mix are the batch templates and
	// are flooded separately below.
	interactivePaths := []string{"/x/sql?format=csv&cmd=" + urlq(seekSQL)}
	for _, p := range trafficRequests(t, sdb, 96) {
		if !strings.HasPrefix(p, "/x/sql") {
			interactivePaths = append(interactivePaths, p)
		}
	}
	if len(interactivePaths) < 4 {
		t.Fatalf("traffic mix mapped to only %d interactive paths", len(interactivePaths))
	}

	batchPath := "/x/sql?format=csv&cmd=" + urlq(scanSQL)

	// Warm the SQL shapes through the engine first — pre-admission
	// classification is cache-peek-only, so the seek must be cached
	// before its HTTP requests can admit as interactive.
	sess := sqlengine.NewSession(sdb.DB)
	for _, sql := range []string{seekSQL, scanSQL} {
		if _, err := sess.Exec(sql, sqlengine.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Then warm up over HTTP: handlers exercised, scan pool created.
	for _, p := range append([]string{batchPath}, interactivePaths...) {
		if code, body, _ := get(t, ts.URL+p); code != http.StatusOK {
			t.Fatalf("warmup %s: status %d: %s", p, code, body)
		}
	}

	const (
		floodClients       = 8
		floodRequests      = 12
		interactiveClients = 2 // == InteractiveSlots: the reservation always has room
		interactiveRounds  = 25
	)
	var wg sync.WaitGroup
	var batch200, batch503 atomic.Int64
	errCh := make(chan error, floodClients+interactiveClients)

	// The flood: more batch clients than batch slots + queue depth, all
	// run before and throughout the interactive phase.
	for g := 0; g < floodClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < floodRequests; i++ {
				resp, err := http.Get(ts.URL + batchPath)
				if err != nil {
					errCh <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if got := resp.Header.Get("X-Query-Class"); got != "batch" {
					errCh <- fmt.Errorf("flood: X-Query-Class = %q, want batch", got)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					batch200.Add(1)
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" || !strings.Contains(string(body), "batch queue full") {
						errCh <- fmt.Errorf("malformed batch 503: header %q body %q",
							resp.Header.Get("Retry-After"), body)
						return
					}
					batch503.Add(1)
				default:
					errCh <- fmt.Errorf("flood: unexpected status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	// The interactive side: as many concurrent clients as reserved
	// slots, so a reserved slot is free at every admission — the
	// acceptance bound is therefore zero queue wait and zero 503s.
	var lats []time.Duration
	var latMu sync.Mutex
	for g := 0; g < interactiveClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < interactiveRounds; i++ {
				p := interactivePaths[(g+i)%len(interactivePaths)]
				start := time.Now()
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					errCh <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat := time.Since(start)
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("interactive %s under flood: status %d: %s", p, resp.StatusCode, body)
					return
				}
				if got := resp.Header.Get("X-Query-Class"); got != "interactive" {
					errCh <- fmt.Errorf("interactive %s: X-Query-Class = %q", p, got)
					return
				}
				latMu.Lock()
				lats = append(lats, lat)
				latMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := srv.Sched().Stats()
	// Accounting: every request the clients sent is in the per-class
	// counters (+ the serial warmups), nothing is left running or queued.
	wantInteractive := int64(interactiveClients*interactiveRounds + len(interactivePaths))
	if st.Interactive.Admitted != wantInteractive || st.Interactive.Rejected != 0 {
		t.Errorf("interactive admitted/rejected = %d/%d, want %d/0",
			st.Interactive.Admitted, st.Interactive.Rejected, wantInteractive)
	}
	wantBatch := int64(floodClients*floodRequests + 1)
	if got := st.Batch.Admitted + st.Batch.Rejected; got != wantBatch {
		t.Errorf("batch admitted+rejected = %d, want %d", got, wantBatch)
	}
	if st.Batch.Admitted != batch200.Load()+1 || st.Batch.Rejected != batch503.Load() {
		t.Errorf("batch admitted/rejected = %d/%d, clients saw %d/%d",
			st.Batch.Admitted, st.Batch.Rejected, batch200.Load()+1, batch503.Load())
	}
	if st.Interactive.Completed+st.Interactive.Failed != st.Interactive.Admitted {
		t.Errorf("interactive completed+failed = %d, admitted %d",
			st.Interactive.Completed+st.Interactive.Failed, st.Interactive.Admitted)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("running/queued = %d/%d after drain, want 0/0", st.Running, st.Queued)
	}
	// The acceptance bound: with the reservation never exhausted, no
	// interactive query waited in the queue at all.
	if st.Interactive.MaxQueueWaitMs != 0 {
		t.Errorf("interactive max queue wait = %.3fms under batch flood, want 0 (reserved-slot admission)",
			st.Interactive.MaxQueueWaitMs)
	}
	if batch503.Load() == 0 {
		t.Error("batch flood was never shed; the flood did not saturate the batch queue")
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p95 := lats[len(lats)*95/100]
	t.Logf("interactive under batch flood: %d requests, p50 %v, p95 %v; batch served %d, shed %d",
		len(lats), lats[len(lats)/2], p95, batch200.Load(), batch503.Load())
	// Generous wall-clock guard (scheduling, not perf, is under test):
	// an interactive seek must not take scan-queue time.
	if bound := 5 * time.Second; p95 > bound {
		t.Errorf("interactive p95 = %v under batch flood, want < %v", p95, bound)
	}
}

// BenchmarkInteractiveUnderBatchFlood measures the HTTP-level latency of
// a Q9-style interactive seek while batch color-cut scans keep the batch
// queue saturated — the "explorer stays snappy" number. Compare with
// BenchmarkInteractiveNoLoad for the flood's overhead.
func BenchmarkInteractiveUnderBatchFlood(b *testing.B) {
	benchInteractive(b, true)
}

// BenchmarkInteractiveNoLoad is the same interactive request stream on an
// idle server — the baseline for BenchmarkInteractiveUnderBatchFlood.
func BenchmarkInteractiveNoLoad(b *testing.B) {
	benchInteractive(b, false)
}

func benchInteractive(b *testing.B, flood bool) {
	srv := NewServer(survey(b), Options{Public: true,
		InteractiveSlots: 2, BatchSlots: 1, BatchQueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	seekPath := ts.URL + "/x/sql?format=csv&cmd=" + urlq(seekSQL)
	batchPath := ts.URL + "/x/sql?format=csv&cmd=" + urlq(scanSQL)
	fetch := func(url string) (int, error) {
		resp, err := http.Get(url)
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	if code, err := fetch(seekPath); err != nil || code != http.StatusOK {
		b.Fatalf("warmup: %d %v", code, err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if flood {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, _ = fetch(batchPath) // 200 and 503 both keep the pressure on
				}
			}()
		}
		// Let the flood occupy the batch slots before measuring.
		time.Sleep(50 * time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, err := fetch(seekPath)
		if err != nil {
			b.Fatal(err)
		}
		if code != http.StatusOK {
			b.Fatalf("interactive seek: status %d", code)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
