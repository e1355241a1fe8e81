package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyserver/internal/schema"
	"skyserver/internal/sqlengine"
	"skyserver/internal/traffic"
)

// trafficRequests maps the traffic generator's page mix (the §7 site map)
// to concrete requests this server implements, substituting a live objID
// where the path needs one. Paths outside the reproduced surface are
// dropped, queries rotate through a small template set — exactly the
// template-driven workload the plan cache and scheduler are built for.
func trafficRequests(t *testing.T, sdb *schema.SkyDB, n int) []string {
	t.Helper()
	sess := sqlengine.NewSession(sdb.DB)
	res, err := sess.Exec("select top 5 objID from Galaxy order by r asc", sqlengine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no galaxies in the survey")
	}
	ids := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		ids[i] = row[0].I
	}
	sqlTemplates := []string{
		"/x/sql?format=csv&cmd=" + urlq("select top 7 objID, ra, dec from Galaxy order by r asc"),
		"/x/sql?format=json&cmd=" + urlq("select count(*) from PhotoObj where (r - g) > 1"),
		"/x/sql?format=csv&cmd=" + urlq("select count(*) from PhotoObj where (petroMag_r - petroMag_g) > 1"),
	}

	var log bytes.Buffer
	if _, err := traffic.Generate(traffic.Config{Seed: 7, BaseSessions: 2, Days: 3}, &log); err != nil {
		t.Fatal(err)
	}
	var out []string
	i, nSQL := 0, 0
	for _, line := range strings.Split(log.String(), "\n") {
		if line == "" {
			continue
		}
		e, err := traffic.ParseLine(line)
		if err != nil {
			t.Fatal(err)
		}
		i++
		switch {
		case strings.HasSuffix(e.Path, "/tools/places/"):
			out = append(out, "/en/tools/places/")
		case strings.Contains(e.Path, "/tools/explore/obj.asp"):
			out = append(out, fmt.Sprintf("/en/tools/explore/obj.asp?id=%d", ids[i%len(ids)]))
		case strings.Contains(e.Path, "/tools/search/sql.asp"):
			// Rotated by their own counter so every template — the heap
			// scan the page-accounting assertions rest on, now that the
			// gallery reads an index — appears whatever the log's order.
			out = append(out, sqlTemplates[nSQL%len(sqlTemplates)])
			nSQL++
		case strings.Contains(e.Path, "/tools/navi/"):
			out = append(out, "/en/tools/navi/objects?ra1=184.9&ra2=185.1&dec1=-0.6&dec2=-0.4&format=json")
		}
		if len(out) >= n {
			break
		}
	}
	if len(out) < 8 {
		t.Fatalf("traffic mix produced only %d mapped requests", len(out))
	}
	return out
}

func urlq(s string) string { return strings.ReplaceAll(s, " ", "+") }

// elapsedRe masks the one nondeterministic byte range in a JSON response
// (the elapsed-time footer) so payloads can be compared byte for byte.
var elapsedRe = regexp.MustCompile(`"elapsedMs":[0-9.eE+-]+`)

func normalizeBody(b string) string {
	return elapsedRe.ReplaceAllString(b, `"elapsedMs":X`)
}

// TestConcurrentTrafficMix replays the generator's query mix with 32
// client goroutines against an admission-controlled server and checks
// that no response is lost or mangled: every request gets either its
// full, well-formed payload or a well-formed 503 with Retry-After.
func TestConcurrentTrafficMix(t *testing.T) {
	sdb := survey(t)
	// ResultCacheBytes -1: the scheduler-accounting assertions below need
	// every served response to have passed admission.
	srv := NewServer(sdb, Options{Public: true,
		InteractiveSlots: 2, BatchSlots: 2,
		InteractiveQueueDepth: 8, BatchQueueDepth: 8,
		ResultCacheBytes: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := trafficRequests(t, sdb, 96)

	// Expected payloads, fetched serially first: the concurrent replay
	// must reproduce them byte for byte (responses are deterministic).
	want := make(map[string]string, len(reqs))
	for _, p := range reqs {
		if _, ok := want[p]; ok {
			continue
		}
		code, body, _ := get(t, ts.URL+p)
		if code != http.StatusOK {
			t.Fatalf("serial %s: status %d: %s", p, code, body)
		}
		want[p] = normalizeBody(body)
	}

	const goroutines = 32
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += goroutines {
				p := reqs[i]
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					errCh <- fmt.Errorf("%s: %v", p, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- fmt.Errorf("%s: read: %v", p, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if normalizeBody(string(body)) != want[p] {
						errCh <- fmt.Errorf("%s: mangled response (%d bytes, want %d)",
							p, len(body), len(want[p]))
						return
					}
					served.Add(1)
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						errCh <- fmt.Errorf("%s: 503 without Retry-After", p)
						return
					}
					if !strings.Contains(string(body), "overloaded") {
						errCh <- fmt.Errorf("%s: malformed 503 body %q", p, body)
						return
					}
					shed.Add(1)
				default:
					errCh <- fmt.Errorf("%s: unexpected status %d: %s", p, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if served.Load() == 0 {
		t.Error("no request was served")
	}
	t.Logf("served %d, shed %d of %d requests", served.Load(), shed.Load(), len(reqs))

	st := srv.Sched().Stats()
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("scheduler not drained: running %d, queued %d", st.Running, st.Queued)
	}
	if got := served.Load(); st.Completed < got {
		t.Errorf("scheduler completed %d < served %d", st.Completed, got)
	}
	if st.PagesScanned == 0 {
		t.Error("no pages charged to the scheduler; per-query stats not wired")
	}
}

// TestGalleryEarlyStopIsNotAFailure: the famous-places top-k ends its index
// seek early (errStopEarly inside the engine). At the gate that must read as
// a completed request charged only the entries it visited — a handful, no
// heap pages — never as a failure.
func TestGalleryEarlyStopIsNotAFailure(t *testing.T) {
	srv := NewServer(survey(t), Options{Public: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body, _ := get(t, ts.URL+"/en/tools/places/")
	if code != http.StatusOK || strings.Count(body, "<li>") != 20 {
		t.Fatalf("places: status %d, %d entries", code, strings.Count(body, "<li>"))
	}
	st := srv.Sched().Stats().Interactive
	if st.Completed != 1 || st.Failed != 0 {
		t.Errorf("completed/failed = %d/%d, want 1/0", st.Completed, st.Failed)
	}
	if st.RowsScanned == 0 || st.RowsScanned > 80 || st.PagesScanned != 0 {
		t.Errorf("charged %d rows and %d pages, want 1..80 index entries and no heap pages",
			st.RowsScanned, st.PagesScanned)
	}
}

// TestSaturationShedsLoad drives far more concurrency than the gate
// admits and checks the §7 property: the overload is shed with 503s and
// goroutines do not pile up behind it.
func TestSaturationShedsLoad(t *testing.T) {
	sdb := survey(t)
	srv := NewServer(sdb, Options{Public: true,
		InteractiveSlots: 1, BatchSlots: 1,
		InteractiveQueueDepth: 1, BatchQueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A heap-scanning aggregate: slow enough that concurrent copies pile
	// into the queue.
	p := "/x/sql?format=csv&cmd=" + urlq("select count(*) from PhotoObj where (petroMag_r - petroMag_g) > 1")
	// Warm up serially so the scan pool exists before the goroutine
	// baseline is taken: the pool is a fixed DB-lifetime cost, not load-
	// driven growth.
	if code, body, _ := get(t, ts.URL+p); code != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", code, body)
	}
	const goroutines = 32
	var ok200, ok503 atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	before := runtime.NumGoroutine()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					errCh <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" || !strings.Contains(string(body), "overloaded") {
						errCh <- fmt.Errorf("malformed 503: header %q body %q",
							resp.Header.Get("Retry-After"), body)
						return
					}
					ok503.Add(1)
				default:
					errCh <- fmt.Errorf("unexpected status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if ok200.Load() == 0 {
		t.Error("saturated server served nothing")
	}
	if ok503.Load() == 0 {
		t.Error("saturated server shed nothing; admission control not engaged")
	}
	st := srv.Sched().Stats()
	if st.Rejected != ok503.Load() {
		t.Errorf("scheduler rejected %d, clients saw %d", st.Rejected, ok503.Load())
	}
	t.Logf("under saturation: batch avg queue wait %.1fms (max %.1fms), avg exec %.1fms, served %d, shed %d",
		st.Batch.AvgQueueWaitMs, st.Batch.MaxQueueWaitMs, st.Batch.AvgExecMs, ok200.Load(), ok503.Load())
	// Admission control bounds concurrency: once the burst drains, the
	// goroutine count returns to its neighborhood instead of having
	// grown with the offered load.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+16 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d and stayed there",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stats endpoint stays readable during and after overload.
	code, body, _ := get(t, ts.URL+"/x/sched")
	if code != http.StatusOK {
		t.Fatalf("/x/sched: status %d", code)
	}
	var doc struct {
		Admission struct {
			Admitted int64 `json:"admitted"`
			Rejected int64 `json:"rejected"`
			Batch    struct {
				Slots    int   `json:"slots"`
				Rejected int64 `json:"rejected"`
			} `json:"batch"`
			Interactive struct {
				Slots int `json:"slots"`
			} `json:"interactive"`
		} `json:"admission"`
		ScanPool struct {
			Workers int `json:"workers"`
		} `json:"scanPool"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/x/sched: bad JSON: %v", err)
	}
	if doc.Admission.Rejected == 0 || doc.Admission.Admitted == 0 {
		t.Errorf("/x/sched counters empty: %s", body)
	}
	// The saturating scans are batch class: the per-class breakdown must
	// attribute the shed load there and report the configured slots.
	if doc.Admission.Batch.Slots != 1 || doc.Admission.Interactive.Slots != 1 {
		t.Errorf("/x/sched per-class slots = %d/%d, want 1/1: %s",
			doc.Admission.Interactive.Slots, doc.Admission.Batch.Slots, body)
	}
	if doc.Admission.Batch.Rejected != doc.Admission.Rejected {
		t.Errorf("/x/sched batch rejected %d != total rejected %d",
			doc.Admission.Batch.Rejected, doc.Admission.Rejected)
	}
	if doc.ScanPool.Workers == 0 {
		t.Errorf("/x/sched reports no scan-pool workers: %s", body)
	}
}
