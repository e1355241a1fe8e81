package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"skyserver/internal/core"
	"skyserver/internal/neighbors"
	"skyserver/internal/queries"
	"skyserver/internal/sqlengine"
	"skyserver/internal/web"
)

// surveyScale is cmd/skyserver's default -scale; the benchmark measures the
// server as it ships, so none of its 25 flags is varied here.
const surveyScale = 1.0 / 400

// instance is one loaded survey served on a loopback TCP listener in this
// process: the cmd/skyserver defaults (public limits, 1 shard, auto slots)
// behind real net/http.
type instance struct {
	sky  *core.SkyServer
	web  *web.Server
	srv  *http.Server
	base string // "http://127.0.0.1:port"
	done chan error

	// loadS and neighborsS split the set-up time when the survey was
	// opened in two steps (traced runs only).
	loadS, neighborsS float64
}

// start opens the default survey, serves it and waits for the first 200 from
// the health endpoint — the path whose duration is setup_s. With split the
// neighbors view is built as a separate, separately timed step; the loaded
// database is the same either way.
func start(split bool) (*instance, error) {
	in := &instance{}
	t0 := time.Now()
	s, err := core.Open(core.Config{Scale: surveyScale, SkipNeighbors: split})
	if err != nil {
		return nil, fmt.Errorf("open survey: %w", err)
	}
	in.sky = s
	if split {
		in.loadS = time.Since(t0).Seconds()
		t1 := time.Now()
		if _, err := neighbors.Build(s.DB(), 0); err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("build neighbors: %w", err)
		}
		in.neighborsS = time.Since(t1).Seconds()
	}
	in.web = s.Web(web.Options{Public: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.web.Close()
		_ = s.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	in.srv = &http.Server{Handler: in.web.Handler()}
	in.base = "http://" + ln.Addr().String()
	in.done = make(chan error, 1)
	go func() { in.done <- in.srv.Serve(ln) }()
	resp, err := http.Get(in.base + "/api/v1/status/health")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("health: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

// stop closes the listener and every connection, waits for the accept loop
// to exit, then releases the job service and the storage volumes.
func (in *instance) stop() {
	_ = in.srv.Close()
	<-in.done
	in.web.Close()
	_ = in.sky.Close()
}

// checkQueries runs the paper's twenty queries in-process and returns the
// first planted-truth mismatch: a survey that answers them wrongly is not
// worth timing.
func (in *instance) checkQueries() error {
	for _, q := range queries.All() {
		tm := queries.Run(in.sky.Session(), q, in.sky.Truth(), sqlengine.ExecOptions{})
		if tm.Err != nil {
			return fmt.Errorf("Q%s: %w", tm.ID, tm.Err)
		}
	}
	return nil
}

// counters is the subset of the /api/v1/status/* documents the benchmark
// reads before and after a run. Field names are the JSON names documented in
// docs/ops.md — the benchmark depends on the wire format, not on Go types.
type counters struct {
	ResultCache struct {
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		Fills         int64 `json:"fills"`
		Invalidations int64 `json:"invalidations"`
		Evictions     int64 `json:"evictions"`
	}
	PlanCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	}
	Sched struct {
		Admission struct {
			Interactive, Batch struct {
				Admitted       int64   `json:"admitted"`
				AvgQueueWaitMs float64 `json:"avgQueueWaitMs"`
			}
			Rejected     int64 `json:"rejected"`
			PagesScanned int64 `json:"pagesScanned"`
			RowsScanned  int64 `json:"rowsScanned"`
		} `json:"admission"`
	}
	Shards struct {
		PerShard []struct {
			PhysReads uint64 `json:"physReads"`
		} `json:"perShard"`
	}
}

func (in *instance) readCounters() (counters, error) {
	var c counters
	for name, dst := range map[string]any{
		"resultcache": &c.ResultCache, "plancache": &c.PlanCache,
		"sched": &c.Sched, "shards": &c.Shards,
	} {
		resp, err := http.Get(in.base + "/api/v1/status/" + name)
		if err != nil {
			return c, err
		}
		err = json.NewDecoder(resp.Body).Decode(dst)
		resp.Body.Close()
		if err != nil {
			return c, fmt.Errorf("status/%s: %w", name, err)
		}
	}
	return c, nil
}

// queueWaitMs is the total admission queue wait the scheduler has recorded.
func (c counters) queueWaitMs() float64 {
	a := c.Sched.Admission
	return a.Interactive.AvgQueueWaitMs*float64(a.Interactive.Admitted) +
		a.Batch.AvgQueueWaitMs*float64(a.Batch.Admitted)
}

func (c counters) admitted() int64 {
	return c.Sched.Admission.Interactive.Admitted + c.Sched.Admission.Batch.Admitted
}

func (c counters) physReads() (n uint64) {
	for _, s := range c.Shards.PerShard {
		n += s.PhysReads
	}
	return n
}
