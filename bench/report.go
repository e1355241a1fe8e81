package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// gated is one end-to-end metric and the share of the baseline by which it
// may worsen before a change counts as a regression. BENCHMARK.json repeats
// this table for the driver; bench_test.go keeps the two equal.
type gated struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []gated{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.10},
	{"p50_ms", "ms", "lower", 0.20},
	{"p99_ms", "ms", "lower", 0.25},
}

// env is what two results must share before their numbers may be compared.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Clients    int     `json:"clients"`
	Seconds    int     `json:"seconds"`
}

type report struct {
	Env       env              `json:"env"`
	Claim     *string          `json:"claim"` // always null: this benchmark's own change claims no gain
	Workloads []workloadResult `json:"workloads"`
}

func environment(seed int64, seconds int) env {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Scale: surveyScale, Clients: clientCount(), Seconds: seconds,
	}
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func compareFiles(a, b string) error {
	var ra, rb report
	for path, dst := range map[string]*report{a: &ra, b: &rb} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return compareReports(&ra, &rb, false)
}

// compareReports prints one row per workload × gated metric: both values and
// how much worse (+) or better (−) b is than a as a share of a. It refuses
// to compare results taken under different conditions, and with enforce it
// fails when any pair is worse by more than its bound.
func compareReports(a, b *report, enforce bool) error {
	ea, eb := a.Env, b.Env
	ea.Commit, eb.Commit = "", ""
	if ea != eb {
		return fmt.Errorf("REFUSING TO COMPARE: the two results were not taken under the same conditions\n  a: %+v\n  b: %+v", a.Env, b.Env)
	}
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Workload] = w
	}
	var over []string
	fmt.Printf("%-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", a.Env.Commit, b.Env.Commit, "worse by", "bound")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok || wa.Traced != wb.Traced {
			return fmt.Errorf("REFUSING TO COMPARE: workload %s is not in both results with the same tracing", wa.Workload)
		}
		for _, g := range endToEnd {
			va, oka := wa.Metrics[g.name]
			vb, okb := wb.Metrics[g.name]
			if !oka || !okb {
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if g.better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > g.bound {
				flag = "  OVER BOUND"
				over = append(over, wa.Workload+" "+g.name)
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				wa.Workload, g.name+" ("+g.unit+")", va.Value, vb.Value, 100*worse, 100*g.bound, flag)
		}
	}
	if enforce && len(over) > 0 {
		return fmt.Errorf("worse by more than the bound: %s", strings.Join(over, ", "))
	}
	return nil
}
