// Command bench is the repository's benchmark: it loads the default survey,
// serves it with real net/http on a loopback listener in this process,
// drives it closed-loop over keep-alive connections, checks every response,
// and prints each metric by name and unit. README.md in this directory
// explains the workloads, the metrics, their bounds and how they interact.
//
//	bash bench/run.sh                              # all four workloads
//	bash bench/run.sh --workload sql.scan --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh --trace 1                    # per-layer traced pass
//	bash bench/run.sh -aa                          # the suite twice; bounds enforced
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

const (
	// defaultSeed is the seed to develop against. 20020603 is held out: a
	// claimed gain must also hold on it (README.md, "Running it").
	defaultSeed = 20011002
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 15
)

func main() {
	workload := flag.String("workload", "", "run one workload (default: all): web.mix, sql.lookup, sql.scan, sql.churn")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated request sequences")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 = the traced per-layer pass instead of the end-to-end run")
	aa := flag.Bool("aa", false, "run the suite twice on the same code and fail if a gated metric differs by more than its bound")
	compare := flag.Bool("compare", false, "compare two result.json files given as arguments")
	out := flag.String("out", "bench/out", "directory for result.json and trace-<workload>.json")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace != 0, *aa, *compare, *out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced, aa, compare bool, out string, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result.json files")
		}
		return compareFiles(args[0], args[1])
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	names := workloadNames
	if workload != "" {
		if _, ok := workloadWhy[workload]; !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		names = []string{workload}
	}
	d := time.Duration(seconds) * time.Second
	first, err := suite(names, seed, d, traced, out)
	if err != nil {
		return err
	}
	if err := writeJSON(out, "result.json", first); err != nil {
		return err
	}
	if aa {
		second, err := suite(names, seed, d, traced, out)
		if err != nil {
			return err
		}
		if err := writeJSON(out, "result-aa.json", second); err != nil {
			return err
		}
		if err := compareReports(first, second, true); err != nil {
			return err
		}
	}
	if workload != "" {
		// The driver's contract: one JSON object as the last line.
		r := first.Workloads[0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// suite runs each named workload against its own fresh server.
func suite(names []string, seed int64, seconds time.Duration, traced bool, out string) (*report, error) {
	rep := &report{Env: environment(seed, int(seconds.Seconds()))}
	fmt.Printf("bench: %+v\n", rep.Env)
	for _, name := range names {
		res, err := runWorkload(name, seed, seconds, traced, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		printResult(res)
		rep.Workloads = append(rep.Workloads, *res)
	}
	return rep, nil
}

func runWorkload(name string, seed int64, seconds time.Duration, traced bool, out string) (*workloadResult, error) {
	if traced {
		return traceWorkload(name, seed, seconds, out)
	}
	in, setupS, err := setUp()
	if err != nil {
		return nil, err
	}
	defer in.stop()
	cat, err := readCatalog(in.sky)
	if err != nil {
		return nil, err
	}
	res, err := measure(in, cat, name, seed, seconds, clientCount())
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = metric{setupS, "s"}
	return res, nil
}
