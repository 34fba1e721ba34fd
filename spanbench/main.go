// Command spanbench is the end-to-end benchmark of spannerd, the
// daemon that builds (1+ε, β)-spanners and serves distance queries on
// them. It runs one named workload against in-process daemons, each on
// a loopback listener with a store that fsyncs every write, checks the
// daemon's outputs with its own BFS, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	spanbench --workload build|serve|churn --seed N --seconds S --trace 0|1
//	spanbench steady --workload W --runs N --sets K --gap D --seconds S
//
// Run it through run.sh, which builds it from source first. See
// README.md for the workloads, the metrics and the checks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is printed before the result: the per-kind operation counts
// and every check, for a reader of the log.
type report struct {
	Workload string                      `json:"workload"`
	Seed     uint64                      `json:"seed"`
	Ops      map[string]map[string]int64 `json:"ops"`
	Checks   []checkResult               `json:"checks"`
	Chains   []string                    `json:"chains,omitempty"`
	Setups   []float64                   `json:"setup_seconds,omitempty"`
	Costs    map[string]float64          `json:"costs,omitempty"`
	Spans    string                      `json:"spans,omitempty"`
}

var workloads = map[string]func(*runner) error{
	"build": (*runner).runBuild,
	"serve": (*runner).runServe,
	"churn": (*runner).runChurn,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "spanbench steady:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload: build, serve or churn")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder instead of the end-to-end run")
	root := flag.String("root", ".", "checkout root; run files go under <root>/.bench_build")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ok, err := run(defaultConfig(), *workload, *seed, *seconds, *trace == 1, *root, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spanbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one workload run and prints its report and result. It
// reports whether every check passed; an error means the run could not
// complete and printed no result.
func run(cfg config, workload string, seed uint64, seconds float64, traced bool, root string, out io.Writer) (bool, error) {
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	fam, err := makeFamily(cfg, seed)
	if err != nil {
		return false, err
	}
	r := &runner{cfg: cfg, seed: seed, seconds: seconds, work: work, fam: fam,
		cal: newCalibrator(cfg.N, cfg.P), costs: map[string]float64{}}
	var spansPath string
	if traced {
		r.out = newMetricSet(perLayer)
		spansPath = filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
		err = r.traced(workload, spansPath)
	} else {
		r.out = newMetricSet(endToEnd)
		err = r.setup()
		if err == nil {
			err = workloads[workload](r)
		}
		if err == nil {
			r.setCosts()
		}
	}
	if r.d != nil {
		err = errors.Join(err, r.shutdown())
	}
	if err != nil {
		return false, err
	}
	if err := r.out.complete(); err != nil {
		return false, err
	}
	rep := report{Workload: workload, Seed: seed, Ops: map[string]map[string]int64{}, Checks: r.chk.results, Chains: r.patterns, Setups: r.setups, Costs: r.costs, Spans: spansPath}
	for k := range numOps {
		rep.Ops[opNames[k]] = map[string]int64{"attempted": r.ops.attempted[k], "failed": r.ops.failed[k]}
	}
	res := result{Correct: r.chk.ok(), Metrics: r.out.vals}
	res.Attempted, res.Failed = r.ops.totals()
	enc := json.NewEncoder(out)
	if err := enc.Encode(rep); err != nil {
		return false, err
	}
	if err := enc.Encode(res); err != nil {
		return false, err
	}
	return res.Correct, nil
}
