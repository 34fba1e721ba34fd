package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// steady runs one workload repeatedly, each run a separate untraced
// process with its own seed, in sets separated in time (host speed
// drifts between sets). Every set uses the seeds seed0, seed0+1, ....
// It prints each end-to-end metric's median, quartiles, spread and
// largest relative deviation per set, and the drift of each set's
// median from the first set's.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 5, "runs per set, seeds seed0, seed0+1, ...")
	sets := fs.Int("sets", 1, "sets of runs")
	gap := fs.Duration("gap", 0, "pause between sets")
	seed0 := fs.Uint64("seed0", 1, "seed of a set's first run")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	root := fs.String("root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*workload]; !ok || *runs < 1 || *sets < 1 {
		return fmt.Errorf("need --workload build|serve|churn, --runs >= 1, --sets >= 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all []map[string]float64
	for s := range *sets {
		if s > 0 {
			time.Sleep(*gap)
		}
		var set []map[string]float64
		var attempted, failed int64
		for i := range *runs {
			seed := *seed0 + uint64(i)
			start := time.Now()
			steal0, total0 := cpuSteal()
			res, err := runChild(self, *workload, seed, *seconds, *root)
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", s, seed, err)
			}
			steal1, total1 := cpuSteal()
			fmt.Fprintf(os.Stderr, "set %d seed %d: %.1fs steal %.1f%% correct=%v attempted=%d failed=%d\n",
				s, seed, time.Since(start).Seconds(), 100*float64(steal1-steal0)/float64(max(total1-total0, 1)),
				res.Correct, res.Attempted, res.Failed)
			if !res.Correct {
				return fmt.Errorf("set %d seed %d: a check failed", s, seed)
			}
			attempted += res.Attempted
			failed += res.Failed
			vals := map[string]float64{}
			for name, v := range res.Metrics {
				vals[name] = v.Value
			}
			set = append(set, vals)
		}
		fmt.Printf("set %d: %s, %d runs, failed %d of %d operations\n", s, *workload, *runs, failed, attempted)
		printSpread(set, nil)
		if s > 0 {
			fmt.Printf("set %d against set 0:\n", s)
			printSpread(set, all[:*runs])
		}
		all = append(all, set...)
	}
	return nil
}

// cpuSteal reads the machine's CPU time stolen by the hypervisor and
// its total CPU time, in clock ticks, from /proc/stat; zeros if it
// cannot. On a shared virtual machine the stolen share of a run is
// what most moves its timings.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// runChild runs one untraced benchmark process and parses its result
// line.
func runChild(self, workload string, seed uint64, seconds float64, root string) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--root", root)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	err := json.Unmarshal([]byte(last), &res)
	return res, err
}

// printSpread prints, per metric, the median, quartiles, interquartile
// spread and largest deviation of set; with base set it prints instead
// the drift of set's median from base's median.
func printSpread(set, base []map[string]float64) {
	names := make([]string, 0, len(set[0]))
	for name := range set[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	col := func(s []map[string]float64, name string) []float64 {
		var xs []float64
		for _, v := range s {
			xs = append(xs, v[name])
		}
		return xs
	}
	for _, name := range names {
		xs := col(set, name)
		if base != nil {
			fmt.Printf("  %-28s median %12.6g  base %12.6g  drift %+7.2f%%\n", name, median(xs), median(col(base, name)),
				100*(median(xs)/median(col(base, name))-1))
			continue
		}
		q1, q3 := quartiles(xs)
		fmt.Printf("  %-28s median %12.6g  q1 %12.6g  q3 %12.6g  iqr/median %6.2f%%  max dev %6.2f%%  runs %.4g\n",
			name, median(xs), q1, q3, 100*relSpread(xs), 100*maxRelDev(xs), xs)
	}
}
