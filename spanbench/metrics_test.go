package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json lists exactly the metrics the program registers, with
// the same units and directions, and only well-formed names.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	b := readBenchmark(t)
	var e2e, layer []metricDef
	largest := 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nregistered:\n%v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nregistered:\n%v", layer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
}

// smallConfig shrinks the inputs so that every workload runs in
// seconds; the query counts still leave ten samples beyond each p99.
func smallConfig() config {
	c := defaultConfig()
	c.N, c.P, c.Family = 256, 0.05, 2
	c.Chain, c.TailPatches = []int{1, 8}, 1
	c.QueriesPerPatch = 600
	c.ProbeQueries, c.ProbeBatches = 1200, 4
	c.AnswerSample = 256
	return c
}

// Every workload, untraced and traced, prints exactly the registered
// metrics and passes its checks, on small inputs, with no failed
// operation. On these graphs a rebuild takes less time than writing the
// job's done snapshot, so a PATCH sent right after a ?wait=1 submit can
// race that write: runJob in internal/service/service.go publishes the
// job before persistDone has written <job>.snap.tmp, and the PATCH's own
// snapshot write collides with it. When the store then turns read-only,
// this test fails on the failed PATCH or submit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root := t.TempDir()
	for w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			ok, err := run(smallConfig(), w, 3, 0.5, traced, root, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, lines[0])
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got, names []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, d := range want {
				names = append(names, d.Name)
				if v := res.Metrics[d.Name]; v.Unit != d.Unit {
					t.Errorf("%s: %s unit %q, want %q", w, d.Name, v.Unit, d.Unit)
				}
			}
			slices.Sort(got)
			slices.Sort(names)
			if !slices.Equal(got, names) {
				t.Errorf("%s traced=%v printed %v, want %v", w, traced, got, names)
			}
		}
	}
}
