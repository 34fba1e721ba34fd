package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics every untraced run prints, on every
// workload; perLayer are those every traced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"build_dist_cpu_rel", "x", "lower"},
	{"build_central_cpu_rel", "x", "lower"},
	{"spanner_edges", "edges", "lower"},
	{"rounds", "rounds", "lower"},
	{"messages", "msgs", "lower"},
	{"query_p50_us", "us", "lower"},
	{"batch_pairs_per_s", "1/s", "higher"},
	{"patch_chain_cpu_rel", "x", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// protocolSteps are the distributed build's protocol steps, in the
// order a phase runs them.
var protocolSteps = []string{"near-neighbors", "ruling-set", "forest", "forest-paths", "interconnect"}

// centralSteps are the centralized build's step spans. Its ruling-set
// step reports before its work and its forest step after, so the work
// of the two lies in one gap between reports and is one span.
var centralSteps = []string{"near-neighbors", "ruling-set-forest", "forest-paths", "interconnect"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gen.graph_s", "s", "lower"},
		{"core.build_dist_s", "s", "lower"},
		{"core.build_central_s", "s", "lower"},
		{"core.build_seq_s", "s", "lower"},
		{"core.build_dist_alloc_mb", "MB", "lower"},
		{"core.build_central_alloc_mb", "MB", "lower"},
	}
	for _, s := range protocolSteps {
		defs = append(defs, metricDef{"protocols.dist." + s + "_s", "s", "lower"})
	}
	for _, s := range protocolSteps {
		defs = append(defs, metricDef{"protocols.dist." + s + ".messages", "msgs", "lower"})
	}
	for _, s := range centralSteps {
		defs = append(defs, metricDef{"protocols.central." + s + "_s", "s", "lower"})
	}
	return append(defs, []metricDef{
		{"congest.arena_mb", "MB", "lower"},
		{"graph.fingerprint_ms", "ms", "lower"},
		{"graph.encode_ms", "ms", "lower"},
		{"graph.decode_ms", "ms", "lower"},
		{"store.open_ms", "ms", "lower"},
		{"store.append_ms", "ms", "lower"},
		{"store.snapshot_write_ms", "ms", "lower"},
		{"store.snapshot_load_ms", "ms", "lower"},
		{"store.journal_bytes", "bytes", "lower"},
		{"oracle.attach_ms", "ms", "lower"},
		{"oracle.dist_us", "us", "lower"},
		{"oracle.dist_p99_us", "us", "lower"},
		{"oracle.path_us", "us", "lower"},
		{"oracle.batch_pairs_per_s", "1/s", "higher"},
		{"oracle.misses", "count", "lower"},
		{"oracle.source_runs", "count", "lower"},
		{"oracle.cache_hit_ratio", "ratio", "higher"},
		{"delta.apply_ms", "ms", "lower"},
		{"delta.rebuild_s", "s", "lower"},
		{"delta.replayed_vertices", "count", "lower"},
		{"delta.incremental", "count", "higher"},
		{"delta.fallbacks", "count", "lower"},
		{"service.job_overhead_ms", "ms", "lower"},
		{"service.query_overhead_us", "us", "lower"},
		{"service.query_p99_us", "us", "lower"},
		{"service.patch_overhead_ms", "ms", "lower"},
		{"service.recover_ms", "ms", "lower"},
	}...)
}()

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics against a registry.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{defs: make(map[string]metricDef), vals: make(map[string]metricValue)}
	for _, d := range defs {
		s.defs[d.Name] = d
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	d, ok := s.defs[name]
	if !ok {
		panic("spanbench: unregistered metric " + name)
	}
	s.vals[name] = metricValue{Value: v, Unit: d.Unit}
}

// complete reports the registered metrics the run did not set, or set
// to a value that is not a finite number.
func (s *metricSet) complete() error {
	var missing []string
	for name := range s.defs {
		v, ok := s.vals[name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	return nil
}
