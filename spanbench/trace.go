package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/oracle"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/service"
	"nearspan/internal/store"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Op; Parent is the enclosing span's ID (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts a new operation id.
func (t *tracer) op() int {
	t.ops++
	return t.ops
}

func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// time runs fn inside a span and returns the span's id.
func (t *tracer) time(name string, parent, op int, fn func()) int {
	start := time.Now()
	fn()
	return t.add(name, parent, op, start, time.Now())
}

// selfTimes returns each span's duration minus the time its children
// cover, in nanoseconds, indexed by span id - 1. Children of one span
// never overlap: the traced run makes its calls one at a time.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// selfOf returns the self times, in the given unit, of the spans named
// name.
func (t *tracer) selfOf(name string, unit time.Duration) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/float64(unit))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ladder holds what the traced run carries from one layer to the next.
type ladder struct {
	r  *runner
	tr *tracer
	w  string

	graphs []*graph.Graph
	params []*params.Params
	dist   []*core.Result // per family graph, with rebuild state
	// perBuild collects one value per build under "<build span>/<what>",
	// such as "core.build.dist/alloc_mb".
	perBuild map[string][]float64
}

// traced replays the workload's operations as direct calls into each
// layer, one span around each call, and derives the per-layer metrics
// from the spans' self times. It ends with the same operations over
// HTTP, so the service layer's share is the difference.
func (r *runner) traced(workload, spansPath string) error {
	l := &ladder{r: r, tr: newTracer(), w: workload, perBuild: map[string][]float64{}}
	for _, f := range []func() error{l.gen, l.builds, l.codec, l.store, l.oracle, l.delta, l.service} {
		if err := f(); err != nil {
			return err
		}
	}
	return l.tr.write(spansPath)
}

func (l *ladder) set(name string, v float64) { l.r.out.set(name, v) }

// gen: generate every family graph.
func (l *ladder) gen() error {
	for _, m := range l.r.fam {
		var g *graph.Graph
		l.tr.time("gen.graph", 0, l.tr.op(), func() {
			g = gen.StreamGNP(m.spec.N, m.spec.P, m.spec.Seed, m.spec.Connected).Graph()
		})
		p, err := params.New(l.r.cfg.Eps, l.r.cfg.Kappa, l.r.cfg.Rho, g.N())
		if err != nil {
			return err
		}
		l.graphs = append(l.graphs, g)
		l.params = append(l.params, p)
	}
	l.set("gen.graph_s", median(l.tr.selfOf("gen.graph", time.Second)))
	return nil
}

// stepEvent is one OnStep report with its arrival time.
type stepEvent struct {
	sm protocols.StepMetrics
	at time.Time
}

// reportsBefore lists the centralized steps that report before their
// work runs; every other step reports after it.
var reportsBefore = map[string]string{
	protocols.StepNearNeighbors: "near-neighbors",
	protocols.StepRulingSet:     "ruling-set-forest",
}

// build runs one traced core.Build. Protocol step spans are the gaps
// between consecutive OnStep reports: in distributed mode a step's span
// ends at its report; in centralized mode near-neighbors and ruling-set
// report first, so the gap after their report is theirs, and a step
// whose preceding gap is already claimed gets no span of its own.
func (l *ladder) build(name string, g *graph.Graph, p *params.Params, opts core.Options) (*core.Result, error) {
	var events []stepEvent
	opts.OnStep = func(sm protocols.StepMetrics) { events = append(events, stepEvent{sm, time.Now()}) }
	opts.KeepRebuildState = true // as the daemon builds
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	res, err := core.Build(context.Background(), g, p, opts)
	end := time.Now()
	runtime.ReadMemStats(&ms)
	if err != nil {
		return nil, err
	}
	op := l.tr.op()
	id := l.tr.add(name, 0, op, start, end)
	l.record(name, "alloc_mb", float64(ms.TotalAlloc-alloc0)/1e6)
	if opts.Mode != core.ModeDistributed {
		l.centralSteps(name, events, id, op, start, end)
		return res, nil
	}
	prev := start
	msgs := map[string]int64{}
	for _, e := range events {
		l.tr.add("protocols.dist."+e.sm.Step, id, op, prev, e.at)
		msgs[e.sm.Step] += e.sm.Messages
		prev = e.at
	}
	for _, s := range protocolSteps {
		l.record(name, s+".messages", float64(msgs[s]))
	}
	l.sumSteps(name, id, "protocols.dist.", protocolSteps)
	return res, nil
}

func (l *ladder) record(build, what string, v float64) {
	l.perBuild[build+"/"+what] = append(l.perBuild[build+"/"+what], v)
}

func (l *ladder) centralSteps(build string, events []stepEvent, id, op int, start, end time.Time) {
	for i, e := range events {
		if span, ok := reportsBefore[e.sm.Step]; ok {
			next := end
			if i+1 < len(events) {
				next = events[i+1].at
			}
			l.tr.add("protocols.central."+span, id, op, e.at, next)
			continue
		}
		if i > 0 {
			if _, claimed := reportsBefore[events[i-1].sm.Step]; claimed {
				continue
			}
		}
		prev := start
		if i > 0 {
			prev = events[i-1].at
		}
		l.tr.add("protocols.central."+e.sm.Step, id, op, prev, e.at)
	}
	l.sumSteps(build, id, "protocols.central.", centralSteps)
}

// sumSteps records, per step name, the summed self times of the step
// spans under build span id.
func (l *ladder) sumSteps(build string, id int, prefix string, steps []string) {
	self := l.tr.selfTimes()
	sums := map[string]float64{}
	for i, s := range l.tr.spans {
		if s.Parent == id {
			sums[s.Name] += float64(self[i]) / 1e9
		}
	}
	for _, s := range steps {
		l.record(build, s+"_s", sums[prefix+s])
	}
}

// builds: distributed (parallel engine) and centralized builds of every
// family graph — twice over for the build workload — and one
// sequential-engine build.
func (l *ladder) builds() error {
	reps := 1
	if l.w == "build" {
		reps = 2
	}
	l.dist = make([]*core.Result, len(l.graphs))
	var arena []float64
	for range reps {
		for k, g := range l.graphs {
			res, err := l.build("core.build.dist", g, l.params[k], core.Options{Mode: core.ModeDistributed, Engine: congest.EngineParallel})
			if err != nil {
				return err
			}
			l.dist[k] = res
			arena = append(arena, float64(res.ArenaBytes)/1e6)
			cres, err := l.build("core.build.central", g, l.params[k], core.Options{Mode: core.ModeCentralized})
			if err != nil {
				return err
			}
			_, dfp := graph.Fingerprint(res.Spanner)
			_, cfp := graph.Fingerprint(cres.Spanner)
			var mismatch error
			if dfp != cfp {
				mismatch = fmt.Errorf("distributed %s, centralized %s", dfp, cfp)
			}
			l.r.chk.add(fmt.Sprintf("traced graph %d: distributed and centralized spanners agree", k), mismatch)
		}
	}
	if _, err := l.build("core.build.seq", l.graphs[0], l.params[0], core.Options{Mode: core.ModeDistributed, Engine: congest.EngineSequential}); err != nil {
		return err
	}
	l.set("core.build_dist_s", median(l.durations("core.build.dist")))
	l.set("core.build_central_s", median(l.durations("core.build.central")))
	l.set("core.build_seq_s", median(l.durations("core.build.seq")))
	l.set("core.build_dist_alloc_mb", median(l.perBuild["core.build.dist/alloc_mb"]))
	l.set("core.build_central_alloc_mb", median(l.perBuild["core.build.central/alloc_mb"]))
	l.set("congest.arena_mb", median(arena))
	for _, s := range protocolSteps {
		l.set("protocols.dist."+s+"_s", median(l.perBuild["core.build.dist/"+s+"_s"]))
		l.set("protocols.dist."+s+".messages", median(l.perBuild["core.build.dist/"+s+".messages"]))
	}
	for _, s := range centralSteps {
		l.set("protocols.central."+s+"_s", median(l.perBuild["core.build.central/"+s+"_s"]))
	}
	return nil
}

func (l *ladder) durations(name string) []float64 {
	var out []float64
	for _, s := range l.tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// codec: fingerprint, encode and decode the served spanner.
func (l *ladder) codec() error {
	h := l.dist[len(l.dist)-1].Spanner
	var buf bytes.Buffer
	for range 20 {
		op := l.tr.op()
		l.tr.time("graph.fingerprint", 0, op, func() { graph.Fingerprint(h) })
		buf.Reset()
		var err error
		l.tr.time("graph.encode", 0, op, func() { err = h.EncodeBinary(&buf) })
		if err != nil {
			return err
		}
		var back *graph.Graph
		l.tr.time("graph.decode", 0, op, func() { back, err = graph.DecodeBinary(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return err
		}
		if back.M() != h.M() {
			return fmt.Errorf("decoded spanner has %d edges, want %d", back.M(), h.M())
		}
	}
	l.set("graph.fingerprint_ms", median(l.tr.selfOf("graph.fingerprint", time.Millisecond)))
	l.set("graph.encode_ms", median(l.tr.selfOf("graph.encode", time.Millisecond)))
	l.set("graph.decode_ms", median(l.tr.selfOf("graph.decode", time.Millisecond)))
	return nil
}

// store: journal appends of done records, snapshot writes and loads of
// the served spanner, and re-opens that replay the journal — all with
// fsync on every write, as the daemon runs.
func (l *ladder) store() error {
	dir := filepath.Join(l.r.work, "store-trace")
	defer os.RemoveAll(dir)
	h := l.dist[len(l.dist)-1].Spanner
	m, fp := graph.Fingerprint(h)
	data, err := json.Marshal(map[string]any{"result": service.JobResult{Edges: m, Fingerprint: fp, TotalRounds: 1}})
	if err != nil {
		return err
	}
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		return err
	}
	for i := range 20 {
		op := l.tr.op()
		rec := store.Record{Type: "done", Job: fmt.Sprintf("j%06d", i+1), Time: time.Now().UTC().Format(time.RFC3339Nano), Data: data}
		l.tr.time("store.append", 0, op, func() { err = st.Append(rec) })
		if err != nil {
			return err
		}
		if i%4 == 0 {
			l.tr.time("store.snapshot_write", 0, op, func() { err = st.WriteSnapshot(rec.Job, fp, h) })
			if err != nil {
				return err
			}
			var back *graph.Graph
			l.tr.time("store.snapshot_load", 0, op, func() { back, err = st.LoadSnapshot(rec.Job, fp) })
			if err != nil {
				return err
			}
			if back.M() != m {
				return fmt.Errorf("loaded snapshot has %d edges, want %d", back.M(), m)
			}
		}
	}
	l.set("store.journal_bytes", float64(st.JournalBytes()))
	if err := st.Close(); err != nil {
		return err
	}
	for range 5 {
		l.tr.time("store.open", 0, l.tr.op(), func() { st, err = store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways}) })
		if err != nil {
			return err
		}
		if len(st.Recovered()) != 20 {
			return fmt.Errorf("re-opened journal replays %d records, want 20", len(st.Recovered()))
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	l.set("store.open_ms", median(l.tr.selfOf("store.open", time.Millisecond)))
	l.set("store.append_ms", median(l.tr.selfOf("store.append", time.Millisecond)))
	l.set("store.snapshot_write_ms", median(l.tr.selfOf("store.snapshot_write", time.Millisecond)))
	l.set("store.snapshot_load_ms", median(l.tr.selfOf("store.snapshot_load", time.Millisecond)))
	return nil
}

// oracle: attach pools to the served spanner, then batches over the hot
// set (which fill the source cache), point distances and routes over
// uniform pairs.
func (l *ladder) oracle() error {
	k := len(l.graphs) - 1
	h, m := l.dist[k].Spanner, l.r.fam[k]
	for range 20 {
		l.tr.time("oracle.attach", 0, l.tr.op(), func() { oracle.NewPool(h, oracle.PoolOptions{}) })
	}
	pool := oracle.NewPool(h, oracle.PoolOptions{})
	pg := newPairGen(l.r.seed, 500, h.N())
	// The batch counters are the pool's counter deltas over the batch
	// loop, so they describe the hot-set batches alone.
	var rates []float64
	batched := 0
	st0 := pool.Stats()
	for range 64 {
		pairs := pg.hotBatch(m.hot, l.r.cfg.BatchPairs)
		id := l.tr.time("oracle.batch", 0, l.tr.op(), func() { pool.PairsBatch(pairs) })
		s := l.tr.spans[id-1]
		rates = append(rates, float64(len(pairs))/(float64(s.End-s.Start)/1e9))
		batched += len(pairs)
	}
	st := pool.Stats()
	points := 20000
	if l.w == "serve" {
		points = 100000
	}
	var answers []answer
	for i := range points {
		u, v := pg.uniform()
		var d int32
		l.tr.time("oracle.dist", 0, l.tr.op(), func() { d = pool.Dist(u, v) })
		if i%32 == 0 {
			answers = append(answers, answer{U: u, V: v, Dist: wire(d)})
		}
	}
	for range 2000 {
		u, v := pg.uniform()
		var path []int32
		var d int32
		l.tr.time("oracle.path", 0, l.tr.op(), func() { path, d = pool.Path(u, v) })
		answers = append(answers, answer{U: u, V: v, Dist: wire(d), Path: path})
	}
	hg, err := newAdjGraph(h.N(), h.EdgeList())
	if err == nil {
		err = checkAnswers(hg, answers)
	}
	l.r.chk.add(fmt.Sprintf("traced oracle: %d sampled answers equal BFS in the spanner", len(answers)), err)
	dist := l.tr.selfOf("oracle.dist", time.Microsecond)
	p99, ok := percentile(dist, 0.99)
	if !ok {
		return fmt.Errorf("too few oracle.dist samples for a p99: %d", len(dist))
	}
	l.set("oracle.attach_ms", median(l.tr.selfOf("oracle.attach", time.Millisecond)))
	l.set("oracle.dist_us", median(dist))
	l.set("oracle.dist_p99_us", p99)
	l.set("oracle.path_us", median(l.tr.selfOf("oracle.path", time.Microsecond)))
	l.set("oracle.batch_pairs_per_s", median(rates))
	misses := st.Misses - st0.Misses
	l.set("oracle.misses", float64(misses))
	l.set("oracle.source_runs", float64(st.SourceRuns-st0.SourceRuns))
	l.set("oracle.cache_hit_ratio", 1-float64(misses)/float64(batched))
	return nil
}

// wire maps the oracle's unreachable distance to the daemon's -1.
func wire(d int32) int32 {
	if d == graph.Infinity {
		return -1
	}
	return d
}

func toDelta(b edgeBatch) *delta.Batch {
	out := &delta.Batch{}
	for _, e := range b.del {
		out.Delete = append(out.Delete, delta.Edge{U: e[0], V: e[1]})
	}
	for _, e := range b.ins {
		out.Insert = append(out.Insert, delta.Edge{U: e[0], V: e[1]})
	}
	return out
}

// chain returns the PATCH chain the workload applies to family graph k:
// the whole chain for churn, the tail prefix otherwise.
func (l *ladder) chain(k int) []edgeBatch {
	if l.w == "churn" {
		return l.r.fam[k].chain
	}
	return l.r.fam[k].chain[:l.r.cfg.TailPatches]
}

// delta: replay PATCH chains as delta.Apply and core.Rebuild calls.
func (l *ladder) delta() error {
	var rebuild, replayed, inc, fall []float64
	for k := range l.graphs {
		prev := l.dist[k]
		var secs, tracked, incremental, fallbacks float64
		for _, b := range l.chain(k) {
			op := l.tr.op()
			db := toDelta(b)
			if err := db.Normalize(prev.Rebuild.Graph.N()); err != nil {
				return err
			}
			var err error
			l.tr.time("delta.apply", 0, op, func() { _, err = delta.Apply(prev.Rebuild.Graph, db) })
			if err != nil {
				return err
			}
			var res *core.Result
			id := l.tr.time("delta.rebuild", 0, op, func() {
				res, err = core.Rebuild(context.Background(), prev, db,
					core.Options{Mode: core.ModeDistributed, Engine: congest.EngineParallel, KeepRebuildState: true})
			})
			if err != nil {
				return err
			}
			secs += float64(l.tr.spans[id-1].End-l.tr.spans[id-1].Start) / 1e9
			if res.Incremental {
				incremental++
				tracked += float64(res.Tracked)
			} else {
				fallbacks++
			}
			prev = res
		}
		rebuild = append(rebuild, secs)
		replayed = append(replayed, tracked)
		inc = append(inc, incremental)
		fall = append(fall, fallbacks)
		if want := len(l.r.fam[k].edges); prev.Rebuild.Graph.M() != want {
			l.r.chk.add(fmt.Sprintf("traced chain %d keeps the edge count", k),
				fmt.Errorf("rebuilt graph has %d edges, want %d", prev.Rebuild.Graph.M(), want))
		}
	}
	l.set("delta.apply_ms", median(l.tr.selfOf("delta.apply", time.Millisecond)))
	l.set("delta.rebuild_s", median(rebuild))
	l.set("delta.replayed_vertices", median(replayed))
	l.set("delta.incremental", median(inc))
	l.set("delta.fallbacks", median(fall))
	return nil
}

// service: the same operations through the daemon over HTTP — a
// distributed job per family graph, point queries also answered by the
// job's pool directly, the PATCH chain — then a restart on the same
// data dir.
func (l *ladder) service() error {
	r := l.r
	if err := r.boot(); err != nil {
		return err
	}
	var jobOver []float64
	var views []service.JobView
	for k, m := range r.fam {
		op := l.tr.op()
		var v service.JobView
		var err error
		id := l.tr.time("service.submit", 0, op, func() { v, _, err = r.c.submit(r.cfg.jobSpec(m, "distributed")) })
		if err != nil {
			return err
		}
		_, dfp := graph.Fingerprint(l.dist[k].Spanner)
		if dfp != v.Result.Fingerprint {
			err = fmt.Errorf("served %s, direct %s", v.Result.Fingerprint, dfp)
		}
		r.chk.add(fmt.Sprintf("traced graph %d: served spanner equals the direct build", k), err)
		s := l.tr.spans[id-1]
		jobOver = append(jobOver, float64(s.End-s.Start)/1e6-float64(v.Result.BuildMS))
		views = append(views, v)
	}
	l.set("service.job_overhead_ms", median(jobOver))

	k := len(r.fam) - 1
	job := views[k].ID
	pool := r.d.srv.Job(job).QueryPool()
	pg := newPairGen(r.seed, 600, r.cfg.N)
	points := 5000
	if l.w == "serve" {
		points = 20000
	}
	var httpLat, directLat []float64
	var answers []answer
	var disagree error
	for range points {
		u, v := pg.uniform()
		op := l.tr.op()
		var rep queryReply
		var err error
		id := l.tr.time("service.query", 0, op, func() { rep, _, err = r.c.query(job, u, v, false) })
		if err != nil {
			continue
		}
		s := l.tr.spans[id-1]
		httpLat = append(httpLat, float64(s.End-s.Start)/1e3)
		var d int32
		id = l.tr.time("oracle.dist.direct", 0, op, func() { d = pool.Dist(u, v) })
		s = l.tr.spans[id-1]
		directLat = append(directLat, float64(s.End-s.Start)/1e3)
		if wire(d) != rep.Dist && disagree == nil {
			disagree = fmt.Errorf("d(%d,%d): HTTP %d, direct %d", u, v, rep.Dist, wire(d))
		}
		answers = append(answers, answer{U: u, V: v, Dist: rep.Dist})
	}
	r.chk.add("traced queries: HTTP and direct answers agree", disagree)
	r.checkTraffic("traced HTTP queries", job, &traffic{points: reservoir{keep: answers}})
	l.set("service.query_overhead_us", median(httpLat)-median(directLat))
	p99, ok := blockP99(httpLat)
	if !ok {
		return fmt.Errorf("too few traced HTTP queries for a p99: %d", len(httpLat))
	}
	l.set("service.query_p99_us", p99)

	var patchOver []float64
	for k := range l.graphs {
		for i, b := range l.chain(k) {
			op := l.tr.op()
			var v service.JobView
			var err error
			id := l.tr.time("service.patch", 0, op, func() { v, _, err = r.c.patch(views[k].ID, b) })
			if err != nil {
				return fmt.Errorf("PATCH %d of graph %d: %w", i, k, err)
			}
			s := l.tr.spans[id-1]
			patchOver = append(patchOver, float64(s.End-s.Start)/1e6-float64(v.Result.BuildMS))
			views[k] = v
		}
	}
	l.set("service.patch_overhead_ms", median(patchOver))

	dir := r.d.dir
	r.c.close()
	if err := r.d.stop(); err != nil {
		return err
	}
	var recov []float64
	for i := range 3 {
		d, err := startDaemon(dir)
		r.ops.record(opRestart, err)
		if err != nil {
			return err
		}
		recov = append(recov, float64(d.recovery.Nanoseconds())/1e6)
		l.tr.add("service.recover", 0, l.tr.op(), time.Now().Add(-d.recovery), time.Now())
		r.d, r.c = d, newClient(d.base, &r.ops)
		if i < 2 {
			r.c.close()
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	for _, v := range views {
		got, err := r.c.status(v.ID)
		if err == nil && (got.Result == nil || got.Result.Fingerprint != v.Result.Fingerprint) {
			err = fmt.Errorf("job %s came back as %+v", v.ID, got.Result)
		}
		r.chk.add(fmt.Sprintf("traced restart keeps job %s", v.ID), err)
	}
	l.set("service.recover_ms", median(recov))
	return nil
}
