package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/service"
)

// runner executes one untraced workload run against in-process
// spannerd instances.
type runner struct {
	cfg     config
	seed    uint64
	seconds float64
	work    string // directory for this run's data dirs
	fam     []*member

	ops  opCounts
	chk  checks
	out  *metricSet
	d    *daemon
	c    *client
	dirs int

	// setupDist and setupCentral are the setup's jobs, one pair per
	// family graph.
	setupDist, setupCentral []service.JobView
	// distCosts and centralCosts hold, per family graph, the costs of
	// every job of that mode the run submitted, set-up jobs included.
	distCosts, centralCosts [][]cost
	// chain is the run's PATCH chain cost.
	chain cost
	// cal runs a calibration batch before every build and PATCH, and
	// calib holds the batches' CPU times in seconds.
	cal   *calibrator
	calib []float64
	// costs holds the figures the cost metrics come from, for the
	// report.
	costs map[string]float64

	// patterns records each PATCH chain's rebuild paths, and setups the
	// set-up times, for the report.
	patterns []string
	setups   []float64
}

// boot starts a daemon on a fresh data dir and connects the client.
func (r *runner) boot() error {
	dir := filepath.Join(r.work, fmt.Sprintf("data-%02d", r.dirs))
	r.dirs++
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	r.d, r.c = d, newClient(d.base, &r.ops)
	return nil
}

// shutdown stops the current daemon and removes its data dir.
func (r *runner) shutdown() error {
	r.c.close()
	err := r.d.stop()
	if rerr := os.RemoveAll(r.d.dir); err == nil {
		err = rerr
	}
	r.d, r.c = nil, nil
	return err
}

// spanner returns the checker's copy of the spanner a job serves now.
func (r *runner) spanner(job string) (*adjGraph, error) {
	j := r.d.srv.Job(job)
	if j == nil || j.QueryPool() == nil {
		return nil, fmt.Errorf("job %s serves no spanner", job)
	}
	h := j.QueryPool().Spanner()
	return newAdjGraph(h.N(), h.EdgeList())
}

// setup first runs an untimed warm-up job, so that no timed build pays
// for the process's first heap growth. It then boots the daemon once
// per family graph, each time on a fresh data dir, and builds that
// graph's spanner in distributed and in centralized mode. The median of
// these set-ups is setup_s. The last daemon stays up.
func (r *runner) setup() error {
	if err := r.boot(); err != nil {
		return err
	}
	if _, _, err := r.submit(r.fam[0], "distributed"); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var times []float64
	for k, m := range r.fam {
		if err := r.shutdown(); err != nil {
			return err
		}
		start := time.Now()
		if err := r.boot(); err != nil {
			return err
		}
		dv, dcost, err := r.submit(m, "distributed")
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		cv, ccost, err := r.submit(m, "centralized")
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		r.setupDist = append(r.setupDist, dv)
		r.setupCentral = append(r.setupCentral, cv)
		r.distCosts = append(r.distCosts, []cost{dcost})
		r.centralCosts = append(r.centralCosts, []cost{ccost})
		r.checkJobPair(fmt.Sprintf("setup graph %d", k), m, dv, cv)
	}
	r.setups = times
	r.out.set("setup_s", median(times))
	var rounds, msgs []float64
	for k := range r.fam {
		rounds = append(rounds, float64(r.setupDist[k].Result.TotalRounds))
		msgs = append(msgs, float64(r.setupDist[k].Result.Messages))
	}
	r.out.set("rounds", mean(rounds))
	r.out.set("messages", mean(msgs))
	return nil
}

func (r *runner) submit(m *member, mode string) (service.JobView, cost, error) {
	r.calibrate()
	return r.c.submit(r.cfg.jobSpec(m, mode))
}

// calibrate runs one calibration batch and keeps its CPU time.
func (r *runner) calibrate() {
	r.calib = append(r.calib, r.cal.sample().Seconds())
}

// submitTimed submits family graph k's job and, if it succeeds, adds
// its cost to the graph's samples of its mode.
func (r *runner) submitTimed(k int, mode string) (service.JobView, error) {
	v, c, err := r.submit(r.fam[k], mode)
	if err == nil {
		if mode == "distributed" {
			r.distCosts[k] = append(r.distCosts[k], c)
		} else {
			r.centralCosts[k] = append(r.centralCosts[k], c)
		}
	}
	return v, err
}

// setCosts reports the cost metrics once the workload has run: the CPU
// time of a distributed job, of a centralized job and of the PATCH
// chain, each over the median CPU time of the run's calibration
// batches. A job's cost is the mean over the family of each graph's
// median over every job of the run, set-up jobs included. The round
// trips, CPU seconds and calibration median go to the report.
func (r *runner) setCosts() {
	host := median(r.calib)
	r.costs["calib_cpu_s"] = host
	for _, f := range []struct {
		name string
		c    cost
	}{
		{"build_dist", familyCost(r.distCosts)},
		{"build_central", familyCost(r.centralCosts)},
		{"patch_chain", r.chain},
	} {
		r.out.set(f.name+"_cpu_rel", f.c.cpu/host)
		r.costs[f.name+"_s"] = f.c.wall
		r.costs[f.name+"_cpu_s"] = f.c.cpu
	}
}

func cpuOf(c cost) float64  { return c.cpu }
func wallOf(c cost) float64 { return c.wall }

// medianCost is the median of each part of costs, taken apart.
func medianCost(costs []cost) cost {
	return cost{wall: median(mapCosts(costs, wallOf)), cpu: median(mapCosts(costs, cpuOf))}
}

func mapCosts(costs []cost, f func(cost) float64) []float64 {
	xs := make([]float64, len(costs))
	for i, c := range costs {
		xs[i] = f(c)
	}
	return xs
}

// checkJobPair checks one graph's distributed and centralized jobs: the
// same spanner, a subgraph of the graph, within the served stretch.
func (r *runner) checkJobPair(what string, m *member, dv, cv service.JobView) {
	if dv.Result.Fingerprint != cv.Result.Fingerprint || dv.Result.Edges != cv.Result.Edges {
		r.chk.add(what+": distributed and centralized spanners agree",
			fmt.Errorf("distributed %d edges %s, centralized %d edges %s",
				dv.Result.Edges, dv.Result.Fingerprint, cv.Result.Edges, cv.Result.Fingerprint))
		return
	}
	r.chk.add(what+": distributed and centralized spanners agree", nil)
	r.chk.add(what+": spanner is a subgraph within the stretch bound", r.checkSpanner(dv.ID, m.g, dv.Result.Edges))
}

// checkSpanner checks a served spanner against the graph it spans: edge
// count as documented, subgraph, and stretch from sampled sources with
// the alpha and beta a served answer carries.
func (r *runner) checkSpanner(job string, g *adjGraph, edges int) error {
	h, err := r.spanner(job)
	if err != nil {
		return err
	}
	if h.m() != edges {
		return fmt.Errorf("job document says %d edges, spanner has %d", edges, h.m())
	}
	if err := checkSubgraph(h, g); err != nil {
		return err
	}
	rep, _, err := r.c.query(job, 0, g.n()-1, false)
	if err != nil {
		return err
	}
	if err := checkAnswers(h, []answer{{U: 0, V: g.n() - 1, Dist: rep.Dist}}); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(subSeed(r.seed, 4, uint64(edges)), 0))
	srcs := make([]int, r.cfg.StretchSources)
	for i := range srcs {
		srcs[i] = rng.IntN(g.n())
	}
	return checkStretch(h, g, srcs, rep.Alpha, rep.Beta)
}

// measured brackets a workload's measured phase: allocation per round,
// and the peak resident set size of the phase alone. Before the phase
// starts, the heap left by the set-up is returned to the system, so
// that the set-up's builds do not set the peak; a sampler then reads
// the process's resident pages every rssEvery until the phase ends.
// Work run through outside is left out of the phase's time, allocation
// and peak.
type measured struct {
	start  time.Time
	alloc0 uint64
	stop   chan struct{}
	peak   chan float64 // the sampler's peak in MiB, or -1 if unreadable

	paused      time.Duration
	pausedAlloc uint64
	out         atomic.Bool // the sampler skips its readings while set
}

const rssEvery = 5 * time.Millisecond

func beginMeasured() *measured {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &measured{start: time.Now(), alloc0: ms.TotalAlloc, stop: make(chan struct{}), peak: make(chan float64)}
	go func() {
		peak := residentMiB()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if !m.out.Load() {
					peak = max(peak, residentMiB())
				}
			case <-m.stop:
				m.peak <- max(peak, residentMiB())
				return
			}
		}
	}()
	return m
}

// residentMiB reads the process's resident set size from
// /proc/self/statm, or returns -1 if it cannot.
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return -1
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return -1
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// outside runs f, which belongs to the run but not to its measured
// phase.
func (m *measured) outside(f func()) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, start := ms.TotalAlloc, time.Now()
	m.out.Store(true)
	f()
	m.out.Store(false)
	runtime.ReadMemStats(&ms)
	m.paused += time.Since(start)
	m.pausedAlloc += ms.TotalAlloc - alloc0
}

// more reports whether another round of length last should start: the
// first always does, and a later one if it would end at most half a
// round past the run's measured time. So a phase of whole rounds ends
// as near that time as it can.
func (m *measured) more(seconds float64, rounds int, last time.Duration) bool {
	return rounds == 0 || (time.Since(m.start)-m.paused).Seconds()+last.Seconds()/2 <= seconds
}

func (r *runner) endMeasured(m *measured, rounds int) {
	close(m.stop)
	peak := <-m.peak
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.out.set("alloc_mb", float64(ms.TotalAlloc-m.alloc0-m.pausedAlloc)/1e6/float64(max(rounds, 1)))
	if peak < 0 {
		r.chk.add("resident set size readable from /proc/self/statm", fmt.Errorf("cannot read it"))
		peak = math.NaN()
	}
	r.out.set("peak_rss_mb", peak)
}

// traffic collects one query stream's results: latencies of
// distance-only point queries, per-batch rates, and reservoir samples
// of the answers for the checks.
type traffic struct {
	lat       []float64 // µs, in the order sent
	batchRate []float64 // pairs/s
	points    reservoir
	batched   reservoir
}

type reservoir struct {
	rng  *rand.Rand
	size int
	seen int
	keep []answer
}

func newTraffic(seed uint64, stream uint64, size int) *traffic {
	return &traffic{
		points:  reservoir{rng: rand.New(rand.NewPCG(subSeed(seed, 5, stream), 0)), size: size},
		batched: reservoir{rng: rand.New(rand.NewPCG(subSeed(seed, 6, stream), 0)), size: size},
	}
}

func (s *reservoir) add(a answer) {
	s.seen++
	if s.size == 0 {
		return
	}
	if len(s.keep) < s.size {
		s.keep = append(s.keep, a)
		return
	}
	if j := s.rng.IntN(s.seen); j < s.size {
		s.keep[j] = a
	}
}

// merge adds one query stream's results to t.
func (t *traffic) merge(o *traffic) {
	t.lat = append(t.lat, o.lat...)
	t.batchRate = append(t.batchRate, o.batchRate...)
	t.points.keep = append(t.points.keep, o.points.keep...)
	t.batched.keep = append(t.batched.keep, o.batched.keep...)
}

func (t *traffic) answers() []answer {
	return append(append([]answer(nil), t.points.keep...), t.batched.keep...)
}

// points sends k point queries over uniform pairs; every PathEvery-th
// asks for the route.
func (r *runner) points(job string, pg *pairGen, t *traffic, k int) {
	for i := range k {
		u, v := pg.uniform()
		path := r.cfg.PathEvery > 0 && i%r.cfg.PathEvery == r.cfg.PathEvery-1
		rep, d, err := r.c.query(job, u, v, path)
		if err != nil {
			continue
		}
		if !path {
			t.lat = append(t.lat, float64(d.Nanoseconds())/1e3)
		}
		a := answer{U: u, V: v, Dist: rep.Dist}
		if path {
			// A reachable pair must come with a route; an empty one fails
			// the walk check.
			a.Path = append([]int32{}, rep.Path...)
		}
		t.points.add(a)
	}
}

// hotBatch sends one NDJSON batch whose sources come from the hot set.
func (r *runner) hotBatch(job string, m *member, pg *pairGen, t *traffic) {
	pairs := pg.hotBatch(m.hot, r.cfg.BatchPairs)
	dists, d, err := r.c.batch(job, pairs)
	if err != nil {
		return
	}
	t.batchRate = append(t.batchRate, float64(len(pairs))/d.Seconds())
	for i, p := range pairs {
		t.batched.add(answer{U: p[0], V: p[1], Dist: dists[i]})
	}
}

// setTraffic reports the query metrics of one or more query streams:
// the median latency over all point queries and the median batch rate.
// The tail of the latency is a per-layer metric of the traced run
// (service.query_p99_us): on a shared virtual machine it follows the
// CPU time the hypervisor steals, run by run, more than the program.
func (r *runner) setTraffic(streams ...*traffic) {
	all := &traffic{}
	for _, t := range streams {
		all.merge(t)
	}
	r.out.set("query_p50_us", median(all.lat))
	r.out.set("batch_pairs_per_s", median(all.batchRate))
}

// chainResult is one PATCH chain's outcome.
type chainResult struct {
	cost    cost // sum over the PATCHes
	final   service.JobView
	pattern string // one letter per PATCH: I incremental, F fallback, x failed
}

// runChain applies a PATCH chain (a prefix of m's) to job. With traffic
// set, each PATCH is followed by point queries and a batch on the
// swapped pool, whose answers are checked against that step's spanner.
func (r *runner) runChain(what string, m *member, job string, chain []edgeBatch, t *traffic, pg *pairGen) chainResult {
	var res chainResult
	model := make(map[uint64]struct{}, len(m.g.edges))
	for k := range m.g.edges {
		model[k] = struct{}{}
	}
	var stepErr error
	for i, b := range chain {
		r.calibrate()
		v, c, err := r.c.patch(job, b)
		res.cost.add(c)
		for _, e := range b.del {
			delete(model, edgeKey(e[0], e[1]))
		}
		for _, e := range b.ins {
			model[edgeKey(e[0], e[1])] = struct{}{}
		}
		if err != nil {
			res.pattern += "x"
			continue
		}
		res.final = v
		if v.Result.Incremental {
			res.pattern += "I"
		} else {
			res.pattern += "F"
		}
		if v.Result.Deltas != i+1 && stepErr == nil {
			stepErr = fmt.Errorf("after PATCH %d the job reports %d deltas", i+1, v.Result.Deltas)
		}
		if t == nil {
			continue
		}
		step := &traffic{points: reservoir{size: 1 << 30}, batched: reservoir{size: 1 << 30}}
		r.points(job, pg, step, r.cfg.QueriesPerPatch)
		r.hotBatch(job, m, pg, step)
		if stepErr == nil {
			stepErr = r.checkStep(job, model, step.answers())
		}
		t.lat = append(t.lat, step.lat...)
		t.batchRate = append(t.batchRate, step.batchRate...)
	}
	r.chk.add(what+": each PATCH step serves a subgraph of the patched graph and answers exactly", stepErr)
	return res
}

// checkStep checks the spanner a job serves after a PATCH against the
// model edge set, and the answers given on it.
func (r *runner) checkStep(job string, model map[uint64]struct{}, answers []answer) error {
	h, err := r.spanner(job)
	if err != nil {
		return err
	}
	for k := range h.edges {
		if _, ok := model[k]; !ok {
			return fmt.Errorf("spanner edge {%d,%d} is not in the patched graph", k>>32, uint32(k))
		}
	}
	return checkAnswers(h, answers)
}

// checkFinal checks a chain's end state: the served spanner equals a
// from-scratch build of the benchmark's own patched edge list, edge for
// edge, and is within the stretch bound of that graph.
func (r *runner) checkFinal(what string, m *member, final service.JobView) {
	g, err := newAdjGraph(r.cfg.N, m.patched)
	if err != nil {
		r.chk.add(what, err)
		return
	}
	r.chk.add(what+": served spanner is a subgraph within the stretch bound of the patched graph",
		r.checkSpanner(final.ID, g, final.Result.Edges))
	scratch, fp, err := r.scratchBuild(m.patched)
	if err != nil {
		r.chk.add(what+": from-scratch build of the patched graph", err)
		return
	}
	served, err := r.spanner(final.ID)
	if err == nil && (fp != final.Result.Fingerprint || served.m() != scratch.m()) {
		err = fmt.Errorf("served %d edges %s, from-scratch build %d edges %s", served.m(), final.Result.Fingerprint, scratch.m(), fp)
	}
	if err == nil {
		for k := range scratch.edges {
			if _, ok := served.edges[k]; !ok {
				err = fmt.Errorf("from-scratch spanner edge {%d,%d} is not served", k>>32, uint32(k))
				break
			}
		}
	}
	r.chk.add(what+": served spanner equals a from-scratch build of the patched edge list", err)
}

// scratchBuild builds the spanner of an edge list directly (not through
// the daemon) and returns it with its fingerprint.
func (r *runner) scratchBuild(edges [][2]int32) (*adjGraph, string, error) {
	b := graph.NewBuilder(r.cfg.N)
	for _, e := range edges {
		if err := b.AddEdge(int(e[0]), int(e[1])); err != nil {
			return nil, "", err
		}
	}
	g := b.Build()
	p, err := params.New(r.cfg.Eps, r.cfg.Kappa, r.cfg.Rho, g.N())
	if err != nil {
		return nil, "", err
	}
	res, err := core.Build(context.Background(), g, p, core.Options{Mode: core.ModeDistributed, Engine: congest.EngineParallel})
	if err != nil {
		return nil, "", err
	}
	_, fp := graph.Fingerprint(res.Spanner)
	h, err := newAdjGraph(r.cfg.N, res.Spanner.EdgeList())
	return h, fp, err
}

// runBuild: rounds on a fresh daemon, each submitting a distributed and
// a centralized job per family graph. After each round, outside the
// measured phase, a fixed probe of point queries and batches runs on
// each distributed job of the round, and then the PATCH tail. So the
// query and PATCH samples spread over the whole run, and a burst of host
// load skews few of them.
func (r *runner) runBuild() error {
	if err := r.shutdown(); err != nil {
		return err
	}
	k := len(r.fam)
	ts, pgs := make([]*traffic, k), make([]*pairGen, k)
	for i := range ts {
		ts[i] = newTraffic(r.seed, uint64(100+i), r.cfg.AnswerSample)
		pgs[i] = newPairGen(r.seed, uint64(100+i), r.cfg.N)
	}
	spanners := make([]*adjGraph, k) // the probed spanners, for the checks
	var edges []float64
	var tails []cost
	var last time.Duration
	repeatErr, probeErr := error(nil), error(nil)
	jobs := make([]string, k) // this round's distributed jobs
	rounds := 0
	meas := beginMeasured()
	for meas.more(r.seconds, rounds, last) {
		start := time.Now()
		if rounds > 0 {
			if err := r.shutdown(); err != nil {
				return err
			}
		}
		if err := r.boot(); err != nil {
			return err
		}
		edges = edges[:0]
		clear(jobs)
		for i := range r.fam {
			dv, derr := r.submitTimed(i, "distributed")
			cv, cerr := r.submitTimed(i, "centralized")
			if derr != nil || cerr != nil {
				continue
			}
			edges = append(edges, float64(dv.Result.Edges))
			if repeatErr == nil {
				repeatErr = sameBuild(r.setupDist[i], dv, true)
			}
			if repeatErr == nil {
				repeatErr = sameBuild(r.setupCentral[i], cv, false)
			}
			jobs[i] = dv.ID
		}
		rounds++
		last = time.Since(start)
		meas.outside(func() {
			for i, m := range r.fam {
				if jobs[i] == "" {
					continue
				}
				r.points(jobs[i], pgs[i], ts[i], r.cfg.ProbeQueries)
				for range r.cfg.ProbeBatches {
					r.hotBatch(jobs[i], m, pgs[i], ts[i])
				}
				// Repeats of a graph's job serve the same spanner (checked
				// above), so the last one probed checks every probe's
				// answers; the tail then changes it.
				h, err := r.spanner(jobs[i])
				if err != nil && probeErr == nil {
					probeErr = err
				}
				spanners[i] = h
			}
			tails = append(tails, r.patchTail(jobs))
		})
	}
	r.endMeasured(meas, rounds)
	r.chk.add("repeated jobs agree on edges, rounds, messages and fingerprint", repeatErr)
	r.chk.add("probed jobs serve a spanner", probeErr)
	r.out.set("spanner_edges", mean(edges))
	r.chain = medianCost(tails)
	for i, h := range spanners {
		var err error
		if h == nil {
			err = fmt.Errorf("no job of graph %d was probed", i)
		} else {
			err = checkAnswers(h, ts[i].answers())
		}
		r.chk.add(fmt.Sprintf("probes of graph %d: %d sampled answers equal BFS in the spanner and routes are walks", i, len(ts[i].answers())), err)
	}
	r.setTraffic(ts...)
	return nil
}

// familyCost is the mean over family graphs of each graph's median cost.
func familyCost(perGraph [][]cost) cost {
	return cost{wall: meanOfMedians(perGraph, wallOf), cpu: meanOfMedians(perGraph, cpuOf)}
}

// meanOfMedians is the mean over family graphs of each graph's median
// of one part of its costs: a burst of host load slows few of a graph's
// samples, and the graphs' different costs keep their weights.
func meanOfMedians(perGraph [][]cost, part func(cost) float64) float64 {
	var ms []float64
	for _, cs := range perGraph {
		if len(cs) > 0 {
			ms = append(ms, median(mapCosts(cs, part)))
		}
	}
	return mean(ms)
}

// patchTail applies the first TailPatches batches of each family
// graph's chain to that graph's job and returns the mean chain cost.
func (r *runner) patchTail(jobs []string) cost {
	var sum cost
	n := 0
	for k, m := range r.fam {
		if jobs[k] == "" {
			continue // its submit failed, and was counted
		}
		ch := r.runChain(fmt.Sprintf("PATCH tail graph %d", k), m, jobs[k], m.chain[:r.cfg.TailPatches], nil, nil)
		r.patterns = append(r.patterns, ch.pattern)
		sum.add(ch.cost)
		n++
	}
	return sum.per(n)
}

// sameBuild compares a repeat of a job with the first run of it.
func sameBuild(first, again service.JobView, distributed bool) error {
	a, b := first.Result, again.Result
	if a.Fingerprint != b.Fingerprint || a.Edges != b.Edges ||
		(distributed && (a.TotalRounds != b.TotalRounds || a.Messages != b.Messages)) {
		return fmt.Errorf("%s job %s: %d edges %d rounds %d msgs %s; repeat %s: %d edges %d rounds %d msgs %s",
			first.Mode, first.ID, a.Edges, a.TotalRounds, a.Messages, a.Fingerprint,
			again.ID, b.Edges, b.TotalRounds, b.Messages, b.Fingerprint)
	}
	return nil
}

func (r *runner) checkTraffic(what, job string, t *traffic) {
	h, err := r.spanner(job)
	if err == nil {
		err = checkAnswers(h, t.answers())
	}
	r.chk.add(fmt.Sprintf("%s: %d sampled answers equal BFS in the spanner and routes are walks", what, len(t.answers())), err)
}

// runServe: one closed-loop client sends point queries and hot-set
// batches to the setup's last spanner; a second job pair for each
// family graph and the PATCH tail follow. One
// client, not two: two saturate both cores of a 2-core host, and their
// latencies and batch rates swung by up to half between runs as the
// shared host's speed changed, where one client's moved by under a
// tenth.
func (r *runner) runServe() error {
	k := len(r.fam) - 1
	m, job := r.fam[k], r.setupDist[k].ID
	r.out.set("spanner_edges", meanEdges(r.setupDist))

	t := newTraffic(r.seed, 0, r.cfg.AnswerSample)
	pg := newPairGen(r.seed, 0, r.cfg.N)
	// Warm-up round: the connection opens and the hot sources enter the
	// pool's cache before timing starts.
	r.points(job, pg, &traffic{}, r.cfg.PointsPerRound)
	r.hotBatch(job, m, pg, &traffic{})
	rounds := 0
	meas := beginMeasured()
	deadline := meas.start.Add(time.Duration(r.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		r.points(job, pg, t, r.cfg.PointsPerRound)
		r.hotBatch(job, m, pg, t)
		rounds++
	}
	r.endMeasured(meas, rounds)
	r.checkTraffic("serve", job, t)
	r.setTraffic(t)
	// Every family graph gets a second distributed and centralized job,
	// so each graph's build costs rest on two jobs of each mode; the
	// PATCH tail then runs on the new distributed jobs.
	jobs := make([]string, len(r.fam))
	for i := range r.fam {
		v, err := r.submitTimed(i, "distributed")
		if err != nil {
			return fmt.Errorf("PATCH tail: %w", err)
		}
		jobs[i] = v.ID
		if _, err := r.submitTimed(i, "centralized"); err != nil {
			return err
		}
	}
	r.chain = r.patchTail(jobs)
	return nil
}

func meanEdges(jobs []service.JobView) float64 {
	var xs []float64
	for _, j := range jobs {
		xs = append(xs, float64(j.Result.Edges))
	}
	return mean(xs)
}

// runChurn: rounds on a fresh daemon, each building every family graph
// and running its PATCH chain with queries after each PATCH; then a
// centralized job per graph, and the daemon restarts on the last
// round's data dir.
func (r *runner) runChurn() error {
	if err := r.shutdown(); err != nil {
		return err
	}
	var chainMeans []cost
	finals := make([]service.JobView, len(r.fam)) // the last round's, per graph
	patterns := make([]string, len(r.fam))
	all := newTraffic(r.seed, 200, r.cfg.AnswerSample)
	var last time.Duration
	rounds := 0
	meas := beginMeasured()
	for meas.more(r.seconds, rounds, last) {
		start := time.Now()
		if rounds > 0 {
			if err := r.shutdown(); err != nil {
				return err
			}
		}
		if err := r.boot(); err != nil {
			return err
		}
		clear(finals)
		clear(patterns)
		var csum cost
		for k, m := range r.fam {
			dv, err := r.submitTimed(k, "distributed")
			if err != nil {
				continue
			}
			pg := newPairGen(r.seed, uint64(300+k), r.cfg.N)
			ch := r.runChain(fmt.Sprintf("churn graph %d", k), m, dv.ID, m.chain, all, pg)
			csum.add(ch.cost)
			finals[k], patterns[k] = ch.final, ch.pattern
			r.patterns = append(r.patterns, ch.pattern)
		}
		chainMeans = append(chainMeans, csum.per(len(r.fam)))
		rounds++
		last = time.Since(start)
	}
	r.endMeasured(meas, rounds)
	r.chain = medianCost(chainMeans)
	// The rounds build in distributed mode only; a second centralized
	// job per graph gives each graph's centralized cost two jobs, as in
	// serve. A failed one is counted and left out.
	for k := range r.fam {
		r.submitTimed(k, "centralized")
	}
	r.setTraffic(all)
	var edges []float64
	for k, f := range finals {
		if f.Result == nil {
			r.chk.add(fmt.Sprintf("churn graph %d", k), fmt.Errorf("no job or no PATCH of its chain succeeded"))
			continue
		}
		edges = append(edges, float64(f.Result.Edges))
		r.checkFinal(fmt.Sprintf("churn graph %d (rebuilds %s)", k, patterns[k]), r.fam[k], f)
	}
	r.out.set("spanner_edges", mean(edges))
	r.restart(finals)
	return nil
}

// restart stops the daemon and starts it again on the same data dir;
// every job must come back with its fingerprint and answer a query
// exactly.
func (r *runner) restart(jobs []service.JobView) {
	dir := r.d.dir
	r.c.close()
	err := r.d.stop()
	if err == nil {
		var d *daemon
		if d, err = startDaemon(dir); err == nil {
			r.d, r.c = d, newClient(d.base, &r.ops)
		}
	}
	r.ops.record(opRestart, err)
	if err != nil {
		r.chk.add("restart", err)
		r.d, r.c = nil, nil // nothing left to stop
		os.RemoveAll(dir)
		return
	}
	for k, j := range jobs {
		if j.Result == nil {
			continue // reported by the caller
		}
		v, err := r.c.status(j.ID)
		if err == nil && (v.Result == nil || v.Result.Fingerprint != j.Result.Fingerprint) {
			err = fmt.Errorf("job %s came back as %+v", j.ID, v.Result)
		}
		if err == nil {
			var h *adjGraph
			var rep queryReply
			if h, err = r.spanner(j.ID); err == nil {
				u, v := newPairGen(r.seed, uint64(400+k), r.cfg.N).uniform()
				if rep, _, err = r.c.query(j.ID, u, v, false); err == nil {
					err = checkAnswers(h, []answer{{U: u, V: v, Dist: rep.Dist}})
				}
			}
		}
		r.chk.add(fmt.Sprintf("restart keeps job %s and answers on it", j.ID), err)
	}
}
