package main

import (
	"fmt"
	"math/rand/v2"

	"nearspan/internal/gen"
	"nearspan/internal/service"
)

// config fixes the make-up of every workload's inputs. The seed picks
// the graphs, the query pairs and the edge deltas; config picks their
// sizes. defaultConfig is what the benchmark runs; tests shrink it.
type config struct {
	// Graph family: Family GNP graphs on N vertices with edge
	// probability P, each kept connected. The family and its PATCH
	// chains come from FamilySeed, not from the run seed: a build's
	// message count and time vary by ±13% from one GNP graph to the next,
	// and a chain's cost by whether each PATCH stays incremental, so
	// seed-dependent graphs or chains would make a run's figures hang on
	// its seed. The run seed drives the query traffic and the samples the
	// checks take.
	N          int
	P          float64
	Family     int
	FamilySeed uint64

	// Spanner parameters of every job.
	Eps   float64
	Kappa int
	Rho   float64

	// Serve traffic: a round is PointsPerRound point queries over
	// uniform pairs (every PathEvery-th asks for the route) and one
	// NDJSON batch of BatchPairs pairs whose sources come from a hot set
	// of HotSources vertices.
	PointsPerRound int
	PathEvery      int
	BatchPairs     int
	HotSources     int

	// Chain lists the pair counts of the PATCH chain applied to each
	// family graph: a pair is one deleted edge plus one inserted edge.
	Chain []int
	// QueriesPerPatch point queries follow each PATCH (churn), and one
	// batch of BatchPairs pairs.
	QueriesPerPatch int
	// TailPatches is the length of the chain prefix that build and serve
	// apply to every family graph outside their measured phase.
	TailPatches int

	// ProbeQueries point queries and ProbeBatches batches probe each
	// family graph's distributed job after each round of the build
	// workload, outside its measured phase.
	ProbeQueries int
	ProbeBatches int

	// StretchSources is the number of sampled BFS sources per graph in
	// the stretch check; AnswerSample caps the served answers kept for
	// checking per kind of query.
	StretchSources int
	AnswerSample   int
}

func defaultConfig() config {
	return config{
		N: 4096, P: 0.004, Family: 3, FamilySeed: 1,
		Eps: 1.0 / 3, Kappa: 3, Rho: 0.49,
		PointsPerRound: 32, PathEvery: 8, BatchPairs: 256, HotSources: 32,
		Chain:           []int{8, 8, 8, 8, 8, 8, 8, 8},
		QueriesPerPatch: 256,
		TailPatches:     2,
		ProbeQueries:    2500, ProbeBatches: 20,
		StretchSources: 8, AnswerSample: 4096,
	}
}

// member is one graph of the family: its graph spec, the benchmark's own
// copy of the graph, and its PATCH chain.
type member struct {
	spec    service.GraphSpec
	g       *adjGraph   // the generated graph, for the checks
	edges   [][2]int32  // its edge list
	chain   []edgeBatch // PATCH chain, applied in order
	patched [][2]int32  // edge list after the whole chain
	hot     []int       // hot query sources
}

// edgeBatch is one PATCH body: edges to delete and edges to insert.
type edgeBatch struct {
	del, ins [][2]int32
}

// subSeed derives an independent stream seed from seed and parts.
func subSeed(seed uint64, parts ...uint64) uint64 {
	x := seed
	for _, p := range parts {
		x ^= p + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = splitmix(x)
	}
	return x
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c config) jobSpec(m *member, mode string) service.JobSpec {
	return service.JobSpec{Graph: m.spec, Eps: c.Eps, Kappa: c.Kappa, Rho: c.Rho, Mode: mode}
}

// makeFamily generates the run's inputs: the graph family with its
// PATCH chains, and from seed the hot query sources.
func makeFamily(c config, seed uint64) ([]*member, error) {
	fam := make([]*member, c.Family)
	for k := range fam {
		spec := service.GraphSpec{Type: "gnp", N: c.N, P: c.P, Seed: subSeed(c.FamilySeed, 1, uint64(k)), Connected: true}
		edges := gen.StreamGNP(spec.N, spec.P, spec.Seed, spec.Connected).Graph().EdgeList()
		g, err := newAdjGraph(c.N, edges)
		if err != nil {
			return nil, fmt.Errorf("family graph %d: %w", k, err)
		}
		m := &member{spec: spec, g: g, edges: edges}
		m.chain, m.patched = makeChain(rand.New(rand.NewPCG(subSeed(c.FamilySeed, 2, uint64(k)), 0)), c.N, edges, c.Chain)
		r := rand.New(rand.NewPCG(subSeed(seed, 2, uint64(k)), 0))
		for len(m.hot) < c.HotSources {
			m.hot = append(m.hot, r.IntN(c.N))
		}
		fam[k] = m
	}
	return fam, nil
}

// makeChain draws a chain of delete+insert batches that each agree with
// the graph the previous batches left: deletes are present edges,
// inserts are absent non-loop pairs, and no pair repeats within a
// batch. It returns the chain and the final edge list.
func makeChain(r *rand.Rand, n int, edges [][2]int32, pairs []int) ([]edgeBatch, [][2]int32) {
	cur := append([][2]int32(nil), edges...)
	present := make(map[uint64]struct{}, len(cur))
	for _, e := range cur {
		present[edgeKey(e[0], e[1])] = struct{}{}
	}
	chain := make([]edgeBatch, len(pairs))
	for i, k := range pairs {
		var b edgeBatch
		for len(b.del) < k {
			j := r.IntN(len(cur))
			e := cur[j]
			cur[j] = cur[len(cur)-1]
			cur = cur[:len(cur)-1]
			delete(present, edgeKey(e[0], e[1]))
			b.del = append(b.del, e)
		}
		touched := make(map[uint64]struct{})
		for _, e := range b.del {
			touched[edgeKey(e[0], e[1])] = struct{}{}
		}
		for len(b.ins) < k {
			u, v := int32(r.IntN(n)), int32(r.IntN(n))
			key := edgeKey(u, v)
			if u == v {
				continue
			}
			if _, ok := present[key]; ok {
				continue
			}
			if _, ok := touched[key]; ok {
				continue
			}
			touched[key] = struct{}{}
			b.ins = append(b.ins, [2]int32{min(u, v), max(u, v)})
		}
		for _, e := range b.ins {
			cur = append(cur, e)
			present[edgeKey(e[0], e[1])] = struct{}{}
		}
		chain[i] = b
	}
	return chain, cur
}

// pairGen draws query pairs for one client.
type pairGen struct {
	r *rand.Rand
	n int
}

func newPairGen(seed uint64, stream uint64, n int) *pairGen {
	return &pairGen{r: rand.New(rand.NewPCG(subSeed(seed, 3, stream), 0)), n: n}
}

// uniform draws a pair of distinct vertices.
func (p *pairGen) uniform() (int, int) {
	u := p.r.IntN(p.n)
	v := p.r.IntN(p.n - 1)
	if v >= u {
		v++
	}
	return u, v
}

// hotBatch draws k pairs whose sources come from hot.
func (p *pairGen) hotBatch(hot []int, k int) [][2]int {
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{hot[p.r.IntN(len(hot))], p.r.IntN(p.n)}
	}
	return out
}
