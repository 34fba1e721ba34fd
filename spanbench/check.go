package main

import (
	"fmt"
	"slices"
)

// The output checks use only this file's own graph code: an adjacency
// built from plain edge lists and a textbook BFS. They never call the
// program's verify or oracle packages, so a fault there cannot hide a
// wrong answer.

// edgeKey packs an undirected edge into one map key, smaller end first.
func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// adjGraph is the checker's graph: sorted adjacency lists plus an edge
// set for membership tests.
type adjGraph struct {
	adj   [][]int32
	edges map[uint64]struct{}
}

// newAdjGraph builds the checker's graph on n vertices from an edge
// list; duplicate edges and self-loops are an error.
func newAdjGraph(n int, edges [][2]int32) (*adjGraph, error) {
	g := &adjGraph{adj: make([][]int32, n), edges: make(map[uint64]struct{}, len(edges))}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v || u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("bad edge {%d,%d} on %d vertices", u, v, n)
		}
		k := edgeKey(u, v)
		if _, dup := g.edges[k]; dup {
			return nil, fmt.Errorf("duplicate edge {%d,%d}", u, v)
		}
		g.edges[k] = struct{}{}
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}
	for _, nb := range g.adj {
		slices.Sort(nb)
	}
	return g, nil
}

func (g *adjGraph) n() int { return len(g.adj) }

func (g *adjGraph) m() int { return len(g.edges) }

func (g *adjGraph) hasEdge(u, v int32) bool {
	_, ok := g.edges[edgeKey(u, v)]
	return ok
}

// bfs returns hop distances from src; -1 marks unreachable vertices.
func (g *adjGraph) bfs(src int) []int32 {
	dist := make([]int32, g.n())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// checks collects named pass/fail outcomes; a run is correct only when
// every check passed.
type checks struct {
	results []checkResult
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (c *checks) add(name string, err error) {
	r := checkResult{Name: name, OK: err == nil}
	if err != nil {
		r.Detail = err.Error()
	}
	c.results = append(c.results, r)
}

func (c *checks) ok() bool {
	for _, r := range c.results {
		if !r.OK {
			return false
		}
	}
	return true
}

// checkSubgraph reports an error for the first spanner edge that is not
// an edge of g.
func checkSubgraph(h, g *adjGraph) error {
	if h.n() != g.n() {
		return fmt.Errorf("spanner has %d vertices, graph has %d", h.n(), g.n())
	}
	for u, nb := range h.adj {
		for _, v := range nb {
			if !g.hasEdge(int32(u), v) {
				return fmt.Errorf("spanner edge {%d,%d} is not in the graph", u, v)
			}
		}
	}
	return nil
}

// checkStretch verifies d_G(s,v) <= d_H(s,v) <= alpha*d_G(s,v) + beta for
// every vertex v and every given source s, with the same reachability
// in both graphs.
func checkStretch(h, g *adjGraph, sources []int, alpha float64, beta int32) error {
	for _, s := range sources {
		dg, dh := g.bfs(s), h.bfs(s)
		for v := range dg {
			switch {
			case (dg[v] < 0) != (dh[v] < 0):
				return fmt.Errorf("reachability of %d from %d differs: d_G=%d d_H=%d", v, s, dg[v], dh[v])
			case dg[v] < 0:
			case dh[v] < dg[v]:
				return fmt.Errorf("d_H(%d,%d)=%d below d_G=%d", s, v, dh[v], dg[v])
			case float64(dh[v]) > alpha*float64(dg[v])+float64(beta)+1e-9:
				return fmt.Errorf("d_H(%d,%d)=%d exceeds %.4g*%d+%d", s, v, dh[v], alpha, dg[v], beta)
			}
		}
	}
	return nil
}

// answer is one served distance: -1 means the daemon reported the pair
// unreachable.
type answer struct {
	U, V int
	Dist int32
	Path []int32 // nil unless the query asked for a route
}

// checkAnswers verifies every answer against the checker's BFS in h,
// running one BFS per distinct source; a route must be a walk in h from
// U to V with exactly Dist edges.
func checkAnswers(h *adjGraph, answers []answer) error {
	bySrc := make(map[int][]int32)
	for _, a := range answers {
		if a.U < 0 || a.U >= h.n() || a.V < 0 || a.V >= h.n() {
			return fmt.Errorf("answer for pair (%d,%d) outside [0,%d)", a.U, a.V, h.n())
		}
		d, ok := bySrc[a.U]
		if !ok {
			d = h.bfs(a.U)
			bySrc[a.U] = d
		}
		if d[a.V] != a.Dist {
			return fmt.Errorf("served d(%d,%d)=%d, BFS in the spanner gives %d", a.U, a.V, a.Dist, d[a.V])
		}
		if a.Path != nil && a.Dist >= 0 {
			if err := checkWalk(h, a); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkWalk(h *adjGraph, a answer) error {
	p := a.Path
	if len(p) != int(a.Dist)+1 || int(p[0]) != a.U || int(p[len(p)-1]) != a.V {
		return fmt.Errorf("route for (%d,%d) at distance %d is %v", a.U, a.V, a.Dist, p)
	}
	for i := 1; i < len(p); i++ {
		if !h.hasEdge(p[i-1], p[i]) {
			return fmt.Errorf("route for (%d,%d) steps over non-edge {%d,%d}", a.U, a.V, p[i-1], p[i])
		}
	}
	return nil
}
