package main

import (
	"strings"
	"testing"
)

// a 6-cycle G and its spanning path H (the cycle minus edge {5,0}).
func cycleAndPath(t *testing.T) (g, h *adjGraph) {
	t.Helper()
	var ge, he [][2]int32
	for i := int32(0); i < 6; i++ {
		ge = append(ge, [2]int32{i, (i + 1) % 6})
		if i < 5 {
			he = append(he, [2]int32{i, i + 1})
		}
	}
	var err error
	if g, err = newAdjGraph(6, ge); err != nil {
		t.Fatal(err)
	}
	if h, err = newAdjGraph(6, he); err != nil {
		t.Fatal(err)
	}
	return g, h
}

func TestCheckerAcceptsCorrectOutputs(t *testing.T) {
	g, h := cycleAndPath(t)
	if err := checkSubgraph(h, g); err != nil {
		t.Error(err)
	}
	// d_H(0,5) = 5 against d_G = 1: within 1*d_G + 4.
	if err := checkStretch(h, g, []int{0, 3}, 1, 4); err != nil {
		t.Error(err)
	}
	answers := []answer{{U: 0, V: 5, Dist: 5, Path: []int32{0, 1, 2, 3, 4, 5}}, {U: 2, V: 4, Dist: 2}}
	if err := checkAnswers(h, answers); err != nil {
		t.Error(err)
	}
}

func TestCheckerRejectsWrongDistance(t *testing.T) {
	_, h := cycleAndPath(t)
	err := checkAnswers(h, []answer{{U: 0, V: 5, Dist: 1}})
	if err == nil || !strings.Contains(err.Error(), "BFS in the spanner gives 5") {
		t.Errorf("wrong distance accepted: %v", err)
	}
}

func TestCheckerRejectsNonEdge(t *testing.T) {
	g, h := cycleAndPath(t)
	// A spanner edge the graph does not have.
	bad, err := newAdjGraph(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSubgraph(bad, g); err == nil || !strings.Contains(err.Error(), "{0,3}") {
		t.Errorf("non-edge {0,3} accepted: %v", err)
	}
	// A route that jumps over a non-edge of H, with the right length.
	err = checkAnswers(h, []answer{{U: 0, V: 3, Dist: 3, Path: []int32{0, 5, 4, 3}}})
	if err == nil || !strings.Contains(err.Error(), "non-edge {0,5}") {
		t.Errorf("route over non-edge accepted: %v", err)
	}
	// A route of the wrong length.
	if err := checkAnswers(h, []answer{{U: 0, V: 2, Dist: 2, Path: []int32{0, 2}}}); err == nil {
		t.Error("route with too few vertices accepted")
	}
}

func TestCheckerRejectsStretchViolation(t *testing.T) {
	g, h := cycleAndPath(t)
	if err := checkStretch(h, g, []int{0}, 1, 3); err == nil {
		t.Error("d_H(0,5)=5 accepted against 1*1+3")
	}
}

func TestChainAgreesWithGraph(t *testing.T) {
	cfg := smallConfig()
	fam, err := makeFamily(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fam {
		present := map[uint64]bool{}
		for k := range m.g.edges {
			present[k] = true
		}
		for i, b := range m.chain {
			if len(b.del) != cfg.Chain[i] || len(b.ins) != cfg.Chain[i] {
				t.Fatalf("batch %d has %d deletes and %d inserts, want %d each", i, len(b.del), len(b.ins), cfg.Chain[i])
			}
			for _, e := range b.del {
				if !present[edgeKey(e[0], e[1])] {
					t.Fatalf("batch %d deletes absent edge %v", i, e)
				}
				delete(present, edgeKey(e[0], e[1]))
			}
			for _, e := range b.ins {
				if present[edgeKey(e[0], e[1])] || e[0] == e[1] {
					t.Fatalf("batch %d inserts present edge or loop %v", i, e)
				}
				present[edgeKey(e[0], e[1])] = true
			}
		}
		if len(present) != len(m.patched) {
			t.Fatalf("patched list has %d edges, model %d", len(m.patched), len(present))
		}
		for _, e := range m.patched {
			if !present[edgeKey(e[0], e[1])] {
				t.Fatalf("patched list has %v, model does not", e)
			}
		}
	}
	again, _ := makeFamily(cfg, 7)
	if again[0].spec.Seed != fam[0].spec.Seed || len(again[1].patched) != len(fam[1].patched) {
		t.Error("the same seed gave different inputs")
	}
}
