package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.t0.Add(time.Duration(ns)) }
	root := tr.add("core.build.dist", 0, 1, at(0), at(100))
	tr.add("protocols.dist.near-neighbors", root, 1, at(0), at(60))
	tr.add("protocols.dist.ruling-set", root, 1, at(60), at(90))
	self := tr.selfTimes()
	if self[0] != 10 || self[1] != 60 || self[2] != 30 {
		t.Errorf("self times %v, want [10 60 30]", self)
	}
	if got := tr.selfOf("protocols.dist.ruling-set", time.Nanosecond); len(got) != 1 || got[0] != 30 {
		t.Errorf("selfOf = %v", got)
	}
}

// BenchmarkSpan measures what one span adds around a traced call: the
// tracing overhead of a direct call into a layer.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer()
	for b.Loop() {
		tr.time("oracle.dist", 0, tr.op(), func() {})
	}
}
