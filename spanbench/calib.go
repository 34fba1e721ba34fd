package main

import (
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// calibrator measures how fast the host runs graph work at the moment:
// the CPU time of a fixed batch of BFS sweeps over a random graph of the
// family's size. On a shared virtual machine the same single-threaded
// loop takes from 0.21 s to 0.36 s of CPU time within a minute, as
// other tenants load the cores under it, and a build's CPU time moves
// with it. The graph and the sweeps are the benchmark's own, drawn from
// a fixed seed, so no change to the program moves the batch.
type calibrator struct {
	off   []int32 // CSR offsets, n+1
	nbr   []int32 // CSR neighbours
	dist  []int32
	queue []int32
}

// calibSweeps is the batch: about 40 ms of CPU time on the family's
// size on a 2-vCPU KVM guest.
const calibSweeps = 128

// Linux's CPU-time clocks, which the syscall package does not name.
// Unlike getrusage, which for a running thread lags by up to a
// scheduler tick, they read to the nanosecond.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// newCalibrator draws a graph on n vertices with the expected edge count
// of a GNP graph of edge probability p.
func newCalibrator(n int, p float64) *calibrator {
	m := int(p * float64(n) * float64(n-1) / 2)
	r := rand.New(rand.NewPCG(0x63616c6962, 0))
	ends := make([][2]int32, m)
	deg := make([]int32, n+1)
	for i := range ends {
		u, v := int32(r.IntN(n)), int32(r.IntN(n))
		ends[i] = [2]int32{u, v}
		deg[u+1]++
		deg[v+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	c := &calibrator{off: deg, nbr: make([]int32, 2*m), dist: make([]int32, n), queue: make([]int32, 0, n)}
	fill := append([]int32(nil), deg[:n]...)
	for _, e := range ends {
		c.nbr[fill[e[0]]] = e[1]
		fill[e[0]]++
		c.nbr[fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	return c
}

// sample runs the batch and returns the CPU time of its own thread, so
// that the daemon's goroutines and the garbage collector do not count.
func (c *calibrator) sample() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuClock(clockThreadCPU)
	n := len(c.dist)
	for s := range calibSweeps {
		c.sweep(s * 7919 % n)
	}
	return cpuClock(clockThreadCPU) - t0
}

// sweep is one BFS from src into the calibrator's own buffers.
func (c *calibrator) sweep(src int) {
	for i := range c.dist {
		c.dist[i] = -1
	}
	c.dist[src] = 0
	q := append(c.queue[:0], int32(src))
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, v := range c.nbr[c.off[u]:c.off[u+1]] {
			if c.dist[v] < 0 {
				c.dist[v] = c.dist[u] + 1
				q = append(q, v)
			}
		}
	}
	c.queue = q
}

// cpuClock reads one of the CPU-time clocks.
func cpuClock(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("spanbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
