package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"nearspan/internal/service"
	"nearspan/internal/store"
)

// daemon is one spannerd instance inside the benchmark process: a store
// that fsyncs every write, the service, and an HTTP server on a
// loopback port.
type daemon struct {
	dir       string
	st        *store.Store
	srv       *service.Server
	hs        *http.Server
	base      string
	serveDone chan error
	// recovery is the time from service.New to the end of journal
	// replay.
	recovery time.Duration
}

// startDaemon opens the store in dir, constructs the service on it, and
// serves it on 127.0.0.1; it returns once journal replay has finished.
func startDaemon(dir string) (*daemon, error) {
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	start := time.Now()
	d := &daemon{dir: dir, st: st, srv: service.New(service.Options{Store: st}), serveDone: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.base = "http://" + ln.Addr().String()
	go func() { d.serveDone <- d.hs.Serve(ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.srv.WaitReady(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon not ready: %w", err)
	}
	d.recovery = time.Since(start)
	return d, nil
}

// stop drains the service, shuts the HTTP server down, and closes the
// store; it returns once the serving goroutine has exited.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	err := d.hs.Shutdown(ctx)
	<-d.serveDone
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// Operation kinds the benchmark counts. Every client call is one
// attempt; a non-2xx reply or an undecodable body is one failure, and
// nothing is retried.
const (
	opSubmit = iota
	opQuery
	opBatch
	opPatch
	opRestart
	numOps
)

var opNames = [numOps]string{"submit", "query", "batch", "patch", "restart"}

// opCounts counts operations per kind. The benchmark is one client, so
// they are only touched from one goroutine.
type opCounts struct {
	attempted, failed [numOps]int64
}

func (o *opCounts) record(kind int, err error) {
	o.attempted[kind]++
	if err != nil {
		o.failed[kind]++
	}
}

func (o *opCounts) totals() (attempted, failed int64) {
	for k := range numOps {
		attempted += o.attempted[k]
		failed += o.failed[k]
	}
	return attempted, failed
}

// client is a closed-loop HTTP client of one daemon: each call returns
// before the next is sent.
type client struct {
	base string
	hc   *http.Client
	ops  *opCounts
}

func newClient(base string, ops *opCounts) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}, ops: ops}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and hands a 200 reply's body to parse
// (when non-nil), returning the round-trip time.
func (c *client) do(kind int, method, path, ctype string, body []byte, parse func([]byte) error) (time.Duration, error) {
	start := time.Now()
	err := c.roundTrip(method, path, ctype, body, parse)
	elapsed := time.Since(start)
	c.ops.record(kind, err)
	return elapsed, err
}

func (c *client) roundTrip(method, path, ctype string, body []byte, parse func([]byte) error) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if parse == nil {
		return nil
	}
	return parse(data)
}

func decodeJSON(v any) func([]byte) error {
	return func(b []byte) error { return json.Unmarshal(b, v) }
}

// cost is what one build or PATCH took, in seconds: its round trip, and
// the CPU time the whole process (daemon and client) spent meanwhile.
type cost struct {
	wall, cpu float64
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.cpu += o.cpu
}

// per is c shared among n.
func (c cost) per(n int) cost {
	return cost{wall: c.wall / float64(n), cpu: c.cpu / float64(n)}
}

// cpuTime is the CPU time, user plus system, the process has used so
// far. It does not count time the process waited for a CPU, on this
// machine or on the host under it.
func cpuTime() time.Duration { return cpuClock(clockProcessCPU) }

// costly runs one build or PATCH call and measures its cost.
func (c *client) costly(kind int, method, path, ctype string, body []byte, parse func([]byte) error) (cost, error) {
	cpu0 := cpuTime()
	d, err := c.do(kind, method, path, ctype, body, parse)
	return cost{wall: d.Seconds(), cpu: (cpuTime() - cpu0).Seconds()}, err
}

// submit posts a build job and waits for its terminal state.
func (c *client) submit(spec service.JobSpec) (service.JobView, cost, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobView{}, cost{}, err
	}
	var v service.JobView
	k, err := c.costly(opSubmit, "POST", "/v1/jobs?wait=1", "application/json", body, decodeJSON(&v))
	if err == nil && (v.State != service.StateDone || v.Result == nil) {
		err = fmt.Errorf("job %s ended %s", v.ID, v.State)
	}
	return v, k, err
}

// queryReply mirrors the daemon's point-query answer.
type queryReply struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Dist  int32   `json:"dist"`
	Alpha float64 `json:"alpha"`
	Beta  int32   `json:"beta"`
	Path  []int32 `json:"path"`
}

// query asks for d(u,v) in job's spanner, with a route when path is set.
func (c *client) query(job string, u, v int, path bool) (queryReply, time.Duration, error) {
	q := url.Values{"u": {strconv.Itoa(u)}, "v": {strconv.Itoa(v)}}
	if path {
		q.Set("path", "1")
	}
	var r queryReply
	d, err := c.do(opQuery, "GET", "/v1/jobs/"+job+"/query?"+q.Encode(), "", nil, decodeJSON(&r))
	if err == nil && (r.U != u || r.V != v) {
		err = fmt.Errorf("answer for (%d,%d) names (%d,%d)", u, v, r.U, r.V)
	}
	return r, d, err
}

// batch sends one NDJSON batch of pairs and returns the distances in
// order.
func (c *client) batch(job string, pairs [][2]int) ([]int32, time.Duration, error) {
	var buf bytes.Buffer
	for _, p := range pairs {
		fmt.Fprintf(&buf, "{\"u\":%d,\"v\":%d}\n", p[0], p[1])
	}
	dists := make([]int32, 0, len(pairs))
	parse := func(b []byte) error {
		dec := json.NewDecoder(bytes.NewReader(b))
		for i := range pairs {
			var r queryReply
			if err := dec.Decode(&r); err != nil {
				return fmt.Errorf("batch answer %d: %w", i, err)
			}
			if r.U != pairs[i][0] || r.V != pairs[i][1] {
				return fmt.Errorf("batch answer %d names (%d,%d), want (%d,%d)", i, r.U, r.V, pairs[i][0], pairs[i][1])
			}
			dists = append(dists, r.Dist)
		}
		return nil
	}
	d, err := c.do(opBatch, "POST", "/v1/jobs/"+job+"/query", "application/x-ndjson", buf.Bytes(), parse)
	return dists, d, err
}

// patch sends one edge-delta batch and returns the updated job document.
func (c *client) patch(job string, b edgeBatch) (service.JobView, cost, error) {
	var buf bytes.Buffer
	for _, e := range b.del {
		fmt.Fprintf(&buf, "{\"op\":\"delete\",\"u\":%d,\"v\":%d}\n", e[0], e[1])
	}
	for _, e := range b.ins {
		fmt.Fprintf(&buf, "{\"op\":\"insert\",\"u\":%d,\"v\":%d}\n", e[0], e[1])
	}
	var v service.JobView
	k, err := c.costly(opPatch, "PATCH", "/v1/jobs/"+job+"/edges", "application/x-ndjson", buf.Bytes(), decodeJSON(&v))
	return v, k, err
}

// status fetches a job document (not a counted operation: the checks
// use it, the workloads do not).
func (c *client) status(job string) (service.JobView, error) {
	var v service.JobView
	err := c.roundTrip("GET", "/v1/jobs/"+job, "", nil, decodeJSON(&v))
	return v, err
}
