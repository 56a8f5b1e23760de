package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	ds "densestream"
	"densestream/internal/serve"
)

// serve-mixed traffic: an open loop of seeded Poisson arrivals at a fixed
// offered rate against one densestd process, from at most GOMAXPROCS
// connections. Per 40 requests: 33 solves on a static graph over a small
// fixed set of Problems (cache hits once warm), one edge append to that
// graph (which drops its cached results, so the next solves rebuild the
// snapshot and re-peel), two appends to a dynamic graph, and four reads
// of the dynamic graph's maintained solution.
const (
	serveRate   = 200.0 // offered requests per second
	appendEvery = 40

	staticNodes, staticEdges = 20_000, 100_000
	staticBatch              = 25 // edges per static append

	dynNodes, dynEdges  = 5_000, 20_000
	dynBatch            = 10 // new edges per dynamic append
	dynEps, dynDriftEps = 0.3, 0.6
)

// serveEps are the static graph's Problems: Algorithm 1 on BackendPeel.
var serveEps = []float64{0.1, 0.3, 1.0}

type reqKind int

const (
	kSolve reqKind = iota
	kAppend
	kDynAppend
	kDynRead
)

var kindSpan = [...]string{kSolve: "serve.solve", kAppend: "serve.append", kDynAppend: "dynamic.append", kDynRead: "dynamic.read"}

// arrival is one scheduled request: its due time from the window start,
// its kind, and the Problem index (solves) or append ordinal (appends).
type arrival struct {
	at   time.Duration
	kind reqKind
	arg  int
}

// reply is one request's outcome; answers are judged after the window.
type reply struct {
	lat      time.Duration // from the due time to the whole response read
	err      error
	status   int
	cache    string // X-Cache of static solves
	body     uint64 // FNV-1a of the response body
	info     serve.GraphInfo
	vlo, vhi int // the graph versions the answer may reflect
	op       int // span op id when traced
}

// traffic is the shared state of one measured window.
type traffic struct {
	sched          []arrival
	sBatch, dBatch [][][2]int32
	solveBody      [][]byte
	start          time.Time
	// Appends to one graph are sent in order: append k waits for turn k.
	// sent/done count the appends begun and answered, which bound the
	// version a concurrent read can see.
	sTurn, dTurn []chan struct{}
	sSent, sDone atomic.Int64
	dSent, dDone atomic.Int64
}

type serveMixed struct {
	e      *env
	conns  int
	client *http.Client
	d      *daemon

	sBase, dBase [][2]int32
	sNodes       int
	sPut, dPut   []byte
	dKeys        map[uint64]bool // edges of the dynamic base graph
	ref0         []uint64        // version-0 static answers, per Problem
	dRef0        uint64
	warm         warmup
}

func prepareServeMixed(e *env) (instance, error) {
	if e.densestd == "" {
		return nil, errors.New("serve-mixed needs -densestd")
	}
	sg, err := ds.GenerateChungLu(staticNodes, staticEdges, plExponent, e.seed+3)
	if err != nil {
		return nil, err
	}
	dg, err := ds.GenerateChungLu(dynNodes, dynEdges, plExponent, e.seed+4)
	if err != nil {
		return nil, err
	}
	s := &serveMixed{e: e, conns: runtime.GOMAXPROCS(0), sBase: edgeList(sg), dBase: edgeList(dg), dKeys: make(map[uint64]bool)}
	s.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns, DisableCompression: true,
	}}
	for _, ed := range s.sBase {
		s.sNodes = max(s.sNodes, int(ed[0])+1, int(ed[1])+1)
	}
	for _, ed := range s.dBase {
		s.dKeys[edgeKey(ed)] = true
	}
	s.sPut, s.dPut = textBody(s.sBase), textBody(s.dBase)
	_, s.ref0, err = staticAnswers(s.sNodes, s.sBase)
	if err != nil {
		return nil, err
	}
	ref, err := dynamicAnswer(s.dBase)
	if err != nil {
		return nil, err
	}
	s.dRef0 = ref.hash
	return s, nil
}

func edgeKey(e [2]int32) uint64 {
	u, v := min(e[0], e[1]), max(e[0], e[1])
	return uint64(u)<<32 | uint64(v)
}

func textBody(edges [][2]int32) []byte {
	var b bytes.Buffer
	for _, e := range edges {
		fmt.Fprintf(&b, "%d %d\n", e[0], e[1])
	}
	return b.Bytes()
}

func edgesJSON(edges [][2]int32) []byte {
	data, _ := json.Marshal(map[string][][2]int32{"edges": edges}) // int pairs always marshal
	return data
}

func hashOf(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// freezeGraph builds the in-process graph a registry snapshot of these
// edges freezes into.
func freezeGraph(n int, edges [][2]int32) (*ds.UndirectedGraph, error) {
	b := ds.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Freeze()
}

// staticAnswers is the reference for every static Problem on one
// version of the static graph: json.Marshal of the in-process Solve,
// which densestd must return byte for byte.
func staticAnswers(n int, edges [][2]int32) (*ds.UndirectedGraph, []uint64, error) {
	g, err := freezeGraph(n, edges)
	if err != nil {
		return nil, nil, err
	}
	hashes := make([]uint64, len(serveEps))
	for i, eps := range serveEps {
		sol, err := ds.Solve(context.Background(), ds.Problem{Graph: g, Eps: eps})
		if err != nil {
			return nil, nil, err
		}
		data, err := json.Marshal(sol)
		if err != nil {
			return nil, nil, err
		}
		hashes[i] = hashOf(data)
	}
	return g, hashes, nil
}

// dynRef is the from-scratch answer on one version of the dynamic graph:
// what the maintainer must serve at an epoch boundary.
type dynRef struct {
	hash    uint64
	set     []int32
	density float64
	inSet   int64 // live edges with both endpoints in set, at this version
}

func dynamicAnswer(edges [][2]int32) (*dynRef, error) {
	g, err := freezeGraph(dynNodes, edges)
	if err != nil {
		return nil, err
	}
	sol, err := ds.Solve(context.Background(), ds.Problem{Graph: g, Eps: dynEps})
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(sol)
	if err != nil {
		return nil, err
	}
	r := &dynRef{hash: hashOf(data), set: sol.Set, density: sol.Density}
	in := make([]bool, dynNodes)
	for _, u := range sol.Set {
		in[u] = true
	}
	for _, e := range edges {
		if in[e[0]] && in[e[1]] {
			r.inSet++
		}
	}
	return r, nil
}

// --- the daemon process ---

// daemon is one densestd process serving on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	pid  string
	gc   *gcLog
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}

// startDaemon runs densestd with its default flags on a free loopback
// port and waits until /healthz answers. GODEBUG=gctrace=1 makes the
// runtime log every GC cycle, from which the daemon's allocation is
// estimated.
func startDaemon(bin, dir string, client *http.Client) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:"+port)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1", "TMPDIR="+dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + port, pid: strconv.Itoa(cmd.Process.Pid), gc: &gcLog{done: make(chan struct{})}}
	go d.gc.read(stderr)
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("densestd not ready after 10s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to shut down, kills it if it has not exited
// within five seconds, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-d.gc.done // stderr reaches EOF when the process exits
		_ = d.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
	}
}

var gcLine = regexp.MustCompile(`^gc \d+ .* (\d+)->(\d+)->(\d+) MB`)

// gcLog collects the heap sizes of the daemon's GC cycles from its
// gctrace lines: heap at cycle start, at cycle end, and live after it.
type gcLog struct {
	mu     sync.Mutex
	cycles [][3]float64
	done   chan struct{}
}

func (g *gcLog) read(r io.Reader) {
	defer close(g.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var c [3]float64
		for i := range c {
			c[i], _ = strconv.ParseFloat(m[i+1], 64) // the regexp admits digits only
		}
		g.mu.Lock()
		g.cycles = append(g.cycles, c)
		g.mu.Unlock()
	}
	_, _ = io.Copy(io.Discard, r) // keep draining past an overlong line
}

func (g *gcLog) mark() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.cycles)
}

// allocBytes estimates the heap bytes allocated between two marks: each
// cycle's heap at its end minus the live heap the cycle before left.
func (g *gcLog) allocBytes(from, to int) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var mb float64
	for i := from; i < to; i++ {
		prevLive := 0.0
		if i > 0 {
			prevLive = g.cycles[i-1][2]
		}
		mb += g.cycles[i][1] - prevLive
	}
	return mb * 1e6
}

// --- requests ---

// call sends one request and reads the whole response.
func (s *serveMixed) call(method, path string, body []byte, ctype string) (status int, data []byte, cache string, err error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.d.base+path, r)
	if err != nil {
		return 0, nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header.Get("X-Cache"), err
}

func solveBody(eps float64, noCache bool) []byte {
	data, _ := json.Marshal(serve.SolveRequest{Graph: "s", NoCache: noCache, // a plain struct always marshals
		Problem: ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps}})
	return data
}

func (s *serveMixed) metricsView() (serve.MetricsView, error) {
	var v serve.MetricsView
	status, data, _, err := s.call(http.MethodGet, "/metrics", nil, "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	return v, err
}

// setup starts a fresh daemon, registers both graphs over HTTP and warms
// the cache and the maintainer with one request per static Problem and
// one dynamic read.
func (s *serveMixed) setup() (time.Duration, error) {
	s.stopDaemon()
	start := time.Now()
	d, err := startDaemon(s.e.densestd, s.e.dir, s.client)
	if err != nil {
		return 0, err
	}
	s.d = d
	for _, put := range []struct {
		path string
		body []byte
	}{
		{"/graphs/s", s.sPut},
		{fmt.Sprintf("/graphs/d?dynamic=1&eps=%v&driftEps=%v&nodes=%d", dynEps, dynDriftEps, dynNodes), s.dPut},
	} {
		status, data, _, err := s.call(http.MethodPut, put.path, put.body, "text/plain")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, data)
		}
		if err != nil {
			return 0, fmt.Errorf("PUT %s: %w", put.path, err)
		}
	}
	for i, eps := range serveEps {
		status, data, _, err := s.call(http.MethodPost, "/solve", solveBody(eps, false), "application/json")
		if err == nil && (status != http.StatusOK || hashOf(data) != s.ref0[i]) {
			err = fmt.Errorf("warm-up solve eps=%v: status %d, answer differs from the in-process Solve", eps, status)
		}
		s.warm.record(err)
	}
	status, data, _, err := s.call(http.MethodGet, "/graphs/d/current", nil, "")
	if err == nil && (status != http.StatusOK || hashOf(bytes.TrimSpace(data)) != s.dRef0) {
		err = fmt.Errorf("warm-up dynamic read: status %d, answer differs from the in-process Solve", status)
	}
	s.warm.record(err)
	return time.Since(start), nil
}

func (s *serveMixed) stopDaemon() {
	if s.d != nil {
		s.client.CloseIdleConnections()
		s.d.stop()
		s.d = nil
	}
}

func (s *serveMixed) close() { s.stopDaemon() }

// plan draws the window's arrivals and the edges its appends carry.
func (s *serveMixed) plan(d time.Duration) *traffic {
	rng := rand.New(rand.NewPCG(uint64(s.e.seed), uint64(d)))
	t := &traffic{}
	var nS, nD int
	for at := 0.0; ; {
		at += rng.ExpFloat64() / serveRate
		if at >= d.Seconds() {
			break
		}
		i := len(t.sched)
		a := arrival{at: time.Duration(at * float64(time.Second))}
		switch {
		case i%appendEvery == appendEvery/2:
			a.kind, a.arg = kAppend, nS
			nS++
		case i%20 == 10:
			a.kind, a.arg = kDynAppend, nD
			nD++
		case i%10 == 5:
			a.kind = kDynRead
		default:
			a.kind, a.arg = kSolve, rng.IntN(len(serveEps))
		}
		t.sched = append(t.sched, a)
	}
	for k := 0; k < nS; k++ {
		var b [][2]int32
		for len(b) < staticBatch {
			u, v := int32(rng.IntN(s.sNodes)), int32(rng.IntN(s.sNodes))
			if u != v {
				b = append(b, [2]int32{u, v})
			}
		}
		t.sBatch = append(t.sBatch, b)
	}
	// Dynamic appends carry edges new to the live set, so each one
	// grows it by exactly dynBatch.
	live := maps.Clone(s.dKeys)
	for k := 0; k < nD; k++ {
		var b [][2]int32
		for len(b) < dynBatch {
			e := [2]int32{int32(rng.IntN(dynNodes)), int32(rng.IntN(dynNodes))}
			if e[0] != e[1] && !live[edgeKey(e)] {
				live[edgeKey(e)] = true
				b = append(b, e)
			}
		}
		t.dBatch = append(t.dBatch, b)
	}
	for _, eps := range serveEps {
		t.solveBody = append(t.solveBody, solveBody(eps, false))
	}
	t.sTurn, t.dTurn = turns(nS), turns(nD)
	return t
}

func turns(n int) []chan struct{} {
	c := make([]chan struct{}, n+1)
	for i := range c {
		c[i] = make(chan struct{})
	}
	close(c[0])
	return c
}

// do sends one scheduled request. Traced requests get a root span from
// the due time to the response, split into the wait for a connection
// (or for the previous append to the same graph) and the HTTP exchange.
func (s *serveMixed) do(t *traffic, a arrival, rec *recorder) reply {
	due := t.start.Add(a.at)
	var r reply
	var sent time.Time
	var data []byte
	appendTo := func(graph string, turn []chan struct{}, sentN, doneN *atomic.Int64, batch [][2]int32) {
		<-turn[a.arg]
		defer close(turn[a.arg+1])
		sentN.Store(int64(a.arg + 1))
		sent = time.Now()
		r.status, data, _, r.err = s.call(http.MethodPost, "/graphs/"+graph+"/edges", edgesJSON(batch), "application/json")
		doneN.Store(int64(a.arg + 1))
		if r.err == nil && r.status == http.StatusOK {
			r.err = json.Unmarshal(data, &r.info)
		}
	}
	switch a.kind {
	case kSolve:
		r.vlo = int(t.sDone.Load())
		sent = time.Now()
		r.status, data, r.cache, r.err = s.call(http.MethodPost, "/solve", t.solveBody[a.arg], "application/json")
		r.vhi = int(t.sSent.Load())
		r.body = hashOf(data)
	case kAppend:
		appendTo("s", t.sTurn, &t.sSent, &t.sDone, t.sBatch[a.arg])
	case kDynAppend:
		appendTo("d", t.dTurn, &t.dSent, &t.dDone, t.dBatch[a.arg])
	case kDynRead:
		r.vlo = int(t.dDone.Load())
		sent = time.Now()
		r.status, data, _, r.err = s.call(http.MethodGet, "/graphs/d/current", nil, "")
		r.vhi = int(t.dSent.Load())
		r.body = hashOf(bytes.TrimSpace(data))
	}
	done := time.Now()
	r.lat = done.Sub(due)
	if rec != nil {
		r.op = rec.op()
		root := rec.add(r.op, -1, kindSpan[a.kind], due, done)
		rec.add(r.op, root, "client.wait", due, sent)
		rec.add(r.op, root, "densestd.http", sent, done)
	}
	return r
}

// measure drives the window's schedule: a dispatcher releases each
// request at its due time to conns workers, each holding one connection.
func (s *serveMixed) measure(d time.Duration, rec *recorder) (*window, error) {
	t := s.plan(d)
	m0, err := s.metricsView()
	if err != nil {
		return nil, err
	}
	cpu0, err := pidCPU(s.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(s.d.pid); err != nil {
		return nil, err
	}
	gc0 := s.d.gc.mark()

	replies := make([]reply, len(t.sched))
	queue := make(chan int, len(t.sched)) // sized to the number of sends
	var wg sync.WaitGroup
	t.start = time.Now().Add(10 * time.Millisecond)
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := rec
				if i%2 == 0 {
					r = nil
				}
				replies[i] = s.do(t, t.sched[i], r)
			}
		}()
	}
	var late time.Duration
	for i, a := range t.sched {
		due := t.start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = max(late, time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()

	w := &window{attempted: int64(len(replies))}
	var end time.Time
	for i, r := range replies {
		w.lat = append(w.lat, r.lat)
		if done := t.start.Add(t.sched[i].at + r.lat); done.After(end) {
			end = done
		}
	}
	w.wall = end.Sub(t.start)
	cpu1, err := pidCPU(s.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	w.allocB = s.d.gc.allocBytes(gc0, s.d.gc.mark())
	if w.rssPeakB, err = peakRSS(s.d.pid); err != nil {
		return nil, err
	}
	m1, err := s.metricsView()
	if err != nil {
		return nil, err
	}

	final, failed, err := s.judge(t, replies)
	if err != nil {
		return nil, err
	}
	w.failed = failed
	s.warm.flush(w)
	if rec == nil {
		return w, nil
	}

	var hit, miss, app, dapp, dread []time.Duration
	for i, r := range replies {
		if i%2 == 0 {
			w.untraced = append(w.untraced, r.lat)
		} else {
			w.tracedOps = append(w.tracedOps, r.op)
		}
		switch a := t.sched[i]; {
		case a.kind == kSolve && r.cache == "hit":
			hit = append(hit, r.lat)
		case a.kind == kSolve && r.cache == "miss":
			miss = append(miss, r.lat)
		case a.kind == kAppend:
			app = append(app, r.lat)
		case a.kind == kDynAppend:
			dapp = append(dapp, r.lat)
		case a.kind == kDynRead:
			dread = append(dread, r.lat)
		}
	}
	overhead, err := s.httpOverhead(rec, final, w)
	if err != nil {
		return nil, err
	}
	hits, misses := m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	o0, o1 := m0.PerObjective["Undirected"], m1.PerObjective["Undirected"]
	solveMean := 0.0
	if n := o1.Count - o0.Count; n > 0 {
		solveMean = (o1.MeanMS*float64(o1.Count) - o0.MeanMS*float64(o0.Count)) / float64(n)
	}
	var epochs int64
	if m0.Dynamic != nil && m1.Dynamic != nil {
		epochs = m1.Dynamic.Epochs - m0.Dynamic.Epochs
	}
	w.layers = map[string]metric{
		"serve.hit_ms_p50":       {medianMS(hit), "ms"},
		"serve.miss_ms_p50":      {medianMS(miss), "ms"},
		"serve.append_ms_p50":    {medianMS(app), "ms"},
		"serve.cache_hit_ratio":  {float64(hits) / math.Max(1, float64(hits+misses)), "1"},
		"serve.solve_ms_mean":    {solveMean, "ms"},
		"serve.http_overhead_ms": {overhead, "ms"},
		"dynamic.append_ms_p50":  {medianMS(dapp), "ms"},
		"dynamic.read_ms_p50":    {medianMS(dread), "ms"},
		"dynamic.epochs":         {float64(epochs), "count"},
		"loadgen.late_ms_max":    {ms(late), "ms"},
	}
	return w, nil
}

// judge checks every reply against the references and returns the
// final static graph with the number of wrong or failed requests.
// A static solve must equal, byte for byte, json.Marshal of the
// in-process Solve on one of the graph versions it could have seen. A
// dynamic read must equal the from-scratch answer of some version the
// maintainer could have re-peeled at, and that answer must still be
// certified (2+2·driftEps)-approximate by the maintainer's drift bound
// at a version the read could have seen.
func (s *serveMixed) judge(t *traffic, replies []reply) (*ds.UndirectedGraph, int64, error) {
	edges := append([][2]int32(nil), s.sBase...)
	sRefs := make([][]uint64, len(t.sBatch)+1)
	var g *ds.UndirectedGraph
	for v := range sRefs {
		if v > 0 {
			edges = append(edges, t.sBatch[v-1]...)
		}
		var err error
		if g, sRefs[v], err = staticAnswers(s.sNodes, edges); err != nil {
			return nil, 0, err
		}
	}
	dEdges := append([][2]int32(nil), s.dBase...)
	dRefs := make([]*dynRef, len(t.dBatch)+1)
	for v := range dRefs {
		if v > 0 {
			dEdges = append(dEdges, t.dBatch[v-1]...)
		}
		var err error
		if dRefs[v], err = dynamicAnswer(dEdges); err != nil {
			return nil, 0, err
		}
	}

	var failed int64
	for i, r := range replies {
		a := t.sched[i]
		ok := r.err == nil && r.status == http.StatusOK
		switch a.kind {
		case kSolve:
			ok = ok && anyVersion(r.vlo, r.vhi, func(v int) bool { return sRefs[v][a.arg] == r.body })
		case kAppend:
			ok = ok && r.info.Edges == len(s.sBase)+(a.arg+1)*staticBatch && r.info.Version == int64(a.arg+2)
		case kDynAppend:
			ok = ok && r.info.Edges == len(s.dBase)+(a.arg+1)*dynBatch && r.info.Version == int64(a.arg+2)
		case kDynRead:
			ok = ok && anyVersion(0, r.vhi, func(w int) bool {
				return dRefs[w].hash == r.body && anyVersion(max(w, r.vlo), r.vhi, func(v int) bool {
					return certified(dRefs[w], t.dBatch[w:v])
				})
			})
		}
		if !ok {
			if failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s request %d wrong or failed: status %d, err %v\n", kindSpan[a.kind], i, r.status, r.err)
			}
			failed++
		}
	}
	return g, failed, nil
}

func anyVersion(lo, hi int, f func(int) bool) bool {
	for v := lo; v <= hi; v++ {
		if f(v) {
			return true
		}
	}
	return false
}

// certified replays the maintainer's drift test for an epoch answer
// after the given appends: the answer stays servable while
// (2+2ε′)·ρ_cur ≥ (2+2ε)·ρ₀ + √(|A|/2), where ρ_cur is the answer set's
// density on the live graph and A the edges added since the epoch.
func certified(ref *dynRef, since [][][2]int32) bool {
	if len(since) == 0 {
		return true
	}
	in := make(map[int32]bool, len(ref.set))
	for _, u := range ref.set {
		in[u] = true
	}
	inSet, added := ref.inSet, 0
	for _, b := range since {
		for _, e := range b {
			added++
			if in[e[0]] && in[e[1]] {
				inSet++
			}
		}
	}
	rhoCur := float64(inSet) / float64(len(ref.set))
	bound := (2+2*dynEps)*ref.density + math.Sqrt(float64(added)/2)
	return !((2+2*dynDriftEps)*rhoCur < bound)
}

// httpOverhead is an unloaded, uncached HTTP solve minus the in-process
// Solve of the same Problem on the same graph (medians of five each).
func (s *serveMixed) httpOverhead(rec *recorder, g *ds.UndirectedGraph, w *window) (float64, error) {
	body := solveBody(serveEps[0], true)
	want, err := ds.Solve(context.Background(), ds.Problem{Graph: g, Eps: serveEps[0]})
	if err != nil {
		return 0, err
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return 0, err
	}
	var remote, local []time.Duration
	for i := 0; i < 5; i++ {
		var status int
		var data []byte
		d, err := probe(rec, "serve.uncached_solve", func() (err error) {
			status, data, _, err = s.call(http.MethodPost, "/solve", body, "application/json")
			return err
		})
		if err != nil {
			return 0, err
		}
		w.attempted++
		if status != http.StatusOK || !bytes.Equal(data, wantJSON) {
			w.failed++
		}
		remote = append(remote, d)
		d, err = probe(rec, "core.inprocess_solve", func() error {
			_, err := ds.Solve(context.Background(), ds.Problem{Graph: g, Eps: serveEps[0]})
			return err
		})
		if err != nil {
			return 0, err
		}
		local = append(local, d)
	}
	return medianMS(remote) - medianMS(local), nil
}
