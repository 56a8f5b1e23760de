package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	ds "densestream"
)

// testEdges builds a deterministic pseudo-random undirected edge list on
// n nodes with a planted clique on the first `clique` nodes, so the
// densest subgraph is interesting without depending on the generator
// packages.
func testEdges(n, m, clique int, seed uint64) []Edge {
	rng := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var edges []Edge
	for i := 0; i < clique; i++ {
		for j := i + 1; j < clique; j++ {
			edges = append(edges, Edge{U: int32(i), V: int32(j), W: 1})
		}
	}
	for len(edges) < m {
		u := int32(next() % uint64(n))
		v := int32(next() % uint64(n))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, W: 1})
	}
	return edges
}

// bigEdges is a shared slow-solve graph for the deadline and cancel
// tests (built once; snapshots are per-registry).
var (
	bigOnce  sync.Once
	bigCache []Edge
)

func bigTestEdges() []Edge {
	bigOnce.Do(func() {
		n := 1 << 18
		bigCache = testEdges(n, 8*n, 40, 7)
	})
	return bigCache
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, data
}

func mustRegister(t *testing.T, s *Server, name string, directed bool, edges []Edge) GraphInfo {
	t.Helper()
	info, err := s.Registry().Register(name, directed, false, edges, 0)
	if err != nil {
		t.Fatalf("registering %s: %v", name, err)
	}
	return info
}

func TestGraphLifecycleHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Register via raw text edge list.
	body := "# comment\n0 1\n1 2\n2 0\n"
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/graphs/tri", strings.NewReader(body))
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT text graph: %v", err)
	}
	var info GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding info: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || info.Nodes != 3 || info.Edges != 3 || info.Fingerprint == "" || info.Version != 1 {
		t.Fatalf("unexpected register response: status=%d info=%+v", resp.StatusCode, info)
	}

	// Register via inline JSON edges.
	resp2, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/sq", map[string]any{
		"edges": [][]float64{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	})
	if resp2.StatusCode != 200 {
		t.Fatalf("PUT json graph: status=%d body=%s", resp2.StatusCode, data)
	}

	// List is sorted by name.
	respList, data := doJSON(t, http.MethodGet, ts.URL+"/graphs", nil)
	var list []GraphInfo
	if err := json.Unmarshal(data, &list); err != nil || respList.StatusCode != 200 {
		t.Fatalf("GET /graphs: status=%d err=%v body=%s", respList.StatusCode, err, data)
	}
	if len(list) != 2 || list[0].Name != "sq" || list[1].Name != "tri" {
		t.Fatalf("unexpected list: %+v", list)
	}

	// Append bumps version and changes the fingerprint.
	respApp, data := doJSON(t, http.MethodPost, ts.URL+"/graphs/tri/edges", map[string]any{
		"edges": [][]float64{{0, 3}, {1, 3}, {2, 3}},
	})
	var after GraphInfo
	if err := json.Unmarshal(data, &after); err != nil || respApp.StatusCode != 200 {
		t.Fatalf("POST edges: status=%d err=%v body=%s", respApp.StatusCode, err, data)
	}
	if after.Version != 2 || after.Edges != 6 || after.Nodes != 4 || after.Fingerprint == info.Fingerprint {
		t.Fatalf("append did not update info: before=%+v after=%+v", info, after)
	}

	// Bad specs are rejected.
	for _, bad := range []map[string]any{
		{"path": "/nope", "edges": [][]float64{{0, 1}}},
		{"edges": [][]float64{{0, 0}}},
		{"edges": [][]float64{{0}}},
		{},
	} {
		resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/bad", bad)
		if resp.StatusCode != 400 {
			t.Fatalf("bad spec %v: want 400, got %d (%s)", bad, resp.StatusCode, data)
		}
	}

	// Delete, then 404.
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/graphs/sq", nil); resp.StatusCode != 200 {
		t.Fatalf("DELETE: status=%d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/graphs/sq", nil); resp.StatusCode != 404 {
		t.Fatalf("GET deleted graph: want 404, got %d", resp.StatusCode)
	}
}

func TestSolveValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	mustRegister(t, s, "g", false, testEdges(100, 400, 8, 1))

	cases := []struct {
		name   string
		body   string
		status int
		substr string
	}{
		{"unknown graph", `{"graph":"nope","objective":"Undirected","backend":"Peel","eps":0.1}`, 404, "not registered"},
		{"missing graph", `{"objective":"Undirected","backend":"Peel","eps":0.1}`, 400, "name a registered graph"},
		{"path rejected", `{"graph":"g","path":"/tmp/x","objective":"Undirected","backend":"Peel"}`, 400, "Problem.Path is not served"},
		{"bad objective", `{"graph":"g","objective":"Densest","backend":"Peel"}`, 400, "unknown objective"},
		{"bad backend", `{"graph":"g","objective":"Undirected","backend":"GPU"}`, 400, "unknown backend"},
		{"bad eps", `{"graph":"g","objective":"Undirected","backend":"Peel","eps":-1}`, 400, "Problem.Eps"},
		{"bad k", `{"graph":"g","objective":"AtLeastK","backend":"Peel","eps":0.1}`, 400, "Problem.K"},
		{"directed mismatch", `{"graph":"g","objective":"Directed","backend":"Peel","eps":0.1,"c":1}`, 400, "needs a directed graph"},
		{"unknown field", `{"graph":"g","objective":"Undirected","backend":"Peel","epz":0.1}`, 400, "unknown field"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: want status %d, got %d (%s)", tc.name, tc.status, resp.StatusCode, data)
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Errorf("%s: error body is not JSON: %s", tc.name, data)
			continue
		}
		if eb.Status != tc.status || !strings.Contains(eb.Error, tc.substr) {
			t.Errorf("%s: error body %+v does not carry status %d / substring %q", tc.name, eb, tc.status, tc.substr)
		}
	}
}

func TestSolveCacheBitIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	mustRegister(t, s, "g", false, testEdges(500, 3000, 20, 2))

	body := map[string]any{"graph": "g", "objective": "Undirected", "backend": "Peel", "eps": 0.25}
	resp1, data1 := doJSON(t, http.MethodPost, ts.URL+"/solve", body)
	if resp1.StatusCode != 200 || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first solve: status=%d cache=%q body=%s", resp1.StatusCode, resp1.Header.Get("X-Cache"), data1)
	}
	resp2, data2 := doJSON(t, http.MethodPost, ts.URL+"/solve", body)
	if resp2.StatusCode != 200 || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second solve: status=%d cache=%q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("cache hit is not bit-identical:\n%s\nvs\n%s", data1, data2)
	}

	// The solution decodes into the public envelope.
	var sol ds.Solution
	if err := json.Unmarshal(data1, &sol); err != nil {
		t.Fatalf("decoding solution: %v", err)
	}
	if sol.Density <= 0 || len(sol.Set) == 0 {
		t.Fatalf("degenerate solution: %+v", sol)
	}

	// NoCache bypasses the cache but stays bit-identical (determinism).
	body["noCache"] = true
	resp3, data3 := doJSON(t, http.MethodPost, ts.URL+"/solve", body)
	if resp3.StatusCode != 200 || resp3.Header.Get("X-Cache") != "miss" {
		t.Fatalf("noCache solve: status=%d cache=%q", resp3.StatusCode, resp3.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data1, data3) {
		t.Fatalf("noCache re-solve differs from cached result")
	}

	// Metrics reflect the traffic.
	_, mdata := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	var mv MetricsView
	if err := json.Unmarshal(mdata, &mv); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	if mv.Cache.Hits < 1 || mv.Graphs != 1 || mv.PerObjective["Undirected"].Count < 2 {
		t.Fatalf("metrics do not reflect traffic: %s", mdata)
	}
}

func TestIngestInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	mustRegister(t, s, "g", false, testEdges(200, 800, 10, 3))

	// eps=0 peels the sparse background away node by node, so the
	// trace passes through the exact planted-clique state.
	body := map[string]any{"graph": "g", "objective": "Undirected", "backend": "Peel", "eps": 0.0}
	doJSON(t, http.MethodPost, ts.URL+"/solve", body)
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/solve", body)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("expected warm cache before ingest")
	}

	// Append a clique on fresh nodes: densest subgraph changes.
	var clique [][]float64
	for i := 200; i < 230; i++ {
		for j := i + 1; j < 230; j++ {
			clique = append(clique, [][]float64{{float64(i), float64(j)}}...)
		}
	}
	respApp, data := doJSON(t, http.MethodPost, ts.URL+"/graphs/g/edges", map[string]any{"edges": clique})
	if respApp.StatusCode != 200 {
		t.Fatalf("ingest: status=%d body=%s", respApp.StatusCode, data)
	}

	resp3, data3 := doJSON(t, http.MethodPost, ts.URL+"/solve", body)
	if resp3.StatusCode != 200 || resp3.Header.Get("X-Cache") != "miss" {
		t.Fatalf("post-ingest solve should miss the cache: status=%d cache=%q", resp3.StatusCode, resp3.Header.Get("X-Cache"))
	}
	var sol ds.Solution
	if err := json.Unmarshal(data3, &sol); err != nil {
		t.Fatalf("decoding solution: %v", err)
	}
	// The appended 30-clique has density 14.5; the background graph is
	// far sparser, so the solve must find (at least) the clique.
	if sol.Density < 14 {
		t.Fatalf("solve did not see ingested edges: density=%v", sol.Density)
	}
}

func TestDeadlineExpiryReturnsPartialTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("slow graph build")
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	edges := bigTestEdges()
	mustRegister(t, s, "big", false, edges)
	// Build the snapshot outside the deadline so the timeout lands
	// mid-solve, not mid-build.
	if _, err := s.Registry().Snapshot("big"); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	body := map[string]any{
		"graph": "big", "objective": "Undirected", "backend": "Peel",
		"eps": 0.001, "timeoutMillis": 10, "noCache": true,
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/solve", body)
	if resp.StatusCode == 200 {
		t.Skipf("solve finished inside 10ms on this machine; cannot observe expiry")
	}
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("want 408, got %d (%s)", resp.StatusCode, data)
	}
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("decoding error body: %v (%s)", err, data)
	}
	if eb.Status != http.StatusRequestTimeout || !strings.Contains(eb.Error, "deadline") {
		t.Fatalf("error body does not report the deadline: %+v", eb)
	}
	if eb.Partial == nil || len(eb.Partial.Trace) == 0 {
		t.Fatalf("expired solve should carry the partial per-pass trace, got %+v", eb.Partial)
	}

	_, mdata := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	var mv MetricsView
	if err := json.Unmarshal(mdata, &mv); err != nil || mv.DeadlineExpiry < 1 {
		t.Fatalf("metrics should count the expiry: err=%v %s", err, mdata)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	info := mustRegister(t, s, "g", false, testEdges(400, 2000, 15, 4))

	// Submit, then poll to completion.
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/jobs", map[string]any{
		"graph": "g", "objective": "Undirected", "backend": "Peel", "eps": 0.25,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status=%d body=%s", resp.StatusCode, data)
	}
	var jv JobView
	if err := json.Unmarshal(data, &jv); err != nil || jv.ID == "" {
		t.Fatalf("bad job view: err=%v body=%s", err, data)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data = doJSON(t, http.MethodGet, ts.URL+"/jobs/"+jv.ID, nil)
		if err := json.Unmarshal(data, &jv); err != nil || resp.StatusCode != 200 {
			t.Fatalf("poll: status=%d err=%v", resp.StatusCode, err)
		}
		if jv.State == JobDone || jv.State == JobFailed || jv.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", jv)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jv.State != JobDone || jv.Solution == nil {
		t.Fatalf("job did not succeed: %+v", jv)
	}
	if jv.Fingerprint != info.Fingerprint {
		t.Fatalf("job fingerprint %q, want the graph's %q", jv.Fingerprint, info.Fingerprint)
	}
	if len(jv.Progress) == 0 {
		t.Fatalf("job carries no per-pass progress")
	}

	// The async solution matches the synchronous path bit for bit.
	respSync, syncData := doJSON(t, http.MethodPost, ts.URL+"/solve", map[string]any{
		"graph": "g", "objective": "Undirected", "backend": "Peel", "eps": 0.25,
	})
	if respSync.StatusCode != 200 {
		t.Fatalf("sync solve: %d", respSync.StatusCode)
	}
	if !bytes.Equal(bytes.TrimSpace(jv.Solution), bytes.TrimSpace(syncData)) {
		t.Fatalf("async and sync solutions differ:\n%s\nvs\n%s", jv.Solution, syncData)
	}

	// A repeated submission is served born-done from the cache.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/jobs", map[string]any{
		"graph": "g", "objective": "Undirected", "backend": "Peel", "eps": 0.25,
	})
	var hit JobView
	if err := json.Unmarshal(data, &hit); err != nil || resp.StatusCode != 200 {
		t.Fatalf("cached submit: status=%d err=%v", resp.StatusCode, err)
	}
	if hit.State != JobDone || !hit.CacheHit {
		t.Fatalf("expected a born-done cache-hit job, got %+v", hit)
	}
	if hit.Fingerprint != info.Fingerprint {
		t.Fatalf("cache-hit job fingerprint %q, want the graph's %q", hit.Fingerprint, info.Fingerprint)
	}

	// Unknown job id.
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/jobs/j999999", nil); resp.StatusCode != 404 {
		t.Fatalf("unknown job: want 404, got %d", resp.StatusCode)
	}
}

func TestCancelRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("slow graph build")
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	mustRegister(t, s, "big", false, bigTestEdges())
	if _, err := s.Registry().Snapshot("big"); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/jobs", map[string]any{
		"graph": "big", "objective": "Undirected", "backend": "Peel", "eps": 0.001, "noCache": true,
	})
	var jv JobView
	if err := json.Unmarshal(data, &jv); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status=%d err=%v body=%s", resp.StatusCode, err, data)
	}
	resp, data = doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+jv.ID, nil)
	if err := json.Unmarshal(data, &jv); err != nil || resp.StatusCode != 200 {
		t.Fatalf("cancel: status=%d err=%v", resp.StatusCode, err)
	}
	if jv.State != JobCanceled {
		t.Fatalf("want canceled, got %+v", jv)
	}
	if jv.Error == nil || !strings.Contains(jv.Error.Error, "cancel") {
		t.Fatalf("canceled job should report the cancellation: %+v", jv.Error)
	}

	// Canceling a finished job is a no-op on its terminal state.
	resp, data = doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+jv.ID, nil)
	var again JobView
	if err := json.Unmarshal(data, &again); err != nil || resp.StatusCode != 200 || again.State != JobCanceled {
		t.Fatalf("re-cancel: status=%d err=%v view=%+v", resp.StatusCode, err, again)
	}
}

// TestQueueFullRejects drives the bounded queue to capacity with no
// workers draining it (the server is assembled by hand), so the
// overflow 503 is deterministic.
func TestQueueFullRejects(t *testing.T) {
	s := newIdleServer(t, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustRegister(t, s, "g", false, testEdges(50, 200, 5, 5))

	body := map[string]any{"graph": "g", "objective": "Undirected", "backend": "Peel", "eps": 0.5}
	resp1, _ := doJSON(t, http.MethodPost, ts.URL+"/jobs", body)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first job should queue: %d", resp1.StatusCode)
	}
	resp2, data := doJSON(t, http.MethodPost, ts.URL+"/jobs", body)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second job should overflow the depth-1 queue: %d (%s)", resp2.StatusCode, data)
	}
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil || !strings.Contains(eb.Error, "queue full") {
		t.Fatalf("overflow body should say the queue is full: err=%v %s", err, data)
	}

	// Canceling the queued job settles it without a worker.
	var jv JobView
	resp3, data := doJSON(t, http.MethodDelete, ts.URL+"/jobs/j1", nil)
	if err := json.Unmarshal(data, &jv); err != nil || resp3.StatusCode != 200 || jv.State != JobCanceled {
		t.Fatalf("canceling a queued job: status=%d err=%v view=%+v", resp3.StatusCode, err, jv)
	}
}

// TestEnqueueAfterClose: a request that passed prepare before Close and
// reaches enqueue after Close drained the queue lands in a queue no
// worker reads. enqueue must settle it as Close settles the jobs it
// drains — canceled, 503 — instead of leaving it queued forever.
func TestEnqueueAfterClose(t *testing.T) {
	s := New(Config{Workers: 1})
	mustRegister(t, s, "g", false, testEdges(50, 200, 5, 5))
	j, cached, _, herr := s.prepare(SolveRequest{
		Graph:   "g",
		Problem: ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.5},
	})
	if herr != nil || j == nil || cached != nil {
		t.Fatalf("prepare: job=%v cached=%d herr=%v", j != nil, len(cached), herr)
	}
	s.Close()
	if herr := s.enqueue(j); herr == nil || herr.status != http.StatusServiceUnavailable {
		t.Fatalf("enqueue after Close: %v, want a 503", herr)
	}
	select {
	case <-j.done:
	case <-time.After(time.Second):
		t.Fatal("job enqueued after Close never finished")
	}
	j.mu.Lock()
	state, status := j.state, j.status
	j.mu.Unlock()
	if state != JobCanceled || status != http.StatusServiceUnavailable {
		t.Fatalf("job enqueued after Close: state=%s status=%d, want canceled/503", state, status)
	}
}

// newIdleServer assembles a Server whose worker pool never starts, so
// queued jobs stay queued until canceled.
func newIdleServer(t *testing.T, queueDepth int) *Server {
	t.Helper()
	cfg := Config{QueueDepth: queueDepth}
	cfg.normalize()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		cache:    newResultCache(cfg.CacheEntries),
		metrics:  newMetrics(),
		jobs:     newJobTable(cfg.MaxJobs),
		queue:    make(chan *job, cfg.QueueDepth),
	}
	s.base, s.stop = context.WithCancel(context.Background())
	t.Cleanup(s.Close)
	return s
}

func TestConcurrentSolvesSharedGraph(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	mustRegister(t, s, "g", false, testEdges(800, 5000, 20, 6))

	problems := []map[string]any{
		{"graph": "g", "objective": "Undirected", "backend": "Peel", "eps": 0.1},
		{"graph": "g", "objective": "Undirected", "backend": "Stream", "eps": 0.1},
		{"graph": "g", "objective": "Greedy", "backend": "Peel"},
		{"graph": "g", "objective": "AtLeastK", "backend": "Peel", "eps": 0.25, "k": 50},
	}
	const perProblem = 6
	results := make([][]byte, len(problems)*perProblem)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := problems[i%len(problems)]
			resp, data := concurrentPost(ts.URL+"/solve", p)
			if resp == nil || resp.StatusCode != 200 {
				status := -1
				if resp != nil {
					status = resp.StatusCode
				}
				results[i] = []byte(fmt.Sprintf("ERROR status=%d body=%s", status, data))
				return
			}
			results[i] = data
		}(i)
	}
	wg.Wait()
	for i := range results {
		if bytes.HasPrefix(results[i], []byte("ERROR")) {
			t.Fatalf("request %d failed: %s", i, results[i])
		}
		if j := i % len(problems); !bytes.Equal(results[i], results[j]) {
			t.Fatalf("concurrent solves of the same problem differ (%d vs %d)", i, j)
		}
	}
}

func concurrentPost(url string, body any) (*http.Response, []byte) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, []byte(err.Error())
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, []byte(err.Error())
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, []byte(err.Error())
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(data), "ok") {
		t.Fatalf("healthz: status=%d body=%s", resp.StatusCode, data)
	}
}

// TestMetricsMapReduceFaults proves MapReduce fault-tolerance events
// surface in /metrics: a server whose cluster config injects failures
// (and checkpoints every round) reports the recovered work in the
// mapReduce gauge block, and the solve's result is still bit-identical
// to one from an undisturbed server.
func TestMetricsMapReduceFaults(t *testing.T) {
	edges := testEdges(300, 1500, 15, 3)
	body := map[string]any{"graph": "g", "objective": "Undirected", "backend": "MapReduce", "eps": 0.5}

	clean, cleanTS := newTestServer(t, Config{Workers: 1})
	mustRegister(t, clean, "g", false, edges)
	respC, dataC := doJSON(t, http.MethodPost, cleanTS.URL+"/solve", body)
	if respC.StatusCode != 200 {
		t.Fatalf("clean solve: status=%d body=%s", respC.StatusCode, dataC)
	}

	faulty, faultyTS := newTestServer(t, Config{Workers: 1, MapReduce: ds.MRConfig{
		Mappers: 2, Reducers: 2,
		Failures:        &ds.MRFailurePlan{Seed: 11, MapRate: 0.2, ReduceRate: 0.2, Speculate: true},
		CheckpointEvery: 1, CheckpointDir: t.TempDir(),
	}})
	mustRegister(t, faulty, "g", false, edges)
	respF, dataF := doJSON(t, http.MethodPost, faultyTS.URL+"/solve", body)
	if respF.StatusCode != 200 {
		t.Fatalf("faulty solve: status=%d body=%s", respF.StatusCode, dataF)
	}

	var solC, solF ds.Solution
	if err := json.Unmarshal(dataC, &solC); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dataF, &solF); err != nil {
		t.Fatal(err)
	}
	if solF.Density != solC.Density || !reflect.DeepEqual(solF.Set, solC.Set) {
		t.Fatal("fault-injected server returned a different solution")
	}
	if solF.MRFaults == nil || solF.MRFaults.MapTaskReruns+solF.MRFaults.ReduceReruns == 0 {
		t.Fatalf("solution carries no fault counters: %s", dataF)
	}

	_, mdata := doJSON(t, http.MethodGet, faultyTS.URL+"/metrics", nil)
	var mv MetricsView
	if err := json.Unmarshal(mdata, &mv); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	mr := mv.MapReduce
	if mr == nil || mr.Solves != 1 {
		t.Fatalf("metrics lack the mapReduce block: %s", mdata)
	}
	if mr.MapTaskReruns != solF.MRFaults.MapTaskReruns || mr.ReduceReruns != solF.MRFaults.ReduceReruns ||
		mr.SpeculativeWins+mr.SpeculativeLosses != mr.MapTaskReruns+mr.ReduceReruns ||
		mr.CheckpointsWritten == 0 || mr.CheckpointBytes == 0 {
		t.Fatalf("mapReduce gauges do not match the solve: %s", mdata)
	}

	// The undisturbed server still counts the solve, with zero events.
	_, mdataC := doJSON(t, http.MethodGet, cleanTS.URL+"/metrics", nil)
	var mvC MetricsView
	if err := json.Unmarshal(mdataC, &mvC); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	if mvC.MapReduce == nil || mvC.MapReduce.Solves != 1 || mvC.MapReduce.MapTaskReruns != 0 {
		t.Fatalf("clean server mapReduce block wrong: %s", mdataC)
	}
}

// TestEdgeRowsRejectNonIntegerIDs checks that an append decodes its
// JSON edge rows as registration does: a row with a non-integer node
// id gets the registration's 400 and error text, on a static and on a
// dynamic graph, and leaves the graph's version and edge count as they
// were.
func TestEdgeRowsRejectNonIntegerIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SolveWorkers: 2})
	seed := [][]float64{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	for _, kind := range []struct {
		name string
		spec map[string]any
	}{
		{"static", map[string]any{"edges": seed}},
		{"dynamic", map[string]any{"edges": seed, "dynamic": true, "eps": 0.5}},
	} {
		resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/"+kind.name, kind.spec)
		var before GraphInfo
		if err := json.Unmarshal(data, &before); err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: PUT: status=%d err=%v body=%s", kind.name, resp.StatusCode, err, data)
		}
		for _, row := range [][]float64{{1.5, 2}, {-0.5, 3}, {2, 3.9}, {0.7, 2.2}} {
			rows := [][]float64{row}
			putResp, putData := doJSON(t, http.MethodPut, ts.URL+"/graphs/reject", map[string]any{"edges": rows})
			var putErr ErrorBody
			if err := json.Unmarshal(putData, &putErr); err != nil || putResp.StatusCode != 400 ||
				!strings.Contains(putErr.Error, "node ids must be integers") {
				t.Fatalf("%v: PUT: status=%d body=%s", row, putResp.StatusCode, putData)
			}
			appResp, appData := doJSON(t, http.MethodPost, ts.URL+"/graphs/"+kind.name+"/edges", map[string]any{"edges": rows})
			var appErr ErrorBody
			if err := json.Unmarshal(appData, &appErr); err != nil || appResp.StatusCode != 400 || appErr.Error != putErr.Error {
				t.Fatalf("%s %v: append: status=%d body=%s, want 400 with %q", kind.name, row, appResp.StatusCode, appData, putErr.Error)
			}
			_, infoData := doJSON(t, http.MethodGet, ts.URL+"/graphs/"+kind.name, nil)
			var after GraphInfo
			if err := json.Unmarshal(infoData, &after); err != nil {
				t.Fatal(err)
			}
			if after.Version != before.Version || after.Edges != before.Edges {
				t.Fatalf("%s %v: rejected append moved the graph from %+v to %+v", kind.name, row, before, after)
			}
		}
	}
}

// TestRegisterRejectsNodesOutOfRange checks that a declared node count
// outside [0, 2^31-1], from the query or the JSON body, on a static or
// a dynamic registration, is a 400 naming the value instead of a count
// wrapped through int32.
func TestRegisterRejectsNodesOutOfRange(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SolveWorkers: 2})
	edges := [][]float64{{0, 1}}
	for _, tc := range []struct {
		query string
		spec  map[string]any
		value string
	}{
		{"?nodes=4294967301", map[string]any{"edges": edges}, "4294967301"},
		{"?nodes=3000000000", map[string]any{"edges": edges}, "3000000000"},
		{"?nodes=-1", map[string]any{"edges": edges}, "-1"},
		{"", map[string]any{"edges": edges, "nodes": 2147483648.0}, "2147483648"},
		{"", map[string]any{"edges": edges, "nodes": -7}, "-7"},
		{"?dynamic=1&nodes=3000000000", map[string]any{"edges": edges}, "3000000000"},
		{"", map[string]any{"edges": edges, "dynamic": true, "nodes": 4294967301.0}, "4294967301"},
	} {
		resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/n"+tc.query, tc.spec)
		var body ErrorBody
		if err := json.Unmarshal(data, &body); err != nil || resp.StatusCode != 400 || !strings.Contains(body.Error, tc.value) {
			t.Errorf("%s %v: status=%d body=%s, want 400 naming %s", tc.query, tc.spec, resp.StatusCode, data, tc.value)
		}
	}
	// The largest id space still registers.
	resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/n?nodes=2147483647", map[string]any{"edges": edges})
	var info GraphInfo
	if err := json.Unmarshal(data, &info); err != nil || resp.StatusCode != 200 || info.Nodes != 2147483647 {
		t.Fatalf("nodes=2147483647: status=%d body=%s", resp.StatusCode, data)
	}
}

// TestAppendBodyIsEdgesOnly checks what an append body may hold. A
// registration field in a JSON append is a 400 that names the field,
// and a body with no edges (JSON or text, plain or ?op=delete) is a
// no-op: 200 with the graph's GraphInfo unchanged and, on a static
// graph, its cached results kept. A delete on a static graph stays a
// 400 whatever its body.
func TestAppendBodyIsEdgesOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, SolveWorkers: 2})
	mustRegister(t, s, "static", false, testEdges(200, 800, 10, 3))
	seed := [][]float64{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	if resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/dynamic", map[string]any{"edges": seed, "dynamic": true, "eps": 0.5}); resp.StatusCode != 200 {
		t.Fatalf("PUT dynamic: status=%d body=%s", resp.StatusCode, data)
	}
	info := func(name string) GraphInfo {
		t.Helper()
		_, data := doJSON(t, http.MethodGet, ts.URL+"/graphs/"+name, nil)
		var gi GraphInfo
		if err := json.Unmarshal(data, &gi); err != nil {
			t.Fatal(err)
		}
		return gi
	}
	post := func(url, contentType, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(url, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	solve := map[string]any{"graph": "static", "objective": "Undirected", "backend": "Peel", "eps": 0.5}
	doJSON(t, http.MethodPost, ts.URL+"/solve", solve) // warm the cache

	for _, tc := range []struct {
		query, contentType, body string
		status                   int
		want                     string // text the error must contain
	}{
		{"", "application/json", `{"path":"/nonexistent","nodes":5000000000}`, 400, `"path"`},
		{"", "application/json", `{"edges":[[0,1]],"path":"/nonexistent"}`, 400, `"path"`},
		{"", "application/json", `{"edges":[[0,1]],"nodes":5000000000}`, 400, `"nodes"`},
		{"", "application/json", `{"edges":[[0,1]],"directed":true}`, 400, `"directed"`},
		{"", "application/json", `{"edges":[[0,1]],"weighted":true}`, 400, `"weighted"`},
		{"", "application/json", `{"edges":[[0,1]],"dynamic":true}`, 400, `"dynamic"`},
		{"", "application/json", `{"edges":[]}`, 200, ""},
		{"", "application/json", `{}`, 200, ""},
		{"", "text/plain", "", 200, ""},
		{"", "text/plain", "# nothing but a comment\n", 200, ""},
		{"?op=delete", "application/json", `{"edges":[]}`, 200, ""},
		{"?op=delete", "text/plain", "", 200, ""},
	} {
		for _, name := range []string{"static", "dynamic"} {
			label := fmt.Sprintf("%s%s %s %q", name, tc.query, tc.contentType, tc.body)
			before := info(name)
			status, want := tc.status, tc.want
			if name == "static" && tc.query == "?op=delete" {
				status, want = 400, "not dynamic"
			}
			resp, data := post(ts.URL+"/graphs/"+name+"/edges"+tc.query, tc.contentType, tc.body)
			if resp.StatusCode != status {
				t.Fatalf("%s: status=%d body=%s, want %d", label, resp.StatusCode, data, status)
			}
			if status == 200 {
				var got GraphInfo
				if err := json.Unmarshal(data, &got); err != nil || got != before {
					t.Fatalf("%s: reply %s, want the unchanged %+v", label, data, before)
				}
			} else {
				var eb ErrorBody
				if err := json.Unmarshal(data, &eb); err != nil || !strings.Contains(eb.Error, want) {
					t.Fatalf("%s: body=%s, want an error naming %s", label, data, want)
				}
			}
			if after := info(name); after != before {
				t.Fatalf("%s: graph moved from %+v to %+v", label, before, after)
			}
		}
		if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/solve", solve); resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("%s %q: the static graph's cached result was dropped", tc.query, tc.body)
		}
	}
}
