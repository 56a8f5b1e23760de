package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	ds "densestream"
)

// putText registers (or appends to) a graph from a raw text edge list.
func putText(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
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

// TestDynamicGraphHTTP walks the dynamic lifecycle over the wire:
// register with dynamic=true, append, delete edges, read the maintained
// solution, and check the /solve fast path serves it bit-identically to
// a cold solve of the same live edge set.
func TestDynamicGraphHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, SolveWorkers: 2})
	edges := testEdges(60, 300, 10, 3)
	rows := make([][]float64, len(edges))
	for i, e := range edges {
		rows[i] = []float64{float64(e.U), float64(e.V)}
	}

	resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/dyn", map[string]any{
		"dynamic": true, "eps": 0.3, "edges": rows,
	})
	var info GraphInfo
	if err := json.Unmarshal(data, &info); err != nil || resp.StatusCode != 200 {
		t.Fatalf("PUT dynamic graph: status=%d err=%v body=%s", resp.StatusCode, err, data)
	}
	if !info.Dynamic || info.Eps != 0.3 || info.Window != 0 || info.Edges == 0 {
		t.Fatalf("unexpected dynamic info: %+v", info)
	}

	// A static twin of the same live edge set is the parity oracle.
	mustRegister(t, s, "twin", false, dedupEdges(edges))

	checkParity := func(step string) {
		t.Helper()
		respCur, dataCur := doJSON(t, http.MethodGet, ts.URL+"/graphs/dyn/current", nil)
		if respCur.StatusCode != 200 {
			t.Fatalf("%s: GET current: status=%d body=%s", step, respCur.StatusCode, dataCur)
		}
		respCold, dataCold := doJSON(t, http.MethodPost, ts.URL+"/solve", map[string]any{
			"graph": "twin", "objective": "Undirected", "backend": "Peel", "eps": 0.3, "noCache": true,
		})
		if respCold.StatusCode != 200 {
			t.Fatalf("%s: cold solve: status=%d body=%s", step, respCold.StatusCode, dataCold)
		}
		var cur, cold ds.Solution
		if err := json.Unmarshal(dataCur, &cur); err != nil {
			t.Fatalf("%s: decoding current: %v", step, err)
		}
		if err := json.Unmarshal(dataCold, &cold); err != nil {
			t.Fatalf("%s: decoding cold: %v", step, err)
		}
		if !reflect.DeepEqual(cur.Set, cold.Set) || cur.Density != cold.Density ||
			cur.Passes != cold.Passes || !reflect.DeepEqual(cur.Trace, cold.Trace) {
			t.Fatalf("%s: maintained vs cold solve diverge:\n%s\nvs\n%s", step, dataCur, dataCold)
		}
	}
	checkParity("seed")

	// The /solve fast path serves the maintained solution without
	// queueing (reported as a served-without-solve hit).
	respFast, dataFast := doJSON(t, http.MethodPost, ts.URL+"/solve", map[string]any{
		"graph": "dyn", "objective": "Undirected", "backend": "Peel", "eps": 0.3,
	})
	if respFast.StatusCode != 200 || respFast.Header.Get("X-Cache") != "hit" {
		t.Fatalf("fast path: status=%d X-Cache=%q body=%s", respFast.StatusCode, respFast.Header.Get("X-Cache"), dataFast)
	}
	respCur, dataCur := doJSON(t, http.MethodGet, ts.URL+"/graphs/dyn/current", nil)
	if respCur.StatusCode != 200 || strings.TrimSpace(string(dataFast)) != strings.TrimSpace(string(dataCur)) {
		t.Fatalf("fast path differs from /current:\n%s\nvs\n%s", dataFast, dataCur)
	}

	// A non-matching eps falls through to a cold solve of the live set.
	respMiss, dataMiss := doJSON(t, http.MethodPost, ts.URL+"/solve", map[string]any{
		"graph": "dyn", "objective": "Undirected", "backend": "Peel", "eps": 1.5,
	})
	if respMiss.StatusCode != 200 || respMiss.Header.Get("X-Cache") != "miss" {
		t.Fatalf("non-matching eps: status=%d X-Cache=%q body=%s", respMiss.StatusCode, respMiss.Header.Get("X-Cache"), dataMiss)
	}

	// Append a batch to both graphs; parity must hold at the new version.
	batch := [][]float64{{0, 55}, {1, 55}, {2, 55}, {55, 56}, {56, 57}}
	respApp, data := doJSON(t, http.MethodPost, ts.URL+"/graphs/dyn/edges", map[string]any{"edges": batch})
	var after GraphInfo
	if err := json.Unmarshal(data, &after); err != nil || respApp.StatusCode != 200 {
		t.Fatalf("append: status=%d err=%v body=%s", respApp.StatusCode, err, data)
	}
	if after.Version != info.Version+1 || after.Fingerprint == info.Fingerprint {
		t.Fatalf("append did not bump the dynamic descriptor: before=%+v after=%+v", info, after)
	}
	appendTwin(t, s, "twin", batch)
	checkParity("append")

	// At a version with no memoized snapshot, POST /jobs with the
	// maintainer's own Problem is born done from the fast path: its
	// fingerprint is the graph's, and no snapshot gets built for it.
	snapBuilt := func() bool {
		t.Helper()
		e, err := s.Registry().entry("dyn")
		if err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.snap != nil
	}
	if snapBuilt() {
		t.Fatal("append left a memoized snapshot of the dynamic graph")
	}
	respJob, dataJob := doJSON(t, http.MethodPost, ts.URL+"/jobs", map[string]any{
		"graph": "dyn", "objective": "Undirected", "backend": "Peel", "eps": 0.3,
	})
	var jv JobView
	if err := json.Unmarshal(dataJob, &jv); err != nil || respJob.StatusCode != 200 || jv.State != JobDone {
		t.Fatalf("fast-path job: status=%d err=%v body=%s", respJob.StatusCode, err, dataJob)
	}
	respInfo, dataInfo := doJSON(t, http.MethodGet, ts.URL+"/graphs/dyn", nil)
	var cur GraphInfo
	if err := json.Unmarshal(dataInfo, &cur); err != nil || respInfo.StatusCode != 200 {
		t.Fatalf("GET graph: status=%d err=%v body=%s", respInfo.StatusCode, err, dataInfo)
	}
	if jv.Fingerprint != cur.Fingerprint {
		t.Fatalf("fast-path job fingerprint %q, want the graph's %q", jv.Fingerprint, cur.Fingerprint)
	}
	if snapBuilt() {
		t.Fatal("a fast-path POST /jobs built a snapshot of the dynamic graph")
	}

	// Delete the batch again (?op=delete) and re-check parity.
	respDel, data := doJSON(t, http.MethodPost, ts.URL+"/graphs/dyn/edges?op=delete", map[string]any{"edges": batch})
	if respDel.StatusCode != 200 {
		t.Fatalf("delete edges: status=%d body=%s", respDel.StatusCode, data)
	}
	removeTwin(t, s, "twin", edges)
	checkParity("delete")

	// Deletes and /current are dynamic-only.
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/graphs/twin/edges?op=delete", map[string]any{"edges": batch}); resp.StatusCode != 400 {
		t.Fatalf("delete on static graph: want 400, got %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/graphs/twin/current", nil); resp.StatusCode != 400 {
		t.Fatalf("current on static graph: want 400, got %d", resp.StatusCode)
	}

	// Metrics gained the dynamic block.
	_, data = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	var mv MetricsView
	if err := json.Unmarshal(data, &mv); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	if mv.Dynamic == nil {
		t.Fatalf("metrics missing dynamic block: %s", data)
	}
	if mv.Dynamic.Graphs != 1 || mv.Dynamic.Epochs == 0 || mv.Dynamic.Served < 4 ||
		mv.Dynamic.Inserts == 0 || mv.Dynamic.Deletes == 0 || mv.Dynamic.LiveEdges == 0 {
		t.Fatalf("unexpected dynamic metrics: %+v", *mv.Dynamic)
	}
}

// dedupEdges mirrors the maintainer's simple-graph view of an edge
// multiset: one undirected edge per distinct unordered pair.
func dedupEdges(edges []Edge) []Edge {
	seen := make(map[[2]int32]bool)
	var out []Edge
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		out = append(out, Edge{U: u, V: v, W: 1})
	}
	return out
}

// appendTwin adds the batch's new distinct edges to the static twin.
func appendTwin(t *testing.T, s *Server, name string, rows [][]float64) {
	t.Helper()
	var add []Edge
	for _, r := range rows {
		add = append(add, Edge{U: int32(r[0]), V: int32(r[1]), W: 1})
	}
	if _, err := s.Registry().Append(name, add); err != nil {
		t.Fatalf("appending to twin: %v", err)
	}
}

// removeTwin re-registers the twin as the original deduped edge set
// (the delete batch removed exactly the appended edges).
func removeTwin(t *testing.T, s *Server, name string, original []Edge) {
	t.Helper()
	if _, err := s.Registry().Register(name, false, false, dedupEdges(original), 0); err != nil {
		t.Fatalf("re-registering twin: %v", err)
	}
}

// TestDynamicWindowedHTTP registers a windowed dynamic graph from a
// timestamped text body, streams more timestamped edges, and checks the
// window expires old edges while the maintained solution stays live.
func TestDynamicWindowedHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// A triangle at ts 1..3 through a text body with query parameters.
	seed := "0 1 1\n1 2 2\n0 2 3\n"
	resp, _ := putText(t, http.MethodPut, ts.URL+"/graphs/win?dynamic=1&eps=0.5&window=10&buckets=5&nodes=16", seed)
	if resp.StatusCode != 200 {
		t.Fatalf("PUT windowed graph: status=%d", resp.StatusCode)
	}
	respInfo, data := doJSON(t, http.MethodGet, ts.URL+"/graphs/win", nil)
	var info GraphInfo
	if err := json.Unmarshal(data, &info); err != nil || respInfo.StatusCode != 200 {
		t.Fatalf("GET windowed info: status=%d err=%v", respInfo.StatusCode, err)
	}
	if !info.Dynamic || info.Window != 10 || info.Edges != 3 {
		t.Fatalf("unexpected windowed info: %+v", info)
	}

	// A second clique far in the future expires the whole triangle.
	var future strings.Builder
	ts0 := int64(100)
	for i := int32(3); i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			fmt.Fprintf(&future, "%d %d %d\n", i, j, ts0)
			ts0++
		}
	}
	respApp, _ := putText(t, http.MethodPost, ts.URL+"/graphs/win/edges", future.String())
	if respApp.StatusCode != 200 {
		t.Fatalf("append timestamped edges: status=%d", respApp.StatusCode)
	}
	respInfo, data = doJSON(t, http.MethodGet, ts.URL+"/graphs/win", nil)
	if err := json.Unmarshal(data, &info); err != nil || respInfo.StatusCode != 200 {
		t.Fatalf("GET windowed info after append: status=%d err=%v", respInfo.StatusCode, err)
	}
	if info.Edges != 6 {
		t.Fatalf("window did not expire the triangle: %+v", info)
	}

	respCur, dataCur := doJSON(t, http.MethodGet, ts.URL+"/graphs/win/current", nil)
	if respCur.StatusCode != 200 {
		t.Fatalf("GET current: status=%d body=%s", respCur.StatusCode, dataCur)
	}
	var sol ds.Solution
	if err := json.Unmarshal(dataCur, &sol); err != nil {
		t.Fatal(err)
	}
	if want := []int32{3, 4, 5, 6}; !reflect.DeepEqual(sol.Set, want) {
		t.Fatalf("maintained solution %v (density %v), want the live clique %v", sol.Set, sol.Density, want)
	}

	// A non-positive timestamp is rejected; a missing column defaults to
	// ts 1, far behind the watermark, and is dropped as a late arrival.
	if resp, _ := putText(t, http.MethodPost, ts.URL+"/graphs/win/edges", "7 8 0\n"); resp.StatusCode != 400 {
		t.Fatalf("zero timestamp on windowed graph: want 400, got %d", resp.StatusCode)
	}
	if resp, _ := putText(t, http.MethodPost, ts.URL+"/graphs/win/edges", "7 8\n"); resp.StatusCode != 200 {
		t.Fatalf("late append: want 200, got %d", resp.StatusCode)
	}
	respInfo, data = doJSON(t, http.MethodGet, ts.URL+"/graphs/win", nil)
	if err := json.Unmarshal(data, &info); err != nil || info.Edges != 6 {
		t.Fatalf("late arrival was not dropped: err=%v info=%+v", err, info)
	}

	_, data = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	var mv MetricsView
	if err := json.Unmarshal(data, &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Dynamic == nil || mv.Dynamic.Expired == 0 || mv.Dynamic.WindowEdges != 6 {
		t.Fatalf("unexpected windowed metrics: %+v", mv.Dynamic)
	}
}
