package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"densestream/internal/edgeio"
)

// TestBinaryPathIngestParity registers the same graph three ways — from
// a text edge-list file, from its binary columnar conversion, and as a
// text/plain body — and requires identical fingerprints, node and edge
// counts, and bit-identical Solution bodies. The text holds a comment
// and a self loop on a node with other edges, and the binary copy holds
// the self loop too: every route skips it, as the file streams do. A
// self loop in JSON edge rows is still refused, naming the row.
func TestBinaryPathIngestParity(t *testing.T) {
	dir := t.TempDir()
	edges := testEdges(2000, 12000, 25, 3)
	loopAt := len(edges) / 2
	edges = append(edges[:loopAt], append([]Edge{{U: 0, V: 0, W: 1}}, edges[loopAt:]...)...)

	txt := filepath.Join(dir, "g.txt")
	buf := []byte("# a comment line\n")
	for _, e := range edges {
		buf = fmt.Appendf(buf, "%d\t%d\n", e.U, e.V)
	}
	if err := os.WriteFile(txt, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "g.bsg")
	bw, err := edgeio.CreateBinary(bin, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		bw.Append(edgeio.Edge{U: e.U, V: e.V})
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 2})
	routes := []struct {
		name string
		put  func(url string) (*http.Response, []byte)
	}{
		{"text-path", func(url string) (*http.Response, []byte) {
			return doJSON(t, http.MethodPut, url, map[string]any{"path": txt})
		}},
		{"binary-path", func(url string) (*http.Response, []byte) {
			return doJSON(t, http.MethodPut, url, map[string]any{"path": bin})
		}},
		{"text-body", func(url string) (*http.Response, []byte) {
			req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "text/plain")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp, data
		}},
	}
	infos := make([]GraphInfo, len(routes))
	bodies := make([]string, len(routes))
	for i, r := range routes {
		resp, data := r.put(ts.URL + "/graphs/" + r.name)
		if resp.StatusCode != 200 {
			t.Fatalf("PUT %s: status=%d body=%s", r.name, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &infos[i]); err != nil {
			t.Fatalf("decoding %s info: %v", r.name, err)
		}
		req := map[string]any{"graph": r.name, "eps": 0.25, "noCache": true}
		resp, data = doJSON(t, http.MethodPost, ts.URL+"/solve", req)
		if resp.StatusCode != 200 {
			t.Fatalf("solve %s: status=%d body=%s", r.name, resp.StatusCode, data)
		}
		bodies[i] = string(data)
	}
	if infos[0].Edges != len(edges)-1 {
		t.Fatalf("%s: %d edges, want %d without the self loop", routes[0].name, infos[0].Edges, len(edges)-1)
	}
	for i := 1; i < len(routes); i++ {
		if infos[i].Fingerprint != infos[0].Fingerprint || infos[i].Nodes != infos[0].Nodes || infos[i].Edges != infos[0].Edges {
			t.Fatalf("%s registered %+v, %s %+v", routes[i].name, infos[i], routes[0].name, infos[0])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("solution mismatch:\n%s: %s\n%s: %s", routes[i].name, bodies[i], routes[0].name, bodies[0])
		}
	}

	resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/rows", map[string]any{
		"edges": [][]float64{{0, 1}, {1, 1}, {1, 2}},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "edge 1: self loop at node 1") {
		t.Fatalf("JSON rows with a self loop: status=%d body=%s, want a 400 naming row 1", resp.StatusCode, data)
	}
}
