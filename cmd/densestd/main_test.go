package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"densestream/internal/edgeio"
	"densestream/internal/serve"
)

// TestSmokeParity runs the -smoke mode in-process: one HTTP solve per
// objective × backend, each compared against the in-process Solve.
func TestSmokeParity(t *testing.T) {
	var out bytes.Buffer
	if err := runSmoke(&out, serve.Config{Workers: 2}); err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all 15 objective/backend cases") {
		t.Fatalf("unexpected smoke output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "dynamic ingest path is HTTP/in-process identical") {
		t.Fatalf("smoke output missing dynamic parity:\n%s", out.String())
	}
}

// TestSelfdrive runs a small load-driver pass against a loopback
// daemon and checks it reports throughput.
func TestSelfdrive(t *testing.T) {
	var out bytes.Buffer
	if err := runSelfdrive(&out, serve.Config{Workers: 2}, 32, 4, false); err != nil {
		t.Fatalf("selfdrive failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "qps") {
		t.Fatalf("selfdrive output missing qps:\n%s", out.String())
	}
}

// TestPreloadGraphSpecParsing checks -graph values: a malformed spec
// or a missing file fails, and a BSG1 file loads with the fingerprint
// of the same edges preloaded from text.
func TestPreloadGraphSpecParsing(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()
	if _, err := preloadGraph(s, "noequals"); err == nil {
		t.Fatalf("malformed -graph spec should fail")
	}
	if _, err := preloadGraph(s, "g=/definitely/missing.txt"); err == nil {
		t.Fatalf("missing graph file should fail")
	}
	dir := t.TempDir()
	txt, bin := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.bsg")
	w, err := edgeio.CreateBinary(bin, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, e := range []edgeio.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}} {
		buf = fmt.Appendf(buf, "%d %d\n", e.U, e.V)
		w.Append(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txt, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	ti, err := preloadGraph(s, "text="+txt)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := preloadGraph(s, "g="+bin)
	if err != nil {
		t.Fatalf("-graph g=%s: %v", bin, err)
	}
	if bi.Fingerprint != ti.Fingerprint || bi.Nodes != 4 || bi.Edges != 4 {
		t.Fatalf("BSG1 preload %+v, text preload %+v; want the same 4-node, 4-edge content", bi, ti)
	}
}
