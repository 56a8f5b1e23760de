package stream

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"densestream/internal/core"
	"densestream/internal/graph"
)

func TestWeightedFileStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.txt")
	content := "# weighted\n0 1 2.5\n1 2 0.5\n2 3\n3 3 9\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ws, err := OpenWeightedFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if ws.NumNodes() != 4 {
		t.Fatalf("n = %d", ws.NumNodes())
	}
	for pass := 0; pass < 2; pass++ {
		if err := ws.Reset(); err != nil {
			t.Fatal(err)
		}
		var total float64
		count := 0
		for {
			e, err := ws.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			total += e.Weight
			count++
		}
		if count != 3 { // self loop skipped
			t.Fatalf("pass %d: %d edges", pass, count)
		}
		if math.Abs(total-4.0) > 1e-12 { // 2.5 + 0.5 + 1 (default)
			t.Fatalf("pass %d: total weight %v", pass, total)
		}
	}
}

func TestWeightedFileStreamErrors(t *testing.T) {
	if _, err := OpenWeightedFileStream("/nonexistent"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	for name, content := range map[string]string{
		"badweight.txt": "0 1 -3\n",
		"nanweight.txt": "0 1 xyz\n",
		"short.txt":     "justone\n",
		"badid.txt":     "a b\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenWeightedFileStream(path); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWeightedFileStreamPeelMatchesInMemory(t *testing.T) {
	// A weighted graph on disk peels identically to the in-memory run.
	b := graph.NewBuilder(30)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			_ = b.AddWeightedEdge(int32(i), int32(j), 4)
		}
	}
	for i := 6; i < 29; i++ {
		_ = b.AddWeightedEdge(int32(i), int32(i+1), 0.5)
	}
	_ = b.AddWeightedEdge(5, 6, 0.5)
	g, _ := b.Freeze()

	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteUndirected(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ref, err := core.UndirectedWeighted(g, 0.5, core.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		ws, err := OpenWeightedFileStream(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UndirectedWeighted(ws, 0.5, core.Opts{Workers: w})
		ws.Close()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Density-ref.Density) > 1e-9 || got.Passes != ref.Passes {
			t.Fatalf("workers=%d: file %v/%d vs memory %v/%d", w, got.Density, got.Passes, ref.Density, ref.Passes)
		}
	}
}
