package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"densestream/internal/core"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

// writeGraphFile dumps g as an edge-list file and returns its path.
func writeGraphFile(t *testing.T, g *graph.Undirected) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteUndirected(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func sameResult(a, b *core.Result) bool {
	if a.Density != b.Density || a.Passes != b.Passes || !sameSet(a.Set, b.Set) {
		return false
	}
	return true
}

// TestFileStreamShardedParity checks the sharded file scan returns
// bit-identical results to the sequential file scan (the stream read
// as one shard through its own cursor) for every worker count — the
// disk-input analogue of TestUndirectedParallelMatchesSequential.
func TestFileStreamShardedParity(t *testing.T) {
	g, err := gen.ChungLu(500, 3000, 2.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := writeGraphFile(t, g)

	fsSeq, err := OpenFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fsSeq.Close()
	want, err := Undirected(seqStream{fsSeq}, 0.5, core.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3, 4, 8} {
		fs, err := OpenFileStream(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Undirected(fs, 0.5, core.Opts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameResult(got, want) {
			t.Fatalf("workers=%d: density %v passes %d |S|=%d, want %v/%d/%d",
				workers, got.Density, got.Passes, len(got.Set), want.Density, want.Passes, len(want.Set))
		}
		if fs.BytesScanned() == 0 {
			t.Fatalf("workers=%d: BytesScanned = 0 after a sharded run", workers)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileStreamShardedDirected is the directed analogue, streaming the
// file as U→V edges.
func TestFileStreamShardedDirected(t *testing.T) {
	g, err := gen.ChungLu(300, 1500, 2.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	path := writeGraphFile(t, g)

	fs, err := OpenFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	want, err := Directed(seqStream{fs}, 1, 0.5, core.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		fs2, err := OpenFileStream(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Directed(fs2, 1, 0.5, core.Opts{Workers: workers})
		fs2.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Density != want.Density || got.Passes != want.Passes ||
			!sameSet(got.S, want.S) || !sameSet(got.T, want.T) {
			t.Fatalf("workers=%d: directed file parity broken", workers)
		}
	}
}

// TestAtLeastKParallelParity checks the sharded AtLeastK scan matches
// the sequential one-shard scan exactly, on both in-memory and file
// streams.
func TestAtLeastKParallelParity(t *testing.T) {
	g, err := gen.ChungLu(400, 2400, 2.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 40, 150} {
		want, err := AtLeastK(seqStream{FromUndirected(g)}, k, 0.5, core.Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := AtLeastK(FromUndirected(g), k, 0.5, core.Opts{Workers: workers})
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			if !sameResult(got, want) {
				t.Fatalf("k=%d workers=%d: parallel AtLeastK diverged", k, workers)
			}
		}
	}
	// Disk input.
	path := writeGraphFile(t, g)
	fs, err := OpenFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	want, err := AtLeastK(seqStream{fs}, 40, 0.5, core.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AtLeastK(fs, 40, 0.5, core.Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Fatal("file AtLeastK parallel diverged from sequential")
	}
}

// TestWeightedParallelWorkerParity checks the weighted scan is
// bit-identical across worker counts (its fixed-lane contract) on slice
// and file streams, and agrees with the sequential one-shard scan on
// dyadic weights (whose float sums are exact in any order).
func TestWeightedParallelWorkerParity(t *testing.T) {
	g, err := gen.Gnm(200, 1200, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(g.NumNodes())
	i := 0
	g.Edges(func(u, v int32, _ float64) bool {
		i++
		return b.AddWeightedEdge(u, v, 0.25*float64(1+i%8)) == nil
	})
	wg, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}

	seq, err := UndirectedWeighted(seqWeightedStream{FromUndirectedWeighted(wg)}, 0.5, core.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var first *core.Result
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := UndirectedWeighted(FromUndirectedWeighted(wg), 0.5, core.Opts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("workers=%d: weighted parallel not worker-invariant", workers)
		}
		if !sameResult(got, seq) {
			t.Fatalf("workers=%d: dyadic weights should match the sequential scan exactly", workers)
		}
	}

	// Disk input, CRLF + no trailing newline to exercise the resync.
	path := filepath.Join(t.TempDir(), "w.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	wrote := 0
	wg.Edges(func(u, v int32, w float64) bool {
		wrote++
		sep := "\r\n"
		if int64(wrote) == wg.NumEdges() {
			sep = "" // last line unterminated
		}
		_, err := fmt.Fprintf(f, "%d %d %g%s", u, v, w, sep)
		return err == nil
	})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ws, err := OpenWeightedFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	got, err := UndirectedWeighted(ws, 0.5, core.Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, seq) {
		t.Fatalf("weighted file parallel: density %v passes %d, want %v/%d",
			got.Density, got.Passes, seq.Density, seq.Passes)
	}
}

// TestFileStreamCloseIdempotent covers the Close/Reset contract: Close
// twice is fine, Reset and BlockShards afterwards error instead of silently
// reopening.
func TestFileStreamCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	fs.BlockShards(3)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := fs.Reset(); err == nil {
		t.Fatal("Reset after Close succeeded")
	}
	shards := fs.BlockShards(3)
	if len(shards) == 0 {
		t.Fatal("no shards")
	}
	if err := shards[0].Reset(); err == nil {
		t.Fatal("shard Reset after Close succeeded")
	}

	ws, err := OpenWeightedFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	ws.BlockShards(2)
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatalf("second weighted Close: %v", err)
	}
	if err := ws.Reset(); err == nil {
		t.Fatal("weighted Reset after Close succeeded")
	}
	weightedShards := ws.BlockShards(2)
	if err := weightedShards[0].Reset(); err == nil {
		t.Fatal("weighted shard Reset after Close succeeded")
	}
}

// TestFileStreamParserEdgeCases peels files with CRLF endings, blank
// and comment lines, a missing trailing newline, and shard boundaries
// forced mid-line, checking the sharded scan sees exactly the
// sequential edge set.
func TestFileStreamParserEdgeCases(t *testing.T) {
	content := "# header\r\n0 1\r\n\r\n1 2\n% mid comment\n2 3\r\n3 4\n4 0\n0 2\n2 2\n1 3"
	path := filepath.Join(t.TempDir(), "edge.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.NumNodes() != 5 {
		t.Fatalf("n = %d, want 5", fs.NumNodes())
	}
	want, err := Undirected(seqStream{fs}, 0.5, core.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Many shard counts: with a ~10-line file every boundary lands
	// mid-line somewhere in this sweep.
	for workers := 2; workers <= 9; workers++ {
		fs2, err := OpenFileStream(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Undirected(fs2, 0.5, core.Opts{Workers: workers})
		fs2.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameResult(got, want) {
			t.Fatalf("workers=%d: parser edge cases broke shard parity", workers)
		}
	}
}
