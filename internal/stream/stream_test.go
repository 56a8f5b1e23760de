package stream

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"densestream/internal/core"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

// ErrInjected is the failure produced by FaultStream, for tests that
// exercise mid-pass stream failures.
var ErrInjected = errors.New("stream: injected failure")

// FaultStream wraps an EdgeStream and fails after FailAfter successful
// Next calls (counted across passes). FailAfter < 0 disables the fault.
type FaultStream struct {
	Inner     EdgeStream
	FailAfter int
	served    int
}

// NumNodes implements EdgeStream.
func (f *FaultStream) NumNodes() int { return f.Inner.NumNodes() }

// Reset implements EdgeStream.
func (f *FaultStream) Reset() error { return f.Inner.Reset() }

// Next implements EdgeStream.
func (f *FaultStream) Next() (Edge, error) {
	if f.FailAfter >= 0 && f.served >= f.FailAfter {
		return Edge{}, ErrInjected
	}
	e, err := f.Inner.Next()
	if err == nil {
		f.served++
	}
	return e, err
}

func TestSliceStreamBasics(t *testing.T) {
	s, err := NewSliceStream(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		count := 0
		for {
			_, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			count++
		}
		if count != 2 {
			t.Fatalf("pass %d: %d edges", pass, count)
		}
	}
}

func TestSliceStreamValidation(t *testing.T) {
	if _, err := NewSliceStream(2, []Edge{{U: 0, V: 5}}); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("range: %v", err)
	}
	if _, err := NewSliceStream(2, []Edge{{U: 1, V: 1}}); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("self loop: %v", err)
	}
}

func TestFromUndirectedAndDirected(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	s := FromUndirected(g)
	if s.NumNodes() != 3 {
		t.Fatalf("n = %d", s.NumNodes())
	}
	count := 0
	for {
		if _, err := s.Next(); err == io.EOF {
			break
		}
		count++
	}
	if count != 3 {
		t.Fatalf("undirected stream yielded %d edges", count)
	}
	dg := graph.MustFromDirectedEdges(3, [][2]int32{{0, 1}, {1, 0}, {1, 2}})
	ds := FromDirected(dg)
	count = 0
	for {
		if _, err := ds.Next(); err == io.EOF {
			break
		}
		count++
	}
	if count != 3 {
		t.Fatalf("directed stream yielded %d edges", count)
	}
}

func TestFileStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	content := "# comment\n0 1\n1 2\n\n2 2\n2 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.NumNodes() != 4 {
		t.Fatalf("n = %d, want 4", fs.NumNodes())
	}
	for pass := 0; pass < 2; pass++ {
		if err := fs.Reset(); err != nil {
			t.Fatal(err)
		}
		var edges []Edge
		for {
			e, err := fs.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			edges = append(edges, e)
		}
		if len(edges) != 3 { // self loop "2 2" skipped
			t.Fatalf("pass %d: %d edges, want 3", pass, len(edges))
		}
	}
}

func TestFileStreamErrors(t *testing.T) {
	if _, err := OpenFileStream("/nonexistent/file"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("0 1\nnot-a-number x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStream(bad); err == nil {
		t.Fatal("malformed file accepted")
	}
	short := filepath.Join(dir, "short.txt")
	if err := os.WriteFile(short, []byte("0 1\nonlyone\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStream(short); err == nil {
		t.Fatal("one-field line accepted")
	}
	neg := filepath.Join(dir, "neg.txt")
	if err := os.WriteFile(neg, []byte("0 -1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStream(neg); err == nil {
		t.Fatal("negative id accepted")
	}
}

func sortedCopy(s []int32) []int32 {
	out := make([]int32, len(s))
	copy(out, s)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameSet(a, b []int32) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// workerCounts are the scan fan-outs every engine test runs at: one
// shard, and several.
var workerCounts = []int{1, 4}

// seqStream hides a stream's BlockShards method, so the scan reads it
// as one shard in stream order.
type seqStream struct{ EdgeStream }

// seqWeightedStream hides BlockShards the same way.
type seqWeightedStream struct{ WeightedEdgeStream }

// The streaming scan must agree exactly with the in-memory reference
// implementation.
func TestStreamingMatchesInMemoryUndirected(t *testing.T) {
	f := func(seed int64) bool {
		g, err := gen.Gnm(40, 120, seed)
		if err != nil {
			return false
		}
		for _, eps := range []float64{0, 0.5, 1.5} {
			ref, err := core.Undirected(g, eps, core.Opts{Workers: 1})
			if err != nil {
				return false
			}
			for _, w := range workerCounts {
				got, err := Undirected(FromUndirected(g), eps, core.Opts{Workers: w})
				if err != nil {
					return false
				}
				if ref.Density != got.Density || ref.Passes != got.Passes || !sameSet(ref.Set, got.Set) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingMatchesInMemoryDirected(t *testing.T) {
	f := func(seed int64) bool {
		g, err := gen.GnmDirected(30, 120, seed)
		if err != nil {
			return false
		}
		for _, c := range []float64{0.5, 1, 2} {
			ref, err := core.Directed(g, c, 0.5, core.Opts{Workers: 1})
			if err != nil {
				return false
			}
			for _, w := range workerCounts {
				got, err := Directed(FromDirected(g), c, 0.5, core.Opts{Workers: w})
				if err != nil {
					return false
				}
				if ref.Density != got.Density || ref.Passes != got.Passes {
					return false
				}
				if !sameSet(ref.S, got.S) || !sameSet(ref.T, got.T) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingUndirectedFromFile(t *testing.T) {
	g, err := gen.ChungLu(300, 1200, 2.2, 23)
	if err != nil {
		t.Fatal(err)
	}
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

	ref, err := core.Undirected(g, 1, core.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		fs, err := OpenFileStream(path)
		if err != nil {
			t.Fatal(err)
		}
		// The file may have fewer trailing nodes if high ids are
		// isolated; peel via the file and compare densities with the
		// in-memory run.
		got, err := Undirected(fs, 1, core.Opts{Workers: w})
		fs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Density-ref.Density) > 1e-9 {
			t.Fatalf("workers=%d: file density %v != in-memory %v", w, got.Density, ref.Density)
		}
	}
}

func TestStreamingValidation(t *testing.T) {
	s, _ := NewSliceStream(2, []Edge{{U: 0, V: 1}})
	empty, _ := NewSliceStream(0, nil)
	for _, w := range workerCounts {
		o := core.Opts{Workers: w}
		if _, err := Undirected(s, -1, o); err == nil {
			t.Fatal("negative eps accepted")
		}
		if _, err := UndirectedSketched(s, 1, nil, o); err == nil {
			t.Fatal("nil counter accepted")
		}
		if _, err := Undirected(empty, 1, o); !errors.Is(err, graph.ErrEmptyGraph) {
			t.Fatalf("empty: %v", err)
		}
		if _, err := Directed(s, 0, 1, o); err == nil {
			t.Fatal("c=0 accepted")
		}
		if _, err := Directed(s, 1, -1, o); err == nil {
			t.Fatal("negative eps accepted for directed")
		}
		if _, err := Directed(empty, 1, 1, o); !errors.Is(err, graph.ErrEmptyGraph) {
			t.Fatalf("empty directed: %v", err)
		}
		if _, err := DirectedSweep(s, 1, 1, o); err == nil {
			t.Fatal("delta=1 accepted")
		}
		if _, err := DirectedSweep(empty, 2, 1, o); !errors.Is(err, graph.ErrEmptyGraph) {
			t.Fatalf("empty sweep: %v", err)
		}
	}
}

func TestStreamingFaultMidPass(t *testing.T) {
	g, _ := gen.Gnm(50, 150, 3)
	for _, w := range workerCounts {
		inner := FromUndirected(g)
		if inner.NumNodes() != 50 {
			t.Fatalf("n = %d", inner.NumNodes())
		}
		faulty := &FaultStream{Inner: inner, FailAfter: 50} // fails mid-pass 1
		_, err := Undirected(faulty, 1, core.Opts{Workers: w})
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("workers=%d: want injected failure, got %v", w, err)
		}
	}
}

func TestStreamingOutOfRangeEdgeRejected(t *testing.T) {
	// A stream that lies about NumNodes: edge ids beyond n must error,
	// not corrupt state.
	bad := &FaultStream{Inner: &fakeStream{n: 2, edges: []Edge{{U: 0, V: 5}}}, FailAfter: -1}
	for _, w := range workerCounts {
		o := core.Opts{Workers: w}
		if _, err := Undirected(bad, 1, o); !errors.Is(err, graph.ErrNodeRange) {
			t.Fatalf("got %v", err)
		}
		if _, err := Directed(bad, 1, 1, o); !errors.Is(err, graph.ErrNodeRange) {
			t.Fatalf("directed got %v", err)
		}
	}
}

type fakeStream struct {
	n     int
	edges []Edge
	pos   int
}

func (f *fakeStream) NumNodes() int { return f.n }
func (f *fakeStream) Reset() error  { f.pos = 0; return nil }
func (f *fakeStream) Next() (Edge, error) {
	if f.pos >= len(f.edges) {
		return Edge{}, io.EOF
	}
	e := f.edges[f.pos]
	f.pos++
	return e, nil
}
