package densestream_test

// Binary-format acceptance sweep: every Solve configuration must return
// bit-identical Solutions whether the input is the text edge list, its
// binary columnar conversion opened by Path, or an open BSG1 source
// handed to Solve as a stream — across worker counts and both the
// stream and MapReduce backends.

import (
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	ds "densestream"
	"densestream/internal/edgeio"
	"densestream/internal/graph"
	"densestream/internal/stream"
)

// writeBinaryEdgeFile dumps an undirected graph as a binary columnar
// file via the public writer.
func writeBinaryEdgeFile(t *testing.T, g *ds.UndirectedGraph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bsg")
	if err := ds.WriteUndirectedBinary(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// binSourceStream adapts one opened BSG1 source into a Sharded
// EdgeStream, so the sweep can hand Solve the source itself beside the
// Path route. Its shards are the source's block shards, so the scan
// reads them a block at a time as it reads a file opened by Path.
type binSourceStream struct {
	src     *edgeio.BinaryFileSource
	weights bool
	seq     *edgeio.BinaryShard
	shards  []edgeio.BlockReader
	shardK  int
}

func newBinSourceStream(src *edgeio.BinaryFileSource) *binSourceStream {
	return &binSourceStream{src: src, seq: src.BlockShards(1, false)[0]}
}

func (s *binSourceStream) NumNodes() int              { return s.src.Nodes() }
func (s *binSourceStream) Reset() error               { return s.seq.Reset() }
func (s *binSourceStream) Next() (stream.Edge, error) { return s.seq.Next() }
func (s *binSourceStream) BytesScanned() int64        { return s.src.BytesScanned() }

func (s *binSourceStream) BlockShards(k int) []edgeio.BlockReader {
	if s.shards == nil || s.shardK != k {
		shards := s.src.BlockShards(k, s.weights)
		s.shards = make([]edgeio.BlockReader, len(shards))
		for i, sh := range shards {
			s.shards[i] = sh
		}
		s.shardK = k
	}
	return s.shards
}

// binSourceWeightedStream is binSourceStream with the weight column.
type binSourceWeightedStream struct {
	*binSourceStream
}

func newBinSourceWeightedStream(src *edgeio.BinaryFileSource) binSourceWeightedStream {
	return binSourceWeightedStream{&binSourceStream{src: src, weights: true, seq: src.BlockShards(1, true)[0]}}
}

// Next is never called: the weighted scan reads a Sharded stream by
// block.
func (s binSourceWeightedStream) Next() (stream.WeightedEdge, error) {
	return stream.WeightedEdge{}, errors.New("binSourceWeightedStream is read by block")
}

// TestOutOfCoreBinaryStreamParity: `-algo stream` must produce the same
// Solution from the resident graph, the text file, the binary file by
// Path, and the binary source as a stream, at every worker count.
func TestOutOfCoreBinaryStreamParity(t *testing.T) {
	for gi, g := range outOfCoreGraphs(t) {
		txt := writeEdgeFile(t, g)
		bin := writeBinaryEdgeFile(t, g)
		var want *ds.Solution
		check := func(label string, sol *ds.Solution) {
			t.Helper()
			got := stripStats(sol)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d %s: Solution differs", gi, label)
			}
		}
		ref := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5, Graph: g}, ds.WithWorkers(1))
		for _, workers := range []int{1, 2, 4, 8} {
			p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5}
			pt, pb := p, p
			pt.Path, pb.Path = txt, bin
			check("text", solveOK(t, pt, ds.WithWorkers(workers)))
			bsol := solveOK(t, pb, ds.WithWorkers(workers))
			if bsol.Stats.BytesScanned == 0 {
				t.Fatalf("graph %d workers=%d: binary BytesScanned not reported", gi, workers)
			}
			check("binary", bsol)

			src, err := edgeio.OpenBinarySource(bin)
			if err != nil {
				t.Fatal(err)
			}
			ps := p
			ps.Edges = newBinSourceStream(src)
			check("binary-source", solveOK(t, ps, ds.WithWorkers(workers)))
		}
		// The resident graph keeps isolated nodes the file routes drop,
		// so compare the algorithmic outcome rather than the whole
		// stripped Solution.
		if want.Density != ref.Density || want.Passes != ref.Passes || !reflect.DeepEqual(want.Set, ref.Set) {
			t.Fatalf("graph %d: file solves differ from the resident stream", gi)
		}
	}
}

// TestOutOfCoreBinaryWeightedParity is the weighted half of the sweep:
// dyadic weights survive the text and binary routes identically.
func TestOutOfCoreBinaryWeightedParity(t *testing.T) {
	g := outOfCoreGraphs(t)[0]
	b := ds.NewBuilder(g.NumNodes())
	i := 0
	g.Edges(func(u, v int32, _ float64) bool {
		i++
		if err := b.AddWeightedEdge(u, v, 0.5*float64(1+i%4)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	wg, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	txt := writeEdgeFile(t, wg)
	bin := writeBinaryEdgeFile(t, wg)
	var want *ds.Solution
	for _, workers := range []int{1, 2, 4, 8} {
		for _, path := range []string{txt, bin} {
			sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendStream, Eps: 0.5, Path: path}, ds.WithWorkers(workers))
			got := stripStats(sol)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d path=%s: weighted Solution differs", workers, filepath.Ext(path))
			}
		}
	}
}

// TestOutOfCoreBinaryMapReduceParity: the MapReduce backend (resident
// and spilling) must agree between the text file and its binary
// conversion bit for bit — the spill path itself stores its runs in the
// same block format.
func TestOutOfCoreBinaryMapReduceParity(t *testing.T) {
	spillDir := t.TempDir()
	for gi, g := range outOfCoreGraphs(t) {
		txt := writeEdgeFile(t, g)
		bin := writeBinaryEdgeFile(t, g)
		var want *ds.Solution
		for ci, cfg := range []ds.MRConfig{
			{Mappers: 4, Reducers: 4},
			{Mappers: 4, Reducers: 4, SpillBytes: 1 << 13, SpillDir: spillDir},
		} {
			for _, path := range []string{txt, bin} {
				sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 0.5, Path: path}, ds.WithMapReduceConfig(cfg))
				got := stripStats(sol)
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("graph %d cfg %d path=%s: MapReduce Solution differs", gi, ci, filepath.Ext(path))
				}
			}
		}
	}
}

// TestOutOfCoreBinarySketchedParity: the sketched backend rides the
// sharded binary scan; by sketch linearity every worker count and both
// disk formats must match the sequential sketched run bit for bit.
func TestOutOfCoreBinarySketchedParity(t *testing.T) {
	g := outOfCoreGraphs(t)[0]
	txt := writeEdgeFile(t, g)
	bin := writeBinaryEdgeFile(t, g)
	cfg := ds.SketchConfig{Tables: 5, Buckets: 256, Seed: 1}
	var want *ds.Solution
	for _, workers := range []int{1, 2, 4, 8} {
		for _, path := range []string{txt, bin} {
			sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStreamSketched, Eps: 0.5, Path: path},
				ds.WithSketch(cfg), ds.WithWorkers(workers))
			if sol.SketchMemoryWords != 5*256 {
				t.Fatalf("workers=%d: SketchMemoryWords=%d, want %d", workers, sol.SketchMemoryWords, 5*256)
			}
			got := stripStats(sol)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d path=%s: sketched Solution differs", workers, filepath.Ext(path))
			}
		}
	}
}

// writeBlockFile writes edges as a BSG1 file of 64-edge blocks, so a
// sweep graph spans about a hundred blocks, and whole blocks of the
// CSR-ordered edges lose their last live edge as the peel advances.
func writeBlockFile(t *testing.T, weighted bool, edges func(yield func(u, v int32, w float64) bool)) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blocks.bsg")
	w, err := edgeio.CreateBinary(path, weighted)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockEdges(64)
	edges(func(u, v int32, wt float64) bool {
		w.AppendWeighted(edgeio.WeightedEdge{U: u, V: v, Weight: wt})
		return true
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// blockBytes is the total size of a BSG1 file's blocks: what one full
// pass that skips nothing scans.
func blockBytes(t *testing.T, path string) int64 {
	t.Helper()
	src, err := edgeio.OpenBinarySource(path)
	if err != nil {
		t.Fatal(err)
	}
	sh := src.Shards(1)[0]
	defer sh.(io.Closer).Close()
	if err := sh.Reset(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := sh.Next(); err == io.EOF {
			return src.BytesScanned()
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOutOfCoreBinaryBlockSkipParity: on multi-block BSG1 files every
// streaming objective (Undirected, AtLeastK, Directed at three ratios,
// weighted and sketched) must return the text route's Solution through
// the Path route and through the BSG1 source handed over as a stream,
// at every worker count, while the scan skips blocks left without a live
// edge. The skip depends on block numbers alone, so BytesScanned is
// the same at every worker count and on every route, and it stays
// below passes × the file's block bytes.
func TestOutOfCoreBinaryBlockSkipParity(t *testing.T) {
	g := outOfCoreGraphs(t)[0]
	b := ds.NewBuilder(g.NumNodes())
	i := 0
	g.Edges(func(u, v int32, _ float64) bool {
		i++
		if err := b.AddWeightedEdge(u, v, 0.5*float64(1+i%4)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	wg, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	dg, err := ds.GenerateChungLuDirected(800, 5000, 2.2, 31)
	if err != nil {
		t.Fatal(err)
	}
	undirected := struct{ txt, bin string }{writeEdgeFile(t, g), writeBlockFile(t, false, g.Edges)}
	weighted := struct{ txt, bin string }{writeEdgeFile(t, wg), writeBlockFile(t, true, wg.Edges)}
	directed := struct{ txt, bin string }{writeDirectedEdgeFile(t, dg), writeBlockFile(t, false, func(yield func(u, v int32, w float64) bool) {
		dg.Edges(func(u, v int32) bool { return yield(u, v, 1) })
	})}
	sketch := ds.WithSketch(ds.SketchConfig{Tables: 5, Buckets: 256, Seed: 1})
	cases := []struct {
		name  string
		files struct{ txt, bin string }
		p     ds.Problem
		opts  []ds.Option
	}{
		{"undirected", undirected, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5}, nil},
		{"atleastk", undirected, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendStream, K: 50, Eps: 0.5}, nil},
		{"sketched", undirected, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStreamSketched, Eps: 0.5}, []ds.Option{sketch}},
		{"weighted", weighted, ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendStream, Eps: 0.5}, nil},
		{"directed-c0.5", directed, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendStream, C: 0.5, Eps: 0.5}, nil},
		{"directed-c1", directed, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendStream, C: 1, Eps: 0.5}, nil},
		{"directed-c2", directed, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendStream, C: 2, Eps: 0.5}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := blockBytes(t, tc.files.bin)
			pt := tc.p
			pt.Path = tc.files.txt
			want := stripStats(solveOK(t, pt, append(tc.opts, ds.WithWorkers(1))...))
			var scanned int64
			check := func(route string, workers int, sol *ds.Solution) {
				t.Helper()
				if !reflect.DeepEqual(stripStats(sol), want) {
					t.Fatalf("%s workers=%d: Solution differs from the text route", route, workers)
				}
				if scanned == 0 {
					scanned = sol.Stats.BytesScanned
					if limit := int64(sol.Passes) * full; scanned <= 0 || scanned >= limit {
						t.Fatalf("%s workers=%d: BytesScanned %d, want in (0, %d): no block was skipped", route, workers, scanned, limit)
					}
				} else if sol.Stats.BytesScanned != scanned {
					t.Fatalf("%s workers=%d: BytesScanned %d, want %d as on every route and worker count", route, workers, sol.Stats.BytesScanned, scanned)
				}
			}
			for _, workers := range []int{1, 2, 4, 8} {
				opts := append(tc.opts, ds.WithWorkers(workers))
				pt := tc.p
				pt.Path = tc.files.txt
				if got := stripStats(solveOK(t, pt, opts...)); !reflect.DeepEqual(got, want) {
					t.Fatalf("text workers=%d: Solution differs from workers=1", workers)
				}
				pb := tc.p
				pb.Path = tc.files.bin
				check("path", workers, solveOK(t, pb, opts...))
				src, err := edgeio.OpenBinarySource(tc.files.bin)
				if err != nil {
					t.Fatal(err)
				}
				ps := tc.p
				if ps.Objective == ds.ObjectiveWeighted {
					ps.WeightedEdges = newBinSourceWeightedStream(src)
				} else {
					ps.Edges = newBinSourceStream(src)
				}
				check("source", workers, solveOK(t, ps, opts...))
			}
		})
	}
}

// selfLoopFile writes a triangle 0-1-2 with a pendant edge 2-3, whose
// node 3 also carries three self loops, as a BSG1 file. BSG1 stores
// edges verbatim, self loops included.
func selfLoopFile(t *testing.T) string {
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 3}, {3, 3}, {3, 3}, {2, 3}}
	return writeBlockFile(t, false, func(yield func(u, v int32, w float64) bool) {
		for _, e := range edges {
			if !yield(e[0], e[1], 1) {
				return
			}
		}
	})
}

// TestOutOfCoreBinarySelfLoops: every stream objective skips a BSG1
// file's self loops, as the in-memory loader does, so on a file with
// self loops it returns BackendPeel's set (or pair) and density. A
// scan that counted them would crown node 3 alone at density 3.
func TestOutOfCoreBinarySelfLoops(t *testing.T) {
	path := selfLoopFile(t)
	sketch := ds.WithSketch(ds.SketchConfig{Tables: 5, Buckets: 256, Seed: 1})
	for _, tc := range []struct {
		p       ds.Problem
		backend ds.Backend
		opts    []ds.Option
	}{
		{p: ds.Problem{Objective: ds.ObjectiveUndirected}, backend: ds.BackendStream},
		{p: ds.Problem{Objective: ds.ObjectiveUndirected}, backend: ds.BackendStreamSketched, opts: []ds.Option{sketch}},
		{p: ds.Problem{Objective: ds.ObjectiveAtLeastK, K: 2}, backend: ds.BackendStream},
		{p: ds.Problem{Objective: ds.ObjectiveWeighted}, backend: ds.BackendStream},
		{p: ds.Problem{Objective: ds.ObjectiveDirected, C: 1}, backend: ds.BackendStream},
		{p: ds.Problem{Objective: ds.ObjectiveDirectedSweep, Delta: 2}, backend: ds.BackendStream},
	} {
		p := tc.p
		p.Eps, p.Path = 0.5, path
		p.Backend = ds.BackendPeel
		want := solveOK(t, p)
		for _, workers := range []int{1, 3} {
			p.Backend = tc.backend
			got := solveOK(t, p, append(tc.opts, ds.WithWorkers(workers))...)
			if got.Density != want.Density || !reflect.DeepEqual(got.Set, want.Set) ||
				!reflect.DeepEqual(got.S, want.S) || !reflect.DeepEqual(got.T, want.T) {
				t.Fatalf("%s/%s workers=%d: set %v S %v T %v density %v, want BackendPeel's %v %v %v %v",
					p.Objective, p.Backend, workers, got.Set, got.S, got.T, got.Density, want.Set, want.S, want.T, want.Density)
			}
		}
	}
}

// TestOutOfCoreBinaryTornInput: a BSG1 file truncated to 4 KiB after
// the first pass of a stream solve ends the solve with an error and no
// Solution, at one worker and at several: the second pass's block reads
// come up short. A reader that touched the file's bytes past its new
// end without a read, as a memory mapping does, dies of SIGBUS instead.
func TestOutOfCoreBinaryTornInput(t *testing.T) {
	g := outOfCoreGraphs(t)[0]
	for _, workers := range []int{1, 4} {
		path := writeBinaryEdgeFile(t, g)
		if st, err := os.Stat(path); err != nil || st.Size() <= 4096 {
			t.Fatalf("test file: %v, %v; want more than 4 KiB", st, err)
		}
		calls := 0
		truncate := ds.WithProgress(func(ds.PassStat) bool {
			if calls++; calls == 2 {
				if err := os.Truncate(path, 4096); err != nil {
					t.Error(err)
				}
			}
			return true
		})
		p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5, Path: path}
		sol, err := ds.Solve(context.Background(), p, truncate, ds.WithWorkers(workers))
		if err == nil || sol != nil || calls < 2 || !strings.Contains(err.Error(), "reading block 0 at offset 16") {
			t.Fatalf("workers=%d: Solve after %d passes = %v, %v; want a short read of block 0 and no Solution", workers, calls, sol, err)
		}
	}
}

// TestOutOfCoreBinaryBadWeights: the weighted stream scan refuses a
// BSG1 weight that is not finite and > 0, as the in-memory loader and
// NewWeightedSliceStream do, with an error that wraps
// graph.ErrBadWeight.
func TestOutOfCoreBinaryBadWeights(t *testing.T) {
	for _, bad := range []float64{-1, 0, math.Inf(1), math.NaN()} {
		path := writeBlockFile(t, true, func(yield func(u, v int32, w float64) bool) {
			for _, e := range []edgeio.WeightedEdge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 2}, {U: 2, V: 0, Weight: 1}, {U: 2, V: 3, Weight: bad}} {
				if !yield(e.U, e.V, e.Weight) {
					return
				}
			}
		})
		for _, backend := range []ds.Backend{ds.BackendPeel, ds.BackendStream} {
			_, err := ds.Solve(context.Background(), ds.Problem{Objective: ds.ObjectiveWeighted, Backend: backend, Eps: 0.5, Path: path})
			if !errors.Is(err, graph.ErrBadWeight) {
				t.Fatalf("weight %v on %s: got %v, want an error wrapping ErrBadWeight", bad, backend, err)
			}
		}
	}
}
