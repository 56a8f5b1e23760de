package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

// FuzzPeelParity holds the layout engines (Undirected, AtLeastK,
// UndirectedWeighted on the same graph with withWeights' id-derived
// weights, and Directed on the same graph oriented by orient) to the
// reference engines on generated graphs that are large enough for the
// weighted engine's CSR compaction: every Result must be
// reflect.DeepEqual to the reference at workers 1, 2 and 3. The inputs
// choose the graph and the run:
//
//   - shape: bit 0 picks G(n,m) over Chung–Lu and the upper six bits
//     the Chung–Lu exponent in [1.8, 3.0]; bit 1 is unused, though the
//     checked-in corpus sets it;
//   - nSel: n in [compactMinNodes, 4·compactMinNodes];
//   - mSel: m/n in [1, 12] (before the generator's dedup);
//   - seed: the generator seed;
//   - epsSel: ε in [0, 4];
//   - kSel: AtLeastK's k in [1, n], and Directed's c = 2^(kSel mod 9 − 4)
//     in [1/16, 16];
//   - extra: up to 64 extra edges, two little-endian uint16 ids each
//     (mod n; self-loops are skipped).
//
// The checked-in corpus holds slow and fast peels of both shapes, with
// and without extra edges; each of its inputs compacts the weighted
// CSR.
func FuzzPeelParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, nSel uint16, mSel uint8, seed int64, epsSel uint16, kSel uint32, extra []byte) {
		g, err := fuzzPeelGraph(shape, nSel, mSel, seed, extra)
		if err != nil {
			t.Fatal(err)
		}
		wg := withWeights(t, g)
		dg, err := orient(g)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		eps := 4 * float64(epsSel) / 65535
		k := 1 + int(kSel%uint32(n))
		c := math.Ldexp(1, int(kSel%9)-4)

		// Every decoded input is valid, so any error is a failure.
		want, err := referenceUndirected(g, eps, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantK, err := referenceAtLeastK(g, k, eps, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantW, err := referenceUndirectedWeighted(wg, eps, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := referenceDirected(dg, c, eps, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, got *Result, err error, want *Result) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: diverged from the reference\ngot  %+v\nwant %+v", label, summarize(got), summarize(want))
			}
		}
		for workers := 1; workers <= 3; workers++ {
			got, err := Undirected(g, eps, Opts{Workers: workers})
			check(fmt.Sprintf("Undirected n=%d m=%d eps=%v workers=%d", n, g.NumEdges(), eps, workers), got, err, want)
			got, err = AtLeastK(g, k, eps, Opts{Workers: workers})
			check(fmt.Sprintf("AtLeastK n=%d m=%d k=%d eps=%v workers=%d", n, g.NumEdges(), k, eps, workers), got, err, wantK)
			got, err = UndirectedWeighted(wg, eps, Opts{Workers: workers})
			check(fmt.Sprintf("UndirectedWeighted n=%d m=%d eps=%v workers=%d", n, g.NumEdges(), eps, workers), got, err, wantW)
			gotD, err := Directed(dg, c, eps, Opts{Workers: workers})
			label := fmt.Sprintf("Directed n=%d m=%d c=%v eps=%v workers=%d", n, dg.NumEdges(), c, eps, workers)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(gotD, wantD) {
				t.Fatalf("%s: diverged from the reference\ngot  {|S|=%d |T|=%d Density=%v Passes=%d}\nwant {|S|=%d |T|=%d Density=%v Passes=%d}",
					label, len(gotD.S), len(gotD.T), gotD.Density, gotD.Passes, len(wantD.S), len(wantD.T), wantD.Density, wantD.Passes)
			}
		}
	})
}

// fuzzPeelGraph decodes FuzzPeelParity's graph inputs.
func fuzzPeelGraph(shape uint8, nSel uint16, mSel uint8, seed int64, extra []byte) (*graph.Undirected, error) {
	n := compactMinNodes + int(nSel)%(3*compactMinNodes+1)
	m := int64(n) + int64(n)*11*int64(mSel)/255
	var base *graph.Undirected
	var err error
	if shape&1 != 0 {
		base, err = gen.Gnm(n, m, seed)
	} else {
		base, err = gen.ChungLu(n, m, 1.8+1.2*float64(shape>>2)/63, seed)
	}
	if err != nil || len(extra) < 4 {
		return base, err
	}
	b := graph.NewBuilder(n)
	base.Edges(func(u, v int32, _ float64) bool {
		err = b.AddEdge(u, v)
		return err == nil
	})
	for i := 0; i+4 <= len(extra) && i < 4*64 && err == nil; i += 4 {
		u := int32(int(binary.LittleEndian.Uint16(extra[i:])) % n)
		v := int32(int(binary.LittleEndian.Uint16(extra[i+2:])) % n)
		if u != v {
			err = b.AddEdge(u, v)
		}
	}
	if err != nil {
		return nil, err
	}
	return b.Freeze()
}

// orient gives each edge {u, v}, u < v, of g one direction: u→v when
// u+v is even and v→u otherwise, so both orientations are common and
// every node keeps a mix of in- and out-edges.
func orient(g *graph.Undirected) (*graph.Directed, error) {
	b := graph.NewDirectedBuilder(g.NumNodes())
	var err error
	g.Edges(func(u, v int32, _ float64) bool {
		if (u+v)%2 != 0 {
			u, v = v, u
		}
		err = b.AddEdge(u, v)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return b.Freeze()
}
