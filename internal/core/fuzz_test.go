package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

// FuzzPeelParity holds the unweighted layout engines (UndirectedOpts,
// AtLeastKOpts) to the reference engines on generated graphs that are
// large enough for CSR compaction: every Result must be
// reflect.DeepEqual to the reference at workers 1, 2 and 3. The inputs
// choose the graph and the run:
//
//   - shape: bit 0 picks G(n,m) over Chung–Lu, bit 1 the 16-entry
//     rebuild grain over graph.CompactGrain (restored after each
//     input), and the upper six bits the Chung–Lu exponent in
//     [1.8, 3.0];
//   - nSel: n in [compactMinNodes, 4·compactMinNodes];
//   - mSel: m/n in [1, 12] (before the generator's dedup);
//   - seed: the generator seed;
//   - epsSel: ε in [0, 4];
//   - kSel: AtLeastK's k in [1, n];
//   - extra: up to 64 extra edges, two little-endian uint16 ids each
//     (mod n; self-loops are skipped).
//
// The checked-in corpus holds inputs where the row-volume rule
// compacts and inputs where a pull keeps the CSR.
func FuzzPeelParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, nSel uint16, mSel uint8, seed int64, epsSel uint16, kSel uint32, extra []byte) {
		g, err := fuzzPeelGraph(shape, nSel, mSel, seed, extra)
		if err != nil {
			t.Fatal(err)
		}
		defer func(grain int64) { graph.CompactGrain = grain }(graph.CompactGrain)
		if shape&2 != 0 {
			graph.CompactGrain = 16
		}
		n := g.NumNodes()
		eps := 4 * float64(epsSel) / 65535
		k := 1 + int(kSel%uint32(n))

		// Every decoded input is valid, so any error is a failure.
		want, err := referenceUndirected(g, eps, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantK, err := referenceAtLeastK(g, k, eps, Opts{Workers: 1})
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
			got, err := UndirectedOpts(g, eps, Opts{Workers: workers})
			check(fmt.Sprintf("Undirected n=%d m=%d eps=%v workers=%d", n, g.NumEdges(), eps, workers), got, err, want)
			got, err = AtLeastKOpts(g, k, eps, Opts{Workers: workers})
			check(fmt.Sprintf("AtLeastK n=%d m=%d k=%d eps=%v workers=%d", n, g.NumEdges(), k, eps, workers), got, err, wantK)
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
