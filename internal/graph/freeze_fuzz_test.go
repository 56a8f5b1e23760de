package graph

import (
	"errors"
	"reflect"
	"testing"

	"densestream/internal/par"
)

// FuzzFreeze builds graphs from arbitrary bytes: data[0] is the node
// count as a signed byte, and every following three bytes are an edge,
// two signed node ids and a weight of byte/10 (0 is a bad weight). The
// edges go through AddEdge or AddWeightedEdge and through the directed
// builder's AddEdge. It checks that every call errs exactly when its
// input is invalid, that a negative node count makes Freeze return
// ErrNodeRange, and that otherwise both frozen graphs validate and
// equal the sort-based reference — a weighted graph with an edge of
// three or more copies in its rows, and in its weights the sums in
// insertion order. A build on three workers with a tiny grain, which
// cuts many pieces, must equal Freeze.
func FuzzFreeze(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		if len(data) == 0 {
			return
		}
		n := int(int8(data[0]))
		b, db := NewBuilder(n), NewDirectedBuilder(n)
		var und, dir []Edge
		for i := 1; i+3 <= len(data); i += 3 {
			u, v, w := int32(int8(data[i])), int32(int8(data[i+1])), float64(data[i+2])/10
			valid := u >= 0 && v >= 0 && int(u) < n && int(v) < n && u != v
			var err error
			if weighted {
				err = b.AddWeightedEdge(u, v, w)
			} else {
				w = 1
				err = b.AddEdge(u, v)
			}
			if (err == nil) != (valid && w > 0) {
				t.Fatalf("AddEdge(%d, %d, %v) on n=%d: err %v", u, v, w, n, err)
			}
			if err == nil {
				und = append(und, Edge{U: min(u, v), V: max(u, v), Weight: w})
			}
			if err := db.AddEdge(u, v); (err == nil) != valid {
				t.Fatalf("directed AddEdge(%d, %d) on n=%d: err %v", u, v, n, err)
			} else if err == nil {
				dir = append(dir, Edge{U: u, V: v})
			}
		}
		g, err := b.Freeze()
		d, derr := db.Freeze()
		if n < 0 {
			if !errors.Is(err, ErrNodeRange) || !errors.Is(derr, ErrNodeRange) {
				t.Fatalf("n=%d: Freeze errors %v and %v, want ErrNodeRange", n, err, derr)
			}
			return
		}
		if err != nil || derr != nil {
			t.Fatalf("Freeze: %v, %v", err, derr)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		weighted = weighted && len(und) > 0
		want := refFreeze(n, und, weighted)
		if len(atMostTwoCopies(und)) == len(und) || !weighted {
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("graph differs from the reference:\n got %+v\nwant %+v", g, want)
			}
		} else {
			if !reflect.DeepEqual(g.offsets, want.offsets) || !reflect.DeepEqual(g.adj, want.adj) || g.m != want.m {
				t.Fatalf("rows differ from the reference:\n got %+v\nwant %+v", g, want)
			}
			checkInsertionOrderSums(t, "weighted", g, und)
		}
		if want := refFreezeDirected(n, dir); !reflect.DeepEqual(d, want) {
			t.Fatalf("directed graph differs from the reference:\n got %+v\nwant %+v", d, want)
		}

		defer func(grain int64) { CompactGrain = grain }(CompactGrain)
		CompactGrain = 4
		pool := par.New(3)
		if got, err := freezeUndirected(pool, n, und, weighted); err != nil || !reflect.DeepEqual(got, g) {
			t.Fatalf("three-worker build differs from Freeze (err %v)", err)
		}
		if got, err := freezeDirected(pool, n, dir); err != nil || !reflect.DeepEqual(got, d) {
			t.Fatalf("three-worker directed build differs from Freeze (err %v)", err)
		}
	})
}
