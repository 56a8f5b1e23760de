package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// freezeOf builds the reference graph for a live edge set via Freeze.
func freezeOf(t *testing.T, n int, live map[[2]int32]bool) *Undirected {
	t.Helper()
	b := NewBuilder(n)
	for e := range live {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sortedDelta(keys map[[2]int32]bool) []Edge {
	out := make([]Edge, 0, len(keys))
	for k := range keys {
		out = append(out, Edge{U: k[0], V: k[1], Weight: 1})
	}
	slices.SortFunc(out, compareUV)
	return out
}

// TestApplyDeltaMatchesFreeze drives randomized insert/delete churn and
// asserts after every batch that ApplyDelta over the checkpoint equals a
// from-scratch Freeze of the live edge set, field for field — the bit-
// parity the dynamic maintainer's epoch contract rests on.
func TestApplyDeltaMatchesFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 9, 40, 130} {
		live := make(map[[2]int32]bool)
		// Seed ~2n random edges.
		for i := 0; i < 2*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			live[[2]int32{u, v}] = true
		}
		base := freezeOf(t, n, live)
		for batch := 0; batch < 12; batch++ {
			add := make(map[[2]int32]bool)
			del := make(map[[2]int32]bool)
			for i := 0; i < 1+rng.Intn(n); i++ {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				k := [2]int32{u, v}
				if live[k] {
					if !add[k] {
						del[k] = true
					}
				} else if !del[k] {
					add[k] = true
				}
			}
			got, err := base.ApplyDelta(sortedDelta(add), sortedDelta(del))
			if err != nil {
				t.Fatalf("n=%d batch=%d: %v", n, batch, err)
			}
			for k := range add {
				live[k] = true
			}
			for k := range del {
				delete(live, k)
			}
			want := freezeOf(t, n, live)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d batch=%d: ApplyDelta drifted from Freeze\n got: %+v\nwant: %+v", n, batch, got, want)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("n=%d batch=%d: %v", n, batch, err)
			}
			base = got
		}
	}
}

func TestApplyDeltaRejectsBadDeltas(t *testing.T) {
	g := MustFromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	cases := []struct {
		name     string
		add, del []Edge
	}{
		{"add-present", []Edge{{U: 0, V: 1}}, nil},
		{"del-absent", nil, []Edge{{U: 0, V: 3}}},
		{"unsorted", []Edge{{U: 1, V: 3}, {U: 0, V: 2}}, nil},
		{"duplicate", []Edge{{U: 0, V: 2}, {U: 0, V: 2}}, nil},
		{"unnormalized", []Edge{{U: 2, V: 0}}, nil},
		{"self-loop", []Edge{{U: 1, V: 1}}, nil},
		{"out-of-range", []Edge{{U: 0, V: 9}}, nil},
	}
	for _, tc := range cases {
		if _, err := g.ApplyDelta(tc.add, tc.del); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Weighted graphs are rejected.
	b := NewBuilder(2)
	if err := b.AddWeightedEdge(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	wg, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wg.ApplyDelta([]Edge{}, nil); err == nil {
		t.Error("weighted graph accepted")
	}
}
