package dynamic

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"densestream/internal/core"
	"densestream/internal/graph"
)

// peelOf is the from-scratch reference: Freeze the live edge set and
// peel it with the same eps and workers.
func peelOf(t *testing.T, n int, edges []graph.Edge, eps float64, workers int) *core.Result {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Undirected(g, eps, core.Opts{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumNodes: 0},
		{NumNodes: 4, Eps: -1},
		{NumNodes: 4, Eps: 0.5, DriftEps: 0.2},
		{NumNodes: 4, Window: -1},
		{NumNodes: 4, Buckets: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: accepted %+v", i, cfg)
		}
	}
	m, err := New(Config{NumNodes: 4, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := m.Insert(0, 9); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := m.Delete(0, 1); err == nil {
		t.Error("delete of absent edge accepted")
	}
}

// TestChurnParity drives random insert/delete churn and checks that
// every Flush — an epoch boundary — returns a result bit-identical to a
// from-scratch peel of the live edge set.
func TestChurnParity(t *testing.T) {
	const n = 40
	for _, w := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		m, err := New(Config{NumNodes: n, Eps: 0.3, DriftEps: 0.8, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[[2]int32]bool)
		for step := 0; step < 400; step++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			k := [2]int32{u, v}
			if live[k] && rng.Intn(2) == 0 {
				if err := m.Delete(u, v); err != nil {
					t.Fatal(err)
				}
				delete(live, k)
			} else {
				if err := m.Insert(u, v); err != nil {
					t.Fatal(err)
				}
				live[k] = true
			}
			if step%57 == 0 {
				got, err := m.Flush()
				if err != nil {
					t.Fatal(err)
				}
				want := peelOf(t, n, m.Edges(), 0.3, w)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d step=%d: flush drifted from scratch\n got: %+v\nwant: %+v", w, step, got, want)
				}
			}
		}
	}
}

// TestLazyTrigger checks the drift machinery: inserts that cannot break
// the certificate leave the maintainer fresh, and the certificate
// eventually breaks as edges pile up.
func TestLazyTrigger(t *testing.T) {
	m, err := New(Config{NumNodes: 40, Eps: 0, DriftEps: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A 10-clique: density 4.5, and eps=0 peeling finds it exactly.
	for u := int32(0); u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if err := m.Insert(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("epochs after flush = %d, want 1", got)
	}
	if m.Stale() {
		t.Fatal("stale immediately after flush")
	}
	// With DriftEps=1 the certificate holds until
	// 4*4.5 < 2*4.5 + sqrt(A/2), i.e. A > 162 added edges. A sparse
	// path over fresh nodes stays far under that.
	for u := int32(10); u < 30; u++ {
		if err := m.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stale() {
		t.Fatal("sparse inserts tripped the drift trigger early")
	}
	if got := m.Stats().Epochs; got != 1 {
		t.Fatalf("epochs = %d, want 1 (no re-peel yet)", got)
	}
	// Deleting edges inside S̃ lowers rho_cur and must eventually trip:
	// emptying nodes 0 and 1 drops rho_cur to 28/10, under the
	// (9 + sqrt(20/2)) / 4 threshold.
	for u := int32(0); u < 2; u++ {
		for v := u + 1; v < 10; v++ {
			if err := m.Delete(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !m.Stale() {
		t.Fatal("gutting the solution set never tripped the trigger")
	}
	if got := m.Stats().DriftTriggers; got != 1 {
		t.Fatalf("driftTriggers = %d, want 1", got)
	}
	if _, err := m.Current(); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != 2 {
		t.Fatalf("epochs after triggered read = %d, want 2", got)
	}
	got, err := m.Current()
	if err != nil {
		t.Fatal(err)
	}
	want := peelOf(t, 40, m.Edges(), 0, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-trigger result drifted from scratch\n got: %+v\nwant: %+v", got, want)
	}
}

func TestWindowExpiry(t *testing.T) {
	m, err := New(Config{NumNodes: 8, Window: 10, Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	// bucketW = 2: ts=1 lands in bucket 0 ([0,1]), ts=5 in bucket 2.
	if err := m.InsertAt(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertAt(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.LiveEdges != 2 || s.WindowEdges != 2 {
		t.Fatalf("stats before expiry: %+v", s)
	}
	if err := m.Advance(12); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.LiveEdges != 1 || s.Expired != 1 || s.WindowEdges != 1 {
		t.Fatalf("stats after Advance(12): %+v", s)
	}
	if err := m.Advance(17); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.LiveEdges != 0 || s.Expired != 2 || s.WindowEdges != 0 {
		t.Fatalf("stats after Advance(17): %+v", s)
	}
	// A straggler whose bucket already expired is dropped outright.
	before := m.Stats().Inserts
	if err := m.InsertAt(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.LiveEdges != 0 || s.Inserts != before {
		t.Fatalf("late insert was not dropped: %+v", s)
	}
	// Watermark never moves backwards.
	if err := m.Advance(3); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertAt(2, 3, 16); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.LiveEdges != 1 {
		t.Fatalf("in-window insert after stale Advance: %+v", s)
	}
}

// TestDeleteDebt checks that an explicit Delete removes the oldest live
// instance and that its queued window record does not double-remove on
// expiry.
func TestDeleteDebt(t *testing.T) {
	m, err := New(Config{NumNodes: 4, Window: 10, Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InsertAt(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertAt(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.LiveEdges != 1 || s.WindowEdges != 2 {
		t.Fatalf("stats after duplicate inserts: %+v", s)
	}
	if err := m.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.LiveEdges != 1 || s.WindowEdges != 1 {
		t.Fatalf("stats after delete: %+v", s)
	}
	// Expire everything: the ts=1 record is absorbed by the delete debt,
	// the ts=5 record performs the real expiry.
	if err := m.Advance(100); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.LiveEdges != 0 || s.Expired != 1 || s.WindowEdges != 0 {
		t.Fatalf("stats after full expiry: %+v", s)
	}
}

// TestWindowedChurnParity mixes timestamped inserts, explicit deletes,
// and window expiry, checking epoch parity against from-scratch peels.
func TestWindowedChurnParity(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(42))
	m, err := New(Config{NumNodes: n, Eps: 0.3, Window: 64, Buckets: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 600; ts++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if err := m.InsertAt(u, v, ts); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(10) == 0 {
			e := m.Edges()
			if len(e) > 0 {
				pick := e[rng.Intn(len(e))]
				if err := m.Delete(pick.U, pick.V); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.Advance(ts); err != nil {
			t.Fatal(err)
		}
		if ts%97 == 0 {
			got, err := m.Flush()
			if err != nil {
				t.Fatal(err)
			}
			want := peelOf(t, n, m.Edges(), 0.3, 2)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ts=%d: windowed flush drifted from scratch\n got: %+v\nwant: %+v", ts, got, want)
			}
		}
	}
	if m.Stats().Expired == 0 {
		t.Fatal("window churn never expired an edge")
	}
}

// TestConcurrentInsertCurrent is the -race smoke: writers hammer Insert
// and Advance while readers poll Current and Stats.
func TestConcurrentInsertCurrent(t *testing.T) {
	m, err := New(Config{NumNodes: 64, Eps: 0.5, Window: 1 << 20, Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				u, v := int32(rng.Intn(64)), int32(rng.Intn(64))
				if u == v {
					continue
				}
				if err := m.InsertAt(u, v, int64(i)); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					if err := m.Advance(int64(i)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(g))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := m.Current(); err != nil {
					t.Error(err)
					return
				}
				_ = m.Stats()
			}
		}()
	}
	wg.Wait()
	got, err := m.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := peelOf(t, 64, m.Edges(), 0.5, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-race flush drifted from scratch")
	}
}
