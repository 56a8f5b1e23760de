package stream

import (
	"testing"

	"densestream/internal/edgeio"
	"densestream/internal/gen"
	"densestream/internal/par"
	"densestream/internal/sketch"
)

// countingBlocks is a Sharded stream whose shards expose numbered
// blocks of a fixed edge list, as BSG1 shards do, and count the Block
// calls each block receives.
type countingBlocks struct {
	SliceStream
	blocks [][]Edge
	calls  []int
}

func newCountingBlocks(n int, edges []Edge, per int) *countingBlocks {
	c := &countingBlocks{SliceStream: SliceStream{n: n, src: edgeio.SliceSource{Edges: edges}}}
	for lo := 0; lo < len(edges); lo += per {
		c.blocks = append(c.blocks, edges[lo:min(lo+per, len(edges))])
	}
	c.calls = make([]int, len(c.blocks))
	return c
}

// BlockShards implements Sharded with fresh shards on every call, so
// the scanner cannot rely on shard identity across passes.
func (c *countingBlocks) BlockShards(k int) []edgeio.BlockReader {
	k = max(min(k, len(c.blocks)), 1)
	out := make([]edgeio.BlockReader, k)
	for i := range out {
		out[i] = &countingShard{c: c, lo: len(c.blocks) * i / k, hi: len(c.blocks) * (i + 1) / k}
	}
	return out
}

type countingShard struct {
	c      *countingBlocks
	lo, hi int
}

func (s *countingShard) Reset() error         { return nil }
func (s *countingShard) Blocks() (lo, hi int) { return s.lo, s.hi }
func (s *countingShard) Block(i int) ([]Edge, []float64, error) {
	s.c.calls[i]++
	return s.c.blocks[i], nil, nil
}

// TestScannerSkipsDeadBlocks drives the scanner through shrinking live
// sets. Every pass must count exactly the live edges and degrees. Up to
// and including the first pass whose live edges fit the residual
// budget, each block is requested once per pass, unless an earlier pass
// of the same run saw it without a live edge; such a block is never
// requested again. After that pass the run is served from memory and
// requests no block at all. A fresh run (Start) requests every block
// again and captures again. The cut of shards, which moves with the
// worker count, must not matter: the pass whose residual is held is the
// same at every worker count. A sketched scanner holds no residual, so
// it requests every live block in every pass.
func TestScannerSkipsDeadBlocks(t *testing.T) {
	g, err := gen.ChungLu(400, 3000, 2.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	cb := newCountingBlocks(n, FromUndirected(g).src.Edges, 64)
	const passes = 5
	heldAt := map[bool]int{} // sketched → the pass whose residual is held
	for _, sketched := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3, 4} {
			pool := par.Acquire(workers)
			lanes := streamScanLanes(n, pool.Workers())
			var counter StripedDegreeCounter
			if sketched {
				sk, err := sketch.NewStriped(5, 256, 1, lanes)
				if err != nil {
					t.Fatal(err)
				}
				counter = sk
			}
			s := takeScanner(cb, counter, lanes, nil, pool)
			for run := 1; run <= 2; run++ {
				if _, err := s.Start(); err != nil {
					t.Fatal(err)
				}
				alive := make([]bool, n)
				for u := range alive {
					alive[u] = true
				}
				seenDead := make([]bool, len(cb.blocks))
				skipped, held := 0, 0
				for pass := 1; pass <= passes; pass++ {
					clear(cb.calls)
					edges, _, err := s.Measure(pass, alive, alive, 0)
					if err != nil {
						t.Fatal(err)
					}
					var want int64
					deg := make([]float64, n)
					for b, blk := range cb.blocks {
						wantCalls := 1
						if seenDead[b] || held > 0 {
							wantCalls = 0
						}
						if seenDead[b] && held == 0 {
							skipped++
						}
						if cb.calls[b] != wantCalls {
							t.Fatalf("sketched=%v workers=%d run %d pass %d: block %d requested %d times, want %d (residual held after pass %d)",
								sketched, workers, run, pass, b, cb.calls[b], wantCalls, held)
						}
						live := 0
						for _, e := range blk {
							if alive[e.U] && alive[e.V] {
								live++
								deg[e.U]++
								deg[e.V]++
							}
						}
						want += int64(live)
						seenDead[b] = seenDead[b] || live == 0
					}
					if edges != want {
						t.Fatalf("sketched=%v workers=%d run %d pass %d: %d live edges, want %d", sketched, workers, run, pass, edges, want)
					}
					for u, d := range deg {
						if !sketched && alive[u] && s.Degree(int32(u)) != d {
							t.Fatalf("workers=%d run %d pass %d: degree(%d) = %v, want %v", workers, run, pass, u, s.Degree(int32(u)), d)
						}
					}
					if held == 0 && !sketched && edges <= int64(n) {
						held = pass
					}
					if s.held != (held > 0) {
						t.Fatalf("sketched=%v workers=%d run %d pass %d: %d live edges, residual held = %v, want %v",
							sketched, workers, run, pass, edges, s.held, held > 0)
					}
					// Drop the lowest tenth of ids and every fifth node: the
					// CSR-ordered blocks at the front die pass by pass, and
					// the live edges (2311, 445, 122, ...) first fit the
					// budget of n = 400 in pass 3, after blocks were skipped.
					for u := 0; u < pass*n/10; u++ {
						alive[u] = false
					}
					for u := pass; u < n; u += 5 {
						alive[u] = false
					}
				}
				if skipped == 0 {
					t.Fatalf("sketched=%v workers=%d run %d: no block was skipped", sketched, workers, run)
				}
				if !sketched && (held == 0 || held == passes) {
					t.Fatalf("workers=%d run %d: residual held after pass %d; want a pass before the last %d", workers, run, held, passes)
				}
				if first, ok := heldAt[sketched]; !ok {
					heldAt[sketched] = held
				} else if held != first {
					t.Fatalf("sketched=%v workers=%d run %d: residual held after pass %d, want pass %d as at workers=1", sketched, workers, run, held, first)
				}
			}
			s.release()
			pool.Release()
		}
	}
}
