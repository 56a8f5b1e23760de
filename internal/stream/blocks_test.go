package stream

import (
	"testing"

	"densestream/internal/edgeio"
	"densestream/internal/gen"
	"densestream/internal/par"
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
// sets. Every pass must count exactly the live edges and degrees, and
// request each block once, unless an earlier pass of the same run saw
// it without a live edge; then it is never requested again. A fresh
// run (Start) requests every block again. The cut of shards, which
// moves with the worker count, must not matter.
func TestScannerSkipsDeadBlocks(t *testing.T) {
	g, err := gen.ChungLu(400, 3000, 2.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	cb := newCountingBlocks(n, FromUndirected(g).src.Edges, 64)
	for _, workers := range []int{1, 2, 3, 4} {
		pool := par.Acquire(workers)
		s := newScanner(cb, nil, streamScanLanes(n, pool.Workers()), nil, pool)
		for run := 1; run <= 2; run++ {
			if _, err := s.Start(); err != nil {
				t.Fatal(err)
			}
			alive := make([]bool, n)
			for u := range alive {
				alive[u] = true
			}
			seenDead := make([]bool, len(cb.blocks))
			skipped := 0
			for pass := 1; pass <= 5; pass++ {
				clear(cb.calls)
				edges, _, err := s.Measure(pass, alive, alive, 0)
				if err != nil {
					t.Fatal(err)
				}
				var want int64
				deg := make([]float64, n)
				for b, blk := range cb.blocks {
					wantCalls := 1
					if seenDead[b] {
						wantCalls = 0
						skipped++
					}
					if cb.calls[b] != wantCalls {
						t.Fatalf("workers=%d run %d pass %d: block %d requested %d times, want %d", workers, run, pass, b, cb.calls[b], wantCalls)
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
					t.Fatalf("workers=%d run %d pass %d: %d live edges, want %d", workers, run, pass, edges, want)
				}
				for u, d := range deg {
					if alive[u] && s.Degree(int32(u)) != d {
						t.Fatalf("workers=%d run %d pass %d: degree(%d) = %v, want %v", workers, run, pass, u, s.Degree(int32(u)), d)
					}
				}
				// Drop the lowest fifth of ids and every third node: the
				// CSR-ordered blocks at the front die pass by pass.
				for u := 0; u < pass*n/5; u++ {
					alive[u] = false
				}
				for u := pass; u < n; u += 3 {
					alive[u] = false
				}
			}
			if skipped == 0 {
				t.Fatalf("workers=%d run %d: no block was skipped", workers, run)
			}
		}
		pool.Release()
	}
}
