package par

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestClamp(t *testing.T) {
	if got := Clamp(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Clamp(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Clamp(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Clamp(-3) = %d", got)
	}
	if got := Clamp(7); got != 7 {
		t.Fatalf("Clamp(7) = %d", got)
	}
}

func TestNumChunksAndBounds(t *testing.T) {
	cases := []struct{ n, chunks int }{
		{0, 0}, {1, 1}, {ChunkSize, 1}, {ChunkSize + 1, 2}, {10 * ChunkSize, 10},
	}
	for _, c := range cases {
		if got := NumChunks(c.n); got != c.chunks {
			t.Fatalf("NumChunks(%d) = %d, want %d", c.n, got, c.chunks)
		}
	}
	n := 3*ChunkSize + 17
	covered := 0
	for c := 0; c < NumChunks(n); c++ {
		lo, hi := ChunkBounds(c, n)
		if lo != c*ChunkSize || hi <= lo || hi > n {
			t.Fatalf("chunk %d bounds [%d,%d) with n=%d", c, lo, hi, n)
		}
		covered += hi - lo
	}
	if covered != n {
		t.Fatalf("chunks cover %d of %d indices", covered, n)
	}
}

func TestForChunksVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		n := 5*ChunkSize + 13
		visits := make([]int32, n)
		New(workers).ForChunks(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestSumDeterministicAcrossWorkerCounts(t *testing.T) {
	n := 7*ChunkSize + 5
	ints := func(workers int) int64 {
		return New(workers).SumInt64(n, func(_, lo, hi int) int64 { return int64(hi - lo) })
	}
	if got := ints(8); got != int64(n) {
		t.Fatalf("SumInt64 over ranges = %d, want %d", got, n)
	}
}

func TestCollectorMergePreservesAscendingOrder(t *testing.T) {
	n := 4*ChunkSize + 100
	for _, workers := range []int{1, 8} {
		col := NewCollector(n)
		New(workers).ForChunks(n, func(c, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i%3 == 0 {
					col.Append(c, int32(i))
				}
			}
		})
		got := col.Merge(nil)
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("workers=%d: merge out of order at %d: %d >= %d", workers, i, got[i-1], got[i])
			}
		}
		if len(got) != (n+2)/3 {
			t.Fatalf("workers=%d: collected %d, want %d", workers, len(got), (n+2)/3)
		}
		// Reset keeps capacity but clears contents.
		col.Reset()
		if left := col.Merge(nil); len(left) != 0 {
			t.Fatalf("workers=%d: %d ids left after Reset", workers, len(left))
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		n := 157
		visits := make([]int32, n)
		New(workers).ForEach(n, func(i int) {
			atomic.AddInt32(&visits[i], 1)
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestForEachInlineOrderWithOneWorker(t *testing.T) {
	var order []int
	New(1).ForEach(5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("one-worker ForEach visited %v", order)
		}
	}
	called := false
	New(4).ForEach(0, func(int) { called = true })
	if called {
		t.Fatal("fn called for n=0")
	}
}

func TestForChunksEmpty(t *testing.T) {
	called := false
	New(4).ForChunks(0, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("fn called for n=0")
	}
}

// TestIDBufFillsCacheLines pins the padding that keeps neighbouring
// chunk buffers off each other's cache line.
func TestIDBufFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(idBuf{}); size%cacheLine != 0 {
		t.Fatalf("idBuf is %d bytes, not a multiple of the %d-byte cache line", size, cacheLine)
	}
}

// BenchmarkCollectorAppend reports ns per appended id when every chunk
// of a 400K-id scan appends all of its ids, at one worker and at
// GOMAXPROCS: the per-element write pattern of the peel engines'
// candidate scans, where unpadded neighbouring chunk buffers would
// share cache lines.
func BenchmarkCollectorAppend(b *testing.B) {
	const n = 400_000
	for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := New(workers)
			col := NewCollector(n)
			fill := func(c, lo, hi int) {
				for i := lo; i < hi; i++ {
					col.Append(c, int32(i))
				}
			}
			pool.ForChunks(n, fill) // warm the chunk buffers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col.Reset()
				pool.ForChunks(n, fill)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/id")
		})
	}
}
