// Package par is the chunked worker pool behind every parallel hot path
// in this repository. It is built around one invariant: the work
// decomposition is a function of the problem size only, never of the
// worker count. An index range [0, n) is always split into the same
// fixed-size chunks; workers claim chunks dynamically, but per-chunk
// results are stored in chunk-indexed slots and merged sequentially in
// chunk order. Any reduction expressed this way is bit-identical for
// every worker count (including 1), which is what lets the peeling
// engines promise Workers=1 and Workers=N agree exactly — even for
// floating-point accumulations, whose grouping is fixed by the chunk
// boundaries rather than by scheduling.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ChunkSize is the number of indices per chunk. It is a compromise
// between scheduling overhead (larger is better) and load balance on
// skewed adjacency lists (smaller is better); it must stay constant so
// chunk-grouped reductions are reproducible across runs and machines.
const ChunkSize = 2048

// NumChunks returns the number of fixed-size chunks covering [0, n).
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ChunkSize - 1) / ChunkSize
}

// ChunkBounds returns the half-open index range of chunk c within [0, n).
func ChunkBounds(c, n int) (lo, hi int) {
	lo = c * ChunkSize
	hi = lo + ChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Clamp normalizes a requested worker count: values <= 0 become
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Clamp(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Pool runs chunked loops on a fixed number of workers. The zero value
// is not usable; construct with New.
//
// A multi-worker pool lazily spawns a persistent crew of workers-1
// goroutines on its first parallel call and reuses them for every later
// call: each round hands the crew a preallocated body over a channel and
// waits for as many completions, so the per-pass loops of the peeling
// engines stop paying a goroutine spawn plus closure allocation per
// worker per pass. Rounds on the crew are serialized by a mutex;
// concurrent or nested calls (a loop body invoking the same pool) fall
// back transparently to spawn-per-call goroutines, so a Pool remains
// safe for concurrent use by independent loops. The crew parks on an
// empty channel between rounds and exits when the Pool is garbage
// collected (a finalizer closes the feed channel), so an abandoned pool
// leaks nothing.
type Pool struct {
	workers int

	mu     sync.Mutex   // serializes crew rounds; TryLock failure → spawn fallback
	cursor atomic.Int64 // shared claim cursor for the current round

	// Crew plumbing, nil until the first multi-worker call. start and
	// done are captured by the crew goroutines instead of the Pool
	// itself, so the Pool can be collected (and finalized) while the
	// crew is parked.
	start chan func()
	done  chan struct{}

	// Cached round bodies and their parameters. The fields are written
	// by the driver before the bodies are sent on start, and the channel
	// send/receive pair is the happens-before edge that publishes them
	// to the crew.
	chunkBody func()
	taskBody  func()
	rFn       func(chunk, lo, hi int)
	rCtx      context.Context
	rN        int
	rChunks   int
	rTaskFn   func(i int)
	rK        int
}

// New returns a pool with the clamped worker count (see Clamp).
func New(workers int) *Pool { return &Pool{workers: Clamp(workers)} }

// crewCaches parks released Pools keyed by worker count, so solvers
// that build a pool per solve reuse an existing crew instead of
// spawning a fresh one (goroutine descriptors dominate a cold pool's
// cost). Entries age out with the GC like any sync.Pool contents; the
// Pool finalizer then retires the orphaned crew.
var crewCaches sync.Map // workers (int) -> *sync.Pool of *Pool

// Acquire returns a pool with the clamped worker count, reusing a
// previously Released pool (and its parked crew) when one is cached.
// Pair it with Release when the pool is short-lived; long-lived pools
// should just use New.
func Acquire(workers int) *Pool {
	w := Clamp(workers)
	if cp, ok := crewCaches.Load(w); ok {
		if p, ok := cp.(*sync.Pool).Get().(*Pool); ok {
			return p
		}
	}
	return &Pool{workers: w}
}

// Release parks the pool for a later Acquire with the same worker
// count. The caller must be completely done with it: releasing a pool
// that is still running a round, or releasing it twice, hands one crew
// to two owners. Releasing is optional — an unreleased pool is simply
// collected and its crew retired by the finalizer.
func (p *Pool) Release() {
	cp, ok := crewCaches.Load(p.workers)
	if !ok {
		cp, _ = crewCaches.LoadOrStore(p.workers, &sync.Pool{})
	}
	cp.(*sync.Pool).Put(p)
}

// ensureCrew spawns the persistent crew and builds the reusable round
// bodies. Must be called with p.mu held.
func (p *Pool) ensureCrew() {
	if p.start != nil {
		return
	}
	start := make(chan func(), p.workers-1)
	done := make(chan struct{}, p.workers-1)
	p.start, p.done = start, done
	for w := 0; w < p.workers-1; w++ {
		go func() {
			for body := range start {
				body()
				done <- struct{}{}
			}
		}()
	}
	p.chunkBody = func() {
		chunks, n, fn, ctx := p.rChunks, p.rN, p.rFn, p.rCtx
		for active(ctx) {
			c := int(p.cursor.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo, hi := ChunkBounds(c, n)
			fn(c, lo, hi)
		}
	}
	p.taskBody = func() {
		k, fn := p.rK, p.rTaskFn
		for {
			i := int(p.cursor.Add(1)) - 1
			if i >= k {
				return
			}
			fn(i)
		}
	}
	// The crew captures only the channels, so an unreachable Pool is
	// collectable; closing start releases the parked goroutines.
	runtime.SetFinalizer(p, func(p *Pool) { close(p.start) })
}

// chunkRound runs fn over the chunk range on the crew, with the calling
// goroutine as one of the runners. Must be called with p.mu held.
func (p *Pool) chunkRound(runners, chunks, n int, ctx context.Context, fn func(chunk, lo, hi int)) {
	p.ensureCrew()
	p.rChunks, p.rN, p.rFn, p.rCtx = chunks, n, fn, ctx
	p.cursor.Store(0)
	for i := 1; i < runners; i++ {
		p.start <- p.chunkBody
	}
	p.chunkBody()
	for i := 1; i < runners; i++ {
		<-p.done
	}
	p.rFn, p.rCtx = nil, nil
}

// taskRound runs fn(i) for i in [0, k) on the crew, with the calling
// goroutine as one of the runners. Must be called with p.mu held.
func (p *Pool) taskRound(runners, k int, fn func(i int)) {
	p.ensureCrew()
	p.rK, p.rTaskFn = k, fn
	p.cursor.Store(0)
	for i := 1; i < runners; i++ {
		p.start <- p.taskBody
	}
	p.taskBody()
	for i := 1; i < runners; i++ {
		<-p.done
	}
	p.rTaskFn = nil
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// ForChunks splits [0, n) into fixed-size chunks and calls
// fn(chunk, lo, hi) once per chunk. With one worker the chunks run
// inline in increasing order; with more, workers claim chunks from an
// atomic cursor. fn must only write to state owned by its chunk (or
// use atomics); ForChunks establishes a happens-before edge between
// everything done inside fn and its own return.
func (p *Pool) ForChunks(n int, fn func(chunk, lo, hi int)) {
	p.ForChunksCtx(nil, n, fn)
}

// ForChunksCtx is ForChunks with cooperative cancellation: once ctx is
// done, workers stop claiming new chunks (chunks already claimed run to
// completion, preserving the no-torn-chunk invariant) and the call
// reports ctx.Err(). A nil ctx means no cancellation. On a non-nil
// error the chunk coverage may be incomplete, so callers must discard
// any partial reduction state.
func (p *Pool) ForChunksCtx(ctx context.Context, n int, fn func(chunk, lo, hi int)) error {
	chunks := NumChunks(n)
	workers := min(p.workers, chunks)
	switch {
	case chunks == 0:
	case workers == 1:
		for c := 0; c < chunks && active(ctx); c++ {
			lo, hi := ChunkBounds(c, n)
			fn(c, lo, hi)
		}
	case p.mu.TryLock():
		p.chunkRound(workers, chunks, n, ctx, fn)
		p.mu.Unlock()
	default:
		// A round is already running (nested or concurrent use): spawn
		// one-shot goroutines for this call instead of waiting on the
		// crew.
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for active(ctx) {
					c := int(cursor.Add(1)) - 1
					if c >= chunks {
						return
					}
					lo, hi := ChunkBounds(c, n)
					fn(c, lo, hi)
				}
			}()
		}
		wg.Wait()
	}
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// active reports whether a loop under ctx may claim another chunk: a
// nil ctx never cancels.
func active(ctx context.Context) bool { return ctx == nil || ctx.Err() == nil }

// ForEach invokes fn(i) once for every i in [0, n). With one worker
// (or one index) the indices run inline in increasing order; otherwise
// up to Workers() runners claim indices dynamically from an atomic
// cursor, so calls may share a goroutine but never run twice. This is
// the primitive for task lists whose grain is already fixed by the
// problem (per-shard scans, shuffle partitions, sort runs), where
// chunking would be too coarse. Calls must be independent of each
// other (none may block waiting for another to run), and fn must only
// write to i-indexed slots or use atomics.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if p.mu.TryLock() {
		p.taskRound(workers, n, fn)
		p.mu.Unlock()
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// SumInt64 reduces fn over the chunks of [0, n): per-chunk partials are
// computed in parallel and folded in chunk order. Deterministic for any
// worker count.
func (p *Pool) SumInt64(n int, fn func(chunk, lo, hi int) int64) int64 {
	slots := make([]int64, NumChunks(n))
	p.ForChunks(n, func(c, lo, hi int) { slots[c] = fn(c, lo, hi) })
	var total int64
	for _, s := range slots {
		total += s
	}
	return total
}

// cacheLine is the cache-line size idBuf pads to.
const cacheLine = 64

// idBuf is one append buffer of a parallel loop, padded to a whole
// cache line. Collector keeps one per chunk, and workers on
// neighbouring chunks append at the same time; unpadded, several
// 24-byte slice headers share one line and every append bounces it
// between cores (false sharing). Slots written once per chunk rather
// than once per element need no padding.
type idBuf struct {
	ids []int32
	_   [cacheLine - unsafe.Sizeof([]int32(nil))]byte
}

// Collector gathers int32 indices from a chunked scan and merges them
// in chunk order, reproducing exactly the output order of a sequential
// ascending scan. Chunk buffers are retained across Reset, so a
// Collector reused pass after pass stops allocating once warm. Each
// chunk's buffer sits on its own cache line, so workers appending
// under neighbouring chunks do not contend.
type Collector struct {
	bufs []idBuf
}

// NewCollector returns a collector for scans over [0, n).
func NewCollector(n int) *Collector {
	return &Collector{bufs: make([]idBuf, NumChunks(n))}
}

// Grow extends the collector to cover scans over [0, n), keeping its
// existing chunk buffers; a collector never shrinks.
func (c *Collector) Grow(n int) {
	if k := NumChunks(n); k > len(c.bufs) {
		c.bufs = append(c.bufs, make([]idBuf, k-len(c.bufs))...)
	}
}

// Reset clears all chunk buffers, keeping their capacity.
func (c *Collector) Reset() {
	for i := range c.bufs {
		c.bufs[i].ids = c.bufs[i].ids[:0]
	}
}

// Append records u under the given chunk. Only the goroutine running
// that chunk may call it.
func (c *Collector) Append(chunk int, u int32) {
	b := &c.bufs[chunk]
	b.ids = append(b.ids, u)
}

// Merge appends every chunk buffer to dst in chunk order and returns
// the extended slice. Since chunks cover ascending index ranges and
// each buffer is filled in ascending order, the merged slice is sorted
// whenever Append was called with in-range indices.
func (c *Collector) Merge(dst []int32) []int32 {
	for _, b := range c.bufs {
		dst = append(dst, b.ids...)
	}
	return dst
}
