package edgeio

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// OpenBinarySource opens the binary graph file at path through the
// fastest available reader: the mmap-backed source where the platform
// supports it, falling back to the buffered file source when mapping
// is unavailable or fails.
func OpenBinarySource(path string) (*BinaryFileSource, error) {
	if src, err := OpenMmapSource(path); err == nil {
		return src, nil
	} else if _, ok := err.(*formatError); ok {
		// A malformed file fails the same way on both readers; don't
		// mask the descriptive error with a fallback attempt.
		return nil, err
	}
	return OpenBinaryFileSource(path)
}

// formatError marks meta-validation failures so OpenBinarySource can
// distinguish "bad file" from "mmap unavailable".
type formatError struct{ err error }

func (e *formatError) Error() string { return e.err.Error() }
func (e *formatError) Unwrap() error { return e.err }

// BinaryFileSource is an open binary columnar graph file: a sharded,
// re-scannable edge source that knows its node and edge counts from the
// header, with no discovery pass. Its shards get block bytes from one
// of two places: straight out of a read-only memory mapping
// (OpenMmapSource), or through ReadAt into a pooled buffer
// (OpenBinaryFileSource). Either way one shard type and one decoder
// turn them into edges. Shards cover contiguous block ranges
// (a function of the block count and k only) and reuse their decode
// buffers across blocks and passes, so a steady-state scan performs no
// allocations.
//
// Close unmaps a mapped file and is idempotent; it must not race a
// running scan (the owning stream closes shards and source together).
// Every block read from the mapping is bounds-checked, so a file that
// shrank after opening surfaces as an error, not a fault.
type BinaryFileSource struct {
	meta  *binaryMeta
	bytes atomic.Int64

	mu     sync.Mutex
	mapped bool
	data   []byte // the mapping; nil for buffered reads and after Close
}

// OpenBinaryFileSource opens and validates the binary file at path for
// buffered reads: each shard opens its own handle.
func OpenBinaryFileSource(path string) (*BinaryFileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	defer f.Close()
	meta, err := readBinaryMeta(f, path)
	if err != nil {
		return nil, err
	}
	return &BinaryFileSource{meta: meta}, nil
}

// Nodes is the header's node count (max id + 1 over the edges).
func (s *BinaryFileSource) Nodes() int { return int(s.meta.nodes) }

// NumEdges is the trailer's total edge count.
func (s *BinaryFileSource) NumEdges() int64 { return s.meta.edges }

// Weighted reports whether the file carries a weight column.
func (s *BinaryFileSource) Weighted() bool { return s.meta.weighted }

// Path returns the file path.
func (s *BinaryFileSource) Path() string { return s.meta.path }

// BytesScanned returns the cumulative bytes of the blocks decoded
// across all shards and passes. A block never read is not counted; for
// a mapped file a block is scanned when it is decoded out of the
// mapping.
func (s *BinaryFileSource) BytesScanned() int64 { return s.bytes.Load() }

// Close unmaps a mapped file, and it is idempotent. Shards must not be
// used after Close. Buffered shards own their file handles, released
// by their own Close.
func (s *BinaryFileSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data := s.data
	s.data = nil
	if data == nil {
		return nil
	}
	if err := munmapFile(data); err != nil {
		return fmt.Errorf("edgeio: munmap %s: %w", s.meta.path, err)
	}
	return nil
}

// BlockShards cuts the file into 1..k contiguous block ranges for
// block-at-a-time reads. weights selects whether Block returns a
// weighted file's weight column.
func (s *BinaryFileSource) BlockShards(k int, weights bool) []*BinaryShard {
	ranges := blockRanges(len(s.meta.index), k)
	backing := make([]BinaryShard, len(ranges))
	shards := make([]*BinaryShard, len(ranges))
	for i, r := range ranges {
		backing[i] = BinaryShard{src: s, lo: r[0], hi: r[1], next: r[0], weights: weights && s.meta.weighted}
		shards[i] = &backing[i]
	}
	return shards
}

// Shards returns BlockShards(k, false) as edge-at-a-time Readers.
func (s *BinaryFileSource) Shards(k int) []Reader {
	bs := s.BlockShards(k, false)
	out := make([]Reader, len(bs))
	for i, sh := range bs {
		out[i] = sh
	}
	return out
}

// blockRanges splits nblocks into at most k contiguous [lo,hi) ranges,
// depending only on nblocks and k. An empty file yields one empty
// range so callers always get at least one (empty) shard.
func blockRanges(nblocks, k int) [][2]int {
	if k < 1 {
		k = 1
	}
	if k > nblocks {
		k = nblocks
	}
	if k < 1 {
		return [][2]int{{0, 0}}
	}
	out := make([][2]int, k)
	for i := 0; i < k; i++ {
		out[i] = [2]int{nblocks * i / k, nblocks * (i + 1) / k}
	}
	return out
}

// BinaryShard scans one block range of a binary file, a whole decoded
// block at a time (Blocks, Block) or an edge at a time (Reset, Next,
// a cursor over the current block). It implements BlockReader, with
// numbered blocks, and Reader. A buffered shard opens
// its own file handle on first use. The raw, edge and weight buffers
// come out of the package pools on first use, are reused for every
// later block and pass, and go back on Close, after which the shard
// refuses every call.
type BinaryShard struct {
	src     *BinaryFileSource
	lo, hi  int  // block range [lo, hi)
	weights bool // decode the weight column

	f         *os.File // buffered reads only
	rawBox    *[]byte
	edgeBox   *[]Edge
	weightBox *[]float64

	cur    []Edge // the block Next walks
	pos    int    // Next's position in cur
	next   int    // the block Next decodes after cur
	closed bool
}

// Blocks returns the shard's range [lo, hi) of the file's block
// numbers. Numbers are global: shard cuts of any k number a block the
// same way.
func (sh *BinaryShard) Blocks() (lo, hi int) { return sh.lo, sh.hi }

// Reset implements BlockReader and Reader, (re)positioning the shard at
// its first block and opening a buffered shard's file handle on first
// use.
func (sh *BinaryShard) Reset() error {
	if err := sh.ready(); err != nil {
		return err
	}
	sh.next = sh.lo
	sh.cur, sh.pos = nil, 0
	return nil
}

// ready checks the shard and its source are open, opening a buffered
// shard's file handle on first use.
func (sh *BinaryShard) ready() error {
	path := sh.src.meta.path
	switch {
	case sh.closed:
		return fmt.Errorf("edgeio: read from a closed shard of %s", path)
	case sh.src.mapped:
		if sh.src.data == nil {
			return fmt.Errorf("edgeio: read from the closed mmap source %s", path)
		}
	case sh.f == nil:
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("edgeio: %w", err)
		}
		sh.f = f
	}
	return nil
}

// Block decodes block i (lo <= i < hi) and returns its edges and, for
// a shard reading weights of a weighted file, its weights (nil
// otherwise). The slices stay valid until the shard's next Block, Next
// or Close.
// Block i becomes Next's current block with the cursor at its end, so
// a following Next continues with block i+1.
func (sh *BinaryShard) Block(i int) ([]Edge, []float64, error) {
	if err := sh.ready(); err != nil {
		return nil, nil, err
	}
	m := sh.src.meta
	if i < sh.lo || i >= sh.hi {
		return nil, nil, fmt.Errorf("edgeio: %s: block %d outside the shard's range [%d,%d)", m.path, i, sh.lo, sh.hi)
	}
	off, end := m.index[i].off, m.blockEnd(i)
	var raw []byte
	if sh.src.mapped {
		data := sh.src.data
		if off < 0 || end > int64(len(data)) || off > end {
			return nil, nil, fmt.Errorf("edgeio: %s: block %d extent [%d,%d) outside the %d-byte mapping", m.path, i, off, end, len(data))
		}
		raw = data[off:end]
	} else {
		raw = pooled(&sh.rawBox, &rawPool, int(end-off))
		if _, err := sh.f.ReadAt(raw, off); err != nil {
			return nil, nil, fmt.Errorf("edgeio: %s: reading block %d at offset %d: %w", m.path, i, off, err)
		}
	}
	edges := pooled(&sh.edgeBox, &edgePool, m.maxCount)
	var weights []float64
	if sh.weights {
		weights = pooled(&sh.weightBox, &weightPool, m.maxCount)
	}
	edges, weights, err := m.decodeBlock(i, raw, edges, weights)
	if err != nil {
		return nil, nil, err
	}
	sh.src.bytes.Add(end - off)
	sh.cur, sh.pos, sh.next = edges, len(edges), i+1
	return edges, weights, nil
}

// pooled returns the slice in *box resized to n elements, taking the
// box from pool on first use and growing its slice when short.
func pooled[T any](box **[]T, pool *sync.Pool, n int) []T {
	if *box == nil {
		*box = pool.Get().(*[]T)
	}
	if cap(**box) < n {
		**box = make([]T, n)
	}
	return (**box)[:n]
}

// Next implements Reader, decoding blocks as the cursor crosses them.
func (sh *BinaryShard) Next() (Edge, error) {
	for sh.pos >= len(sh.cur) {
		if sh.closed || sh.next >= sh.hi {
			if err := sh.ready(); err != nil {
				return Edge{}, err
			}
			return Edge{}, io.EOF
		}
		if _, _, err := sh.Block(sh.next); err != nil {
			return Edge{}, err
		}
		sh.pos = 0
	}
	e := sh.cur[sh.pos]
	sh.pos++
	return e, nil
}

// Close releases the shard's file handle and returns its decode
// buffers to the pools. It is idempotent.
func (sh *BinaryShard) Close() error {
	if sh.closed {
		return nil
	}
	sh.closed = true
	release(&sh.rawBox, &rawPool)
	release(&sh.edgeBox, &edgePool)
	release(&sh.weightBox, &weightPool)
	sh.cur, sh.pos = nil, 0
	if sh.f == nil {
		return nil
	}
	return sh.f.Close()
}

// release puts a box taken by pooled back into its pool.
func release[T any](box **[]T, pool *sync.Pool) {
	if *box != nil {
		pool.Put(*box)
		*box = nil
	}
}
