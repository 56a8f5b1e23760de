package stream

import (
	"fmt"
	"io"

	"densestream/internal/edgeio"
)

// FileStream streams edges from a graph file on disk, re-reading it on
// every pass — the honest external-memory setting of the paper. The
// format is detected from the file's magic bytes:
//
//   - Text edge lists: "<u> <v>" with dense integer node ids; '#' and
//     '%' lines are comments; self loops are skipped; CRLF line endings
//     and a missing trailing newline are accepted. The node count costs
//     one discovery scan (max id + 1).
//   - Binary columnar ("BSG1", written by WriteUndirectedBinary or the
//     genGraph converter): block-decoded with no per-edge parsing, each
//     block read whole with one ReadAt. The node count comes from the
//     header — no discovery pass. The streaming scan reads such a file
//     a decoded block at a time and skips dead blocks.
//
// FileStream implements Sharded: BlockShards(k) cuts the file into k
// ranges (byte ranges with line-boundary resync for text, block ranges
// for binary), so the streaming scan reads disk inputs with the same
// worker fan-out as in-memory streams. The shard set is memoized per k
// and re-positioned by Reset each pass; Close releases every handle and
// is idempotent. WeightedFileStream is
// the same stream with the weight column.
type FileStream struct {
	path     string
	n        int
	bytesFn  func() int64
	closeSrc func() error // binary sources only; nil for text
	shardsFn func(k int) []edgeio.BlockReader
	seq      edgeio.BlockReader   // the whole file as one shard
	shards   []edgeio.BlockReader // the current cut when k > 1
	view     []edgeio.BlockReader // what BlockShards returns
	shardK   int
	closed   bool

	// Next's cursor over seq: the next block and what is left of the
	// current one.
	b    int
	blk  []Edge
	blkW []float64
}

// OpenFileStream opens path, detecting text vs binary by magic bytes.
// The returned stream is positioned before the first edge; call Reset
// to begin each pass.
func OpenFileStream(path string) (*FileStream, error) {
	fs := &FileStream{}
	if err := fs.open(path, false); err != nil {
		return nil, err
	}
	return fs, nil
}

// open opens path for fs, reading the weight column when weights is
// set, and positions the stream for the first pass.
func (fs *FileStream) open(path string, weights bool) error {
	fs.path = path
	isBin, err := edgeio.DetectBinary(path)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if isBin {
		bs, err := edgeio.OpenBinarySource(path)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		fs.n, fs.bytesFn, fs.closeSrc = bs.Nodes(), bs.BytesScanned, bs.Close
		fs.shardsFn = func(k int) []edgeio.BlockReader { return blockReaders(bs.BlockShards(k, weights)) }
		fs.seq = bs.BlockShards(1, weights)[0]
	} else {
		src, err := edgeio.OpenFileSource(path)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		fs.bytesFn = src.BytesScanned
		fs.shardsFn = func(k int) []edgeio.BlockReader { return blockReaders(src.BlockShards(k, weights)) }
		fs.seq = src.BlockShards(1, weights)[0]
		maxID, err := edgeio.MaxNodeID(fs.seq)
		if err != nil {
			fs.Close()
			return fmt.Errorf("stream: %w", err)
		}
		fs.n = int(maxID + 1)
	}
	if err := fs.Reset(); err != nil {
		fs.Close()
		return err
	}
	return nil
}

// blockReaders widens a shard cut to the BlockReader contract.
func blockReaders[S edgeio.BlockReader](shards []S) []edgeio.BlockReader {
	out := make([]edgeio.BlockReader, len(shards))
	for i, sh := range shards {
		out[i] = sh
	}
	return out
}

// NumNodes implements EdgeStream.
func (fs *FileStream) NumNodes() int { return fs.n }

// Reset implements EdgeStream by seeking back to the start of the
// file; seek and read errors are propagated (and Reset after Close is
// an error rather than a silent reopen).
func (fs *FileStream) Reset() error {
	if fs.closed {
		return fmt.Errorf("stream: Reset on closed FileStream %s", fs.path)
	}
	fs.b, _ = fs.seq.Blocks()
	fs.blk, fs.blkW = nil, nil
	if err := fs.seq.Reset(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// Next implements EdgeStream.
func (fs *FileStream) Next() (Edge, error) {
	e, _, err := fs.next()
	return e, err
}

// next returns the sequential shard's next edge and its weight (1
// without a weight column), reading the shard a block at a time.
func (fs *FileStream) next() (Edge, float64, error) {
	if fs.closed {
		return Edge{}, 0, fmt.Errorf("stream: Next on closed FileStream %s", fs.path)
	}
	for len(fs.blk) == 0 {
		if _, hi := fs.seq.Blocks(); fs.b >= hi {
			return Edge{}, 0, io.EOF
		}
		edges, weights, err := fs.seq.Block(fs.b)
		if err != nil {
			return Edge{}, 0, err
		}
		fs.b++
		fs.blk, fs.blkW = edges, weights
	}
	e, w := fs.blk[0], 1.0
	fs.blk = fs.blk[1:]
	if fs.blkW != nil {
		w, fs.blkW = fs.blkW[0], fs.blkW[1:]
	}
	return e, w, nil
}

// BlockShards implements Sharded: the file is cut into up to k ranges
// (byte ranges for text, block ranges for binary), each scanning
// through its own cursor. The shard set is memoized per k, so the
// per-pass calls of the scan reuse the same handles and decode
// buffers; Close closes them. One shard is the sequential shard
// itself, which already covers the whole file. On a closed stream it
// returns the closed sequential shard, whose Reset fails, so a scan
// reports the misuse through its normal error path.
func (fs *FileStream) BlockShards(k int) []edgeio.BlockReader {
	if fs.closed {
		return []edgeio.BlockReader{fs.seq}
	}
	k = max(k, 1)
	if fs.view == nil || fs.shardK != k {
		for _, sh := range fs.shards {
			closeShard(sh)
		}
		fs.shards = nil
		fs.view = []edgeio.BlockReader{fs.seq}
		if k > 1 {
			fs.shards = fs.shardsFn(k)
			fs.view = fs.shards
		}
		fs.shardK = k
	}
	return fs.view
}

// BytesScanned reports the cumulative bytes this stream has read from
// disk — for text files the discovery scan plus every pass of every
// shard; for binary files every block read and decoded. A block the
// scan skips as dead is not read, so it is not counted.
func (fs *FileStream) BytesScanned() int64 { return fs.bytesFn() }

// Close releases every handle held by the stream and its shards. It is
// idempotent: second and later calls return nil.
func (fs *FileStream) Close() error {
	if fs.closed {
		return nil
	}
	fs.closed = true
	fs.blk, fs.blkW = nil, nil
	err := closeShard(fs.seq)
	for _, sh := range fs.shards {
		if cerr := closeShard(sh); err == nil {
			err = cerr
		}
	}
	if fs.closeSrc != nil {
		if cerr := fs.closeSrc(); err == nil {
			err = cerr
		}
	}
	return err
}

// closeShard closes a shard that holds file handles or buffers.
func closeShard(sh edgeio.BlockReader) error {
	if c, ok := sh.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// WeightedFileStream is a FileStream that reads the weight column: text
// "u v w" edge lists (a missing third column defaults to weight 1, so
// unweighted files work too; a present one must be finite and > 0) or
// binary columnar files (an unweighted binary file serves weight 1 the
// same way). Its shards carry the weight column, and its Next adds each
// edge's weight.
type WeightedFileStream struct {
	FileStream
}

// OpenWeightedFileStream opens path, detecting the format by magic
// bytes, and positions the stream for the first pass.
func OpenWeightedFileStream(path string) (*WeightedFileStream, error) {
	ws := &WeightedFileStream{}
	if err := ws.open(path, true); err != nil {
		return nil, err
	}
	return ws, nil
}

// Next implements WeightedEdgeStream.
func (ws *WeightedFileStream) Next() (WeightedEdge, error) {
	e, w, err := ws.next()
	return WeightedEdge{U: e.U, V: e.V, Weight: w}, err
}
