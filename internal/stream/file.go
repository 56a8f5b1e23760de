package stream

import (
	"fmt"

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
//     genGraph converter): block-decoded with no per-edge parsing, read
//     through an mmap-backed source where the platform supports it (with
//     a transparent fallback to buffered reads). The node count comes
//     from the header — no discovery pass. The streaming scan reads
//     such a file a decoded block at a time and skips dead blocks.
//
// FileStream implements ShardedStream: Shards(k) cuts the file into k
// ranges (byte ranges with line-boundary resync for text, block ranges
// for binary), so the streaming scan reads disk inputs with the same
// worker fan-out as in-memory streams. The shard set is memoized per k
// and re-positioned by Reset each pass; Close releases every handle
// (and unmaps a mapped file) and is idempotent.
type FileStream struct {
	path     string
	n        int
	bytesFn  func() int64
	closeSrc func() error // binary sources only; nil for text
	shardsFn func(k int) []edgeio.Reader
	seq      edgeio.Reader
	shards   []edgeio.Reader
	wrap     []EdgeStream
	shardK   int
	closed   bool
}

// OpenFileStream opens path, detecting text vs binary by magic bytes.
// The returned stream is positioned before the first edge; call Reset
// to begin each pass.
func OpenFileStream(path string) (*FileStream, error) {
	isBin, err := edgeio.DetectBinary(path)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if isBin {
		bs, err := edgeio.OpenBinarySource(path)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		fs := &FileStream{
			path:     path,
			n:        bs.Nodes(),
			bytesFn:  bs.BytesScanned,
			closeSrc: bs.Close,
			shardsFn: bs.Shards,
			seq:      bs.Shards(1)[0],
		}
		if err := fs.seq.Reset(); err != nil {
			bs.Close()
			return nil, fmt.Errorf("stream: %w", err)
		}
		return fs, nil
	}
	src, err := edgeio.OpenFileSource(path)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	fs := &FileStream{
		path:     path,
		bytesFn:  src.BytesScanned,
		shardsFn: src.Shards,
		seq:      src.SequentialReader(),
	}
	maxID, err := edgeio.MaxNodeID(fs.seq)
	if err != nil {
		closeReader(fs.seq)
		return nil, fmt.Errorf("stream: %w", err)
	}
	fs.n = int(maxID + 1)
	if err := fs.seq.Reset(); err != nil {
		closeReader(fs.seq)
		return nil, fmt.Errorf("stream: %w", err)
	}
	return fs, nil
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
	if err := fs.seq.Reset(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// Next implements EdgeStream.
func (fs *FileStream) Next() (Edge, error) { return fs.seq.Next() }

// Shards implements ShardedStream: the file is cut into up to k ranges
// (byte ranges for text, block ranges for binary), each scanning
// through its own cursor. The shard set is memoized per k, so the
// per-pass calls of the scan reuse the same handles and decode
// buffers; FileStream.Close closes them. One shard is the sequential
// reader itself, which already covers the whole file.
func (fs *FileStream) Shards(k int) []EdgeStream {
	if k < 1 {
		k = 1
	}
	if fs.closed {
		// Keep the contract that shard errors surface from Reset.
		return []EdgeStream{&errorStream{n: fs.n, err: fmt.Errorf("stream: Shards on closed FileStream %s", fs.path)}}
	}
	if fs.wrap == nil || fs.shardK != k {
		for _, sh := range fs.shards {
			closeReader(sh)
		}
		fs.shards = nil
		readers := []edgeio.Reader{fs.seq}
		if k > 1 {
			fs.shards = fs.shardsFn(k)
			readers = fs.shards
		}
		fs.shardK = k
		backing := make([]readerStream, len(readers))
		fs.wrap = make([]EdgeStream, len(readers))
		for i, sh := range readers {
			backing[i] = readerStream{n: fs.n, r: sh}
			fs.wrap[i] = &backing[i]
		}
	}
	return fs.wrap
}

// BytesScanned reports the cumulative bytes this stream has read from
// disk — for text files the discovery scan plus every pass of every
// shard; for binary files every block decoded (including through the
// mmap path, where "read" means decoded out of the mapping). A block
// the scan skips as dead is not read, so it is not counted.
func (fs *FileStream) BytesScanned() int64 { return fs.bytesFn() }

// Close releases every handle held by the stream and its shards, and
// unmaps a mapped binary source. It is idempotent: second and later
// calls return nil.
func (fs *FileStream) Close() error {
	if fs.closed {
		return nil
	}
	fs.closed = true
	err := closeReader(fs.seq)
	for _, sh := range fs.shards {
		if cerr := closeReader(sh); err == nil {
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

// readerStream adapts an edgeio.Reader shard to the EdgeStream shape
// (the node count comes from the owning stream).
type readerStream struct {
	n int
	r edgeio.Reader
}

// NumNodes implements EdgeStream.
func (s *readerStream) NumNodes() int { return s.n }

// Reset implements EdgeStream.
func (s *readerStream) Reset() error { return s.r.Reset() }

// Next implements EdgeStream.
func (s *readerStream) Next() (Edge, error) { return s.r.Next() }

// errorStream is an EdgeStream that fails on Reset; it reports misuse
// (scanning a closed stream's shards) through the scan's normal error
// path.
type errorStream struct {
	n   int
	err error
}

// NumNodes implements EdgeStream.
func (s *errorStream) NumNodes() int { return s.n }

// Reset implements EdgeStream.
func (s *errorStream) Reset() error { return s.err }

// Next implements EdgeStream.
func (s *errorStream) Next() (Edge, error) { return Edge{}, s.err }
