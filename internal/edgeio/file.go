package edgeio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// FileSource is an edge-list file on disk, shardable into byte ranges
// with line-boundary resync. Every shard parses "u v" lines, or
// "u v [w]" lines when it was made to read weights. All shards read
// through one sharedFile handle, opened on the first shard Reset and
// closed by the last shard Close; each shard keeps its own cursor (an
// io.SectionReader over the handle).
type FileSource struct {
	path string
	size int64
	// bytes accumulates every byte the shards read (edge lines,
	// comments, and resync skips alike) across all passes — the honest
	// disk-scan volume of a run. Shards count locally and publish here
	// at EOF, Reset and Close, so the line loop touches no shared cache
	// line; during a pass the total lags by the in-flight shards' counts.
	bytes atomic.Int64
	file  sharedFile
}

// OpenFileSource stats path and returns a source over it. The shared
// file handle is opened lazily by the first shard Reset.
func OpenFileSource(path string) (*FileSource, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	if st.IsDir() {
		return nil, fmt.Errorf("edgeio: %s is a directory", path)
	}
	return &FileSource{path: path, size: st.Size()}, nil
}

// Path returns the file path.
func (s *FileSource) Path() string { return s.path }

// Size returns the file size in bytes at open time.
func (s *FileSource) Size() int64 { return s.size }

// BytesScanned returns the cumulative bytes read from disk by all of
// this source's shards since it was opened, counting each shard up to
// its last EOF, Reset or Close.
func (s *FileSource) BytesScanned() int64 { return s.bytes.Load() }

// sharedFile is one read-only file handle shared by the shards of a
// source. The first acquire opens it and the release of the last
// reference closes it, so a k-way scan costs one open instead of k; a
// later acquire reopens the file. Shards read through it with ReadAt,
// which moves no shared offset, so concurrent shard scans never contend.
type sharedFile struct {
	mu   sync.Mutex
	f    *os.File
	refs int
}

// acquire hands out the handle on path, opening it on first use. Every
// successful acquire must be paired with one release.
func (h *sharedFile) acquire(path string) (*os.File, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("edgeio: %w", err)
		}
		h.f = f
	}
	h.refs++
	return h.f, nil
}

// release drops one reference, closing the handle when the last holder
// lets go.
func (h *sharedFile) release() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.refs--
	if h.refs > 0 || h.f == nil {
		return nil
	}
	f := h.f
	h.f = nil
	return f.Close()
}

// BlockShards returns 1..k byte-range shards covering the whole file,
// reading weights when weights is set. Boundaries are a function of the
// file size and k only. Shards open their file handle on first Reset;
// Close each shard (or let the owner stream close them) when done.
func (s *FileSource) BlockShards(k int, weights bool) []*FileShard {
	if k < 1 {
		k = 1
	}
	if s.size > 0 && int64(k) > s.size {
		k = int(s.size)
	}
	backing := make([]FileShard, k)
	shards := make([]*FileShard, k)
	for i := range backing {
		backing[i] = FileShard{
			src:     s,
			lo:      s.size * int64(i) / int64(k),
			hi:      s.size * int64(i+1) / int64(k),
			weights: weights,
		}
		shards[i] = &backing[i]
	}
	return shards
}

// Shards returns BlockShards(k, false) as edge-at-a-time Readers.
func (s *FileSource) Shards(k int) []Reader {
	fileShards := s.BlockShards(k, false)
	out := make([]Reader, len(fileShards))
	for i, sh := range fileShards {
		out[i] = sh
	}
	return out
}

// FileShard reads the lines of one byte range [lo, hi) of the file,
// owning exactly the lines whose first byte is in (lo, hi] — except the
// first shard (lo == 0), which also owns the line at offset 0. A shard
// starting mid-line resyncs to the next line start; the line spanning
// hi is read to completion. It implements Reader, and BlockReader
// with up to fileBlockEdges parsed edges per unnumbered block; its
// block buffers come out of the package pools on first use and go back
// on Close.
type FileShard struct {
	src     *FileSource
	lo, hi  int64
	weights bool // parse and hand out the weight column
	// sr is this shard's private cursor over the source's shared file
	// handle (section [0, ∞) — the shard's own lo/hi bookkeeping bounds
	// the scan). Non-nil sr implies one reference on the source handle.
	sr *io.SectionReader
	rd *bufio.Reader
	// scratch holds lines longer than the read buffer; it is reused
	// across lines and passes so the scan loop stays allocation-free.
	scratch []byte
	off     int64 // offset of the next unread byte
	pending int64 // bytes read but not yet published to src.bytes
	done    bool
	closed  bool

	edgeBox   *[]Edge
	weightBox *[]float64
	err       error // the error Block hands out after its edges
}

// fileBlockEdges is the most parsed edges one FileShard block holds.
const fileBlockEdges = 1024

// publish adds the shard's unpublished byte count to its source.
func (sh *FileShard) publish() {
	if sh.pending != 0 {
		sh.src.bytes.Add(sh.pending)
		sh.pending = 0
	}
}

// Reset implements Reader: it (re)positions the shard at its first
// owned line, opening the file handle on first use. Errors from the
// open, the seek, and the resync read are all reported.
func (sh *FileShard) Reset() error {
	if sh.closed {
		return fmt.Errorf("edgeio: Reset on closed shard of %s", sh.src.path)
	}
	sh.publish()
	sh.err = nil
	if sh.sr == nil {
		f, err := sh.src.file.acquire(sh.src.path)
		if err != nil {
			return err
		}
		sh.sr = io.NewSectionReader(f, 0, 1<<62)
		sh.rd = readerPool.Get().(*bufio.Reader)
	}
	if _, err := sh.sr.Seek(sh.lo, io.SeekStart); err != nil {
		return fmt.Errorf("edgeio: rewinding %s: %w", sh.src.path, err)
	}
	sh.rd.Reset(sh.sr)
	sh.off = sh.lo
	// A zero-width range owns no lines: without this, a degenerate
	// [0, 0) shard would claim the line at offset 0 alongside the
	// shard that really covers it.
	sh.done = sh.hi <= sh.lo
	if sh.done {
		return nil
	}
	if sh.lo > 0 {
		// Resync: the line containing byte lo (or starting exactly at
		// it) belongs to the previous shard; skip through its newline.
		for {
			skipped, err := sh.rd.ReadSlice('\n')
			sh.off += int64(len(skipped))
			sh.pending += int64(len(skipped))
			if err == bufio.ErrBufferFull {
				continue
			}
			if err == io.EOF {
				sh.done = true
			} else if err != nil {
				return fmt.Errorf("edgeio: resyncing %s: %w", sh.src.path, err)
			}
			break
		}
	}
	return nil
}

// NextLine returns the next raw owned line (with its terminator
// stripped; a trailing '\r' from CRLF input is kept for the caller to
// trim) and the byte offset at which it starts, or io.EOF when the
// shard's range is exhausted. Comment and blank lines are returned too.
// The slice aliases the shard's read buffer (or its long-line scratch)
// and is valid only until the next read, so a scan allocates nothing
// per line. It is the layer below edge parsing: the edge readers here
// and the graph loaders scan through it.
func (sh *FileShard) NextLine() ([]byte, int64, error) {
	if sh.closed {
		return nil, 0, fmt.Errorf("edgeio: NextLine on closed shard of %s", sh.src.path)
	}
	if sh.rd == nil {
		if err := sh.Reset(); err != nil {
			return nil, 0, err
		}
	}
	if sh.done || sh.off > sh.hi {
		sh.publish()
		return nil, 0, io.EOF
	}
	start := sh.off
	line, err := sh.rd.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// A line longer than the read buffer: accumulate it in the
		// reusable scratch.
		sh.scratch = append(sh.scratch[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = sh.rd.ReadSlice('\n')
			sh.scratch = append(sh.scratch, line...)
		}
		line = sh.scratch
	}
	sh.off += int64(len(line))
	sh.pending += int64(len(line))
	if err == io.EOF {
		sh.done = true
		if len(line) == 0 {
			sh.publish()
			return nil, 0, io.EOF
		}
	} else if err != nil {
		return nil, 0, fmt.Errorf("edgeio: reading %s: %w", sh.src.path, err)
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	return line, start, nil
}

// next parses the next owned edge and its weight, skipping comments,
// blanks, and self loops.
func (sh *FileShard) next() (Edge, float64, error) {
	for {
		line, start, err := sh.NextLine()
		if err != nil {
			return Edge{}, 0, err
		}
		e, w, skip, perr := ParseEdgeLine(line, sh.weights)
		if perr != nil {
			return Edge{}, 0, fmt.Errorf("edgeio: %s offset %d: %w", sh.src.path, start, perr)
		}
		if !skip {
			return e, w, nil
		}
	}
}

// Next implements Reader.
func (sh *FileShard) Next() (Edge, error) {
	e, _, err := sh.next()
	return e, err
}

// Blocks implements BlockReader: a text shard's blocks are unnumbered.
func (sh *FileShard) Blocks() (lo, hi int) { return 0, Unnumbered }

// Block implements BlockReader, parsing the shard's next block of
// owned edges whatever the number asked for.
func (sh *FileShard) Block(int) ([]Edge, []float64, error) {
	if sh.closed {
		return nil, nil, fmt.Errorf("edgeio: Block on closed shard of %s", sh.src.path)
	}
	if sh.err != nil {
		return nil, nil, sh.err
	}
	edges := pooled(&sh.edgeBox, &edgePool, fileBlockEdges)[:0]
	var weights []float64
	if sh.weights {
		weights = pooled(&sh.weightBox, &weightPool, fileBlockEdges)[:0]
	}
	for len(edges) < fileBlockEdges {
		e, w, err := sh.next()
		if err != nil {
			if len(edges) == 0 {
				return nil, nil, err
			}
			sh.err = err
			break
		}
		edges = append(edges, e)
		if sh.weights {
			weights = append(weights, w)
		}
	}
	return edges, weights, nil
}

// Close publishes the shard's byte count, returns its read and block
// buffers to the pools and drops its reference on the source's shared
// handle (the last shard to close releases the file). It is idempotent.
func (sh *FileShard) Close() error {
	if sh.closed {
		return nil
	}
	sh.closed = true
	sh.publish()
	release(&sh.edgeBox, &edgePool)
	release(&sh.weightBox, &weightPool)
	if sh.rd != nil {
		sh.rd.Reset(nil)
		readerPool.Put(sh.rd)
		sh.rd = nil
	}
	if sh.sr == nil {
		return nil
	}
	sh.sr = nil
	return sh.src.file.release()
}
