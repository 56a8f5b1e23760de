package edgeio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
)

// Binary columnar graph format ("BSG1"): the compact on-disk layout of
// the out-of-core layer. A file is a fixed header, a run of columnar
// edge blocks, a block index, and a trailer:
//
//	header   magic "BSG1" | version u16 | flags u16 (bit0 weighted) | nodes u64
//	block    count u32 | payloadLen u32 | encoding u8 | payload
//	index    blockCount × { offset u64 | count u32 }
//	trailer  indexOff u64 | edges u64 | blockCount u32 | magic "BSG1-END"
//
// All integers are little-endian. A block's payload holds the src
// column, then the dst column, then (weighted files only) the float64
// weight column. Encoding 0 is fixed-width: count u32 srcs, count u32
// dsts. Encoding 1 is delta-varint: the first src as a uvarint followed
// by uvarint deltas (the writer uses it only when the block's srcs are
// non-negative and non-decreasing — sorted inputs compress several
// fold), and each dst as an absolute uvarint. Weights are always
// fixed-width float64 bits.
//
// Decoding: decodeBlock is the one decoder of both readers, the
// MapReduce spill reader and the graph loader. It accepts every
// uvarint binary.Uvarint accepts (up to 10 bytes, canonical or not)
// and takes two fast paths for the shapes sorted writers produce: a
// src column whose deltas all fit one byte is checked with one OR and
// widened by a running sum, and dsts of up to 4 bytes are read two per
// 8-byte load. Anything else, malformed input included, is decoded
// value by value, so every error names the same payload byte. No
// decoder read leaves the block. An index entry must claim at most one
// edge per 2 payload bytes (10 on weighted files), so a reader never
// sizes a buffer from a count its block cannot hold.
//
// nodes in the header is maxID+1 over the written edges (0 for an empty
// file), so readers need no discovery pass; the index in the footer
// makes a file seekable by record number and shardable by block range
// without scanning. Edges are stored verbatim — unlike the lenient text
// format there are no comments to skip, and the writer performs no
// graph-level filtering (the graph writers and the converter never emit
// self loops, so files produced by this repository match the text
// parsers' semantics).

const (
	binaryMagic      = "BSG1"
	binaryEndMagic   = "BSG1-END"
	binaryVersion    = 1
	binaryFlagWeight = 1 << 0

	binaryHeaderSize  = 16
	binaryBlockHdr    = 9
	binaryIndexEntry  = 12
	binaryTrailerSize = 28

	blockFixed  = 0
	blockVarint = 1

	// DefaultBlockEdges is the writer's default edges-per-block. 8192
	// edges keep a fixed-width unweighted block at 64 KiB — one buffered
	// read — while the index stays tiny (12 bytes per block).
	DefaultBlockEdges = 8192
)

// DetectBinary reports whether the file at path starts with the binary
// graph magic. Short and empty files are simply not binary.
func DetectBinary(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("edgeio: %w", err)
	}
	defer f.Close()
	var buf [4]byte
	if _, err := io.ReadFull(f, buf[:]); err != nil {
		return false, nil
	}
	return string(buf[:]) == binaryMagic, nil
}

// blockRef is one index entry held in memory: where a block starts,
// how many edges it holds, and the record number of its first edge.
type blockRef struct {
	off   int64
	count int
	first int64
}

// binaryMeta is the decoded header + index of one binary file.
type binaryMeta struct {
	path     string
	size     int64
	weighted bool
	nodes    int64
	edges    int64
	index    []blockRef
	maxCount int // largest block edge count, for sizing decode buffers
}

// BinaryWriter streams edges into a binary columnar file. Errors are
// latched and reported by Close, mirroring the text spill writer: the
// hot append path stays branch-light.
type BinaryWriter struct {
	f        *os.File
	w        *bufio.Writer
	path     string
	weighted bool

	blockEdges int
	srcs       []int32
	dsts       []int32
	weights    []float64
	scratch    []byte

	off    int64 // file offset of the next block
	edges  int64
	maxID  int32
	index  []blockRef
	closed bool
	err    error
}

// CreateBinary creates (truncating) a binary graph file at path. A
// weighted file stores a float64 weight column per block; Append on a
// weighted writer records weight 1, and AppendWeighted on an unweighted
// writer drops the weight — the same defaulting the text parsers apply.
func CreateBinary(path string, weighted bool) (*BinaryWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	w := &BinaryWriter{
		f:          f,
		w:          bufio.NewWriterSize(f, 1<<16),
		path:       path,
		weighted:   weighted,
		blockEdges: DefaultBlockEdges,
		maxID:      -1,
	}
	var hdr [binaryHeaderSize]byte
	w.encodeHeader(hdr[:])
	if _, err := w.w.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	w.off = binaryHeaderSize
	return w, nil
}

func (w *BinaryWriter) encodeHeader(hdr []byte) {
	copy(hdr, binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binaryVersion)
	flags := uint16(0)
	if w.weighted {
		flags |= binaryFlagWeight
	}
	binary.LittleEndian.PutUint16(hdr[6:8], flags)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(int64(w.maxID)+1))
}

// SetBlockEdges overrides the edges-per-block (before the first block
// fills). Small blocks are for boundary tests; the default suits disk.
func (w *BinaryWriter) SetBlockEdges(n int) {
	if n < 1 {
		n = 1
	}
	w.blockEdges = n
}

// Append buffers one unweighted edge (weight 1 in a weighted file).
func (w *BinaryWriter) Append(e Edge) {
	w.AppendWeighted(WeightedEdge{U: e.U, V: e.V, Weight: 1})
}

// AppendWeighted buffers one weighted edge (the weight is dropped in an
// unweighted file).
func (w *BinaryWriter) AppendWeighted(e WeightedEdge) {
	if w.err != nil {
		return
	}
	w.srcs = append(w.srcs, e.U)
	w.dsts = append(w.dsts, e.V)
	if w.weighted {
		w.weights = append(w.weights, e.Weight)
	}
	if e.U > w.maxID {
		w.maxID = e.U
	}
	if e.V > w.maxID {
		w.maxID = e.V
	}
	w.edges++
	if len(w.srcs) >= w.blockEdges {
		w.flushBlock()
	}
}

// flushBlock encodes and writes the buffered edges as one block.
func (w *BinaryWriter) flushBlock() {
	if w.err != nil || len(w.srcs) == 0 {
		return
	}
	count := len(w.srcs)
	enc := byte(blockFixed)
	if srcsMonotonic(w.srcs) {
		enc = blockVarint
	}
	w.scratch = w.scratch[:0]
	switch enc {
	case blockVarint:
		var tmp [binary.MaxVarintLen64]byte
		prev := int64(w.srcs[0])
		w.scratch = append(w.scratch, tmp[:binary.PutUvarint(tmp[:], uint64(prev))]...)
		for _, u := range w.srcs[1:] {
			w.scratch = append(w.scratch, tmp[:binary.PutUvarint(tmp[:], uint64(int64(u)-prev))]...)
			prev = int64(u)
		}
		for _, v := range w.dsts {
			w.scratch = append(w.scratch, tmp[:binary.PutUvarint(tmp[:], uint64(uint32(v)))]...)
		}
	default:
		need := count * 8
		if cap(w.scratch) < need {
			w.scratch = make([]byte, 0, need)
		}
		for _, u := range w.srcs {
			w.scratch = binary.LittleEndian.AppendUint32(w.scratch, uint32(u))
		}
		for _, v := range w.dsts {
			w.scratch = binary.LittleEndian.AppendUint32(w.scratch, uint32(v))
		}
	}
	if w.weighted {
		for _, wt := range w.weights {
			w.scratch = binary.LittleEndian.AppendUint64(w.scratch, math.Float64bits(wt))
		}
	}
	var hdr [binaryBlockHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(count))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(w.scratch)))
	hdr[8] = enc
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		w.err = err
		return
	}
	w.index = append(w.index, blockRef{off: w.off, count: count, first: w.edges - int64(count)})
	w.off += int64(binaryBlockHdr + len(w.scratch))
	w.srcs = w.srcs[:0]
	w.dsts = w.dsts[:0]
	w.weights = w.weights[:0]
}

// srcsMonotonic reports whether the src column is non-negative and
// non-decreasing — the precondition of the delta-varint encoding.
func srcsMonotonic(srcs []int32) bool {
	if len(srcs) == 0 || srcs[0] < 0 {
		return false
	}
	for i := 1; i < len(srcs); i++ {
		if srcs[i] < srcs[i-1] {
			return false
		}
	}
	return true
}

// Close flushes the last block, writes the index and trailer, patches
// the header's node count, and closes the file. On any latched error
// the partial file is removed. Close is not idempotent — call it once.
func (w *BinaryWriter) Close() error {
	if w.closed {
		return fmt.Errorf("edgeio: BinaryWriter for %s closed twice", w.path)
	}
	w.closed = true
	w.flushBlock()
	if w.err == nil {
		indexOff := w.off
		var buf [binaryIndexEntry]byte
		for _, b := range w.index {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(b.off))
			binary.LittleEndian.PutUint32(buf[8:12], uint32(b.count))
			if _, err := w.w.Write(buf[:]); err != nil {
				w.err = err
				break
			}
		}
		if w.err == nil {
			var tr [binaryTrailerSize]byte
			binary.LittleEndian.PutUint64(tr[0:8], uint64(indexOff))
			binary.LittleEndian.PutUint64(tr[8:16], uint64(w.edges))
			binary.LittleEndian.PutUint32(tr[16:20], uint32(len(w.index)))
			copy(tr[20:], binaryEndMagic)
			if _, err := w.w.Write(tr[:]); err != nil {
				w.err = err
			}
		}
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.err == nil {
		// Patch the final node count into the header.
		var hdr [binaryHeaderSize]byte
		w.encodeHeader(hdr[:])
		if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
			w.err = err
		}
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err != nil {
		os.Remove(w.path)
		return fmt.Errorf("edgeio: writing %s: %w", w.path, w.err)
	}
	return nil
}

// Edges returns the number of edges appended so far.
func (w *BinaryWriter) Edges() int64 { return w.edges }

// readBinaryMeta validates the header, trailer, and index of an open
// binary file. Every failure names the byte offset it was detected at.
func readBinaryMeta(f *os.File, path string) (*binaryMeta, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	size := st.Size()
	if size < binaryHeaderSize+binaryTrailerSize {
		return nil, fmt.Errorf("edgeio: %s: truncated binary file: %d bytes, need at least %d", path, size, binaryHeaderSize+binaryTrailerSize)
	}
	var hdr [binaryHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("edgeio: %s: reading header at offset 0: %w", path, err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("edgeio: %s: bad magic %q at offset 0, want %q", path, hdr[:4], binaryMagic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binaryVersion {
		return nil, fmt.Errorf("edgeio: %s: unsupported version %d at offset 4", path, v)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:8])
	if flags&^uint16(binaryFlagWeight) != 0 {
		return nil, fmt.Errorf("edgeio: %s: unknown flags %#x at offset 6", path, flags)
	}
	m := &binaryMeta{
		path:     path,
		size:     size,
		weighted: flags&binaryFlagWeight != 0,
		nodes:    int64(binary.LittleEndian.Uint64(hdr[8:16])),
	}
	if m.nodes < 0 || m.nodes > math.MaxInt32+1 {
		return nil, fmt.Errorf("edgeio: %s: node count %d at offset 8 out of int32 range", path, uint64(m.nodes))
	}
	var tr [binaryTrailerSize]byte
	trOff := size - binaryTrailerSize
	if _, err := f.ReadAt(tr[:], trOff); err != nil {
		return nil, fmt.Errorf("edgeio: %s: reading trailer at offset %d: %w", path, trOff, err)
	}
	if string(tr[20:28]) != binaryEndMagic {
		return nil, fmt.Errorf("edgeio: %s: bad trailer magic %q at offset %d, want %q (truncated file?)", path, tr[20:28], trOff+20, binaryEndMagic)
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	m.edges = int64(binary.LittleEndian.Uint64(tr[8:16]))
	blocks := int64(binary.LittleEndian.Uint32(tr[16:20]))
	if indexOff < binaryHeaderSize || indexOff > trOff {
		return nil, fmt.Errorf("edgeio: %s: index offset %d at offset %d out of range [%d,%d]", path, indexOff, trOff, binaryHeaderSize, trOff)
	}
	if indexOff+blocks*binaryIndexEntry != trOff {
		return nil, fmt.Errorf("edgeio: %s: index at offset %d with %d blocks does not reach the trailer at %d", path, indexOff, blocks, trOff)
	}
	if m.edges < 0 {
		return nil, fmt.Errorf("edgeio: %s: edge count %d at offset %d out of range", path, uint64(m.edges), trOff+8)
	}
	m.index = make([]blockRef, blocks)
	if blocks > 0 {
		raw := make([]byte, blocks*binaryIndexEntry)
		if _, err := f.ReadAt(raw, indexOff); err != nil {
			return nil, fmt.Errorf("edgeio: %s: reading index at offset %d: %w", path, indexOff, err)
		}
		var total, prevEnd int64 = 0, binaryHeaderSize
		for i := range m.index {
			e := raw[i*binaryIndexEntry:]
			off := int64(binary.LittleEndian.Uint64(e[0:8]))
			count := int64(binary.LittleEndian.Uint32(e[8:12]))
			if off < prevEnd || off >= indexOff {
				return nil, fmt.Errorf("edgeio: %s: index entry %d at offset %d: block offset %d out of range [%d,%d)", path, i, indexOff+int64(i)*binaryIndexEntry, off, prevEnd, indexOff)
			}
			if count < 1 {
				return nil, fmt.Errorf("edgeio: %s: index entry %d at offset %d: empty block", path, i, indexOff+int64(i)*binaryIndexEntry)
			}
			m.index[i] = blockRef{off: off, count: int(count), first: total}
			if int(count) > m.maxCount {
				m.maxCount = int(count)
			}
			total += count
			prevEnd = off + binaryBlockHdr
		}
		// Readers size their decode buffers from the largest count, so a
		// count must fit its block's extent: at least one varint byte per
		// src and dst, plus the weight column.
		minBytes := int64(2)
		if m.weighted {
			minBytes += 8
		}
		for i, b := range m.index {
			if payload := m.blockEnd(i) - b.off - binaryBlockHdr; int64(b.count)*minBytes > payload {
				return nil, fmt.Errorf("edgeio: %s: index entry %d at offset %d: %d edges cannot fit the block's %d payload bytes", path, i, indexOff+int64(i)*binaryIndexEntry, b.count, payload)
			}
		}
		if total != m.edges {
			return nil, fmt.Errorf("edgeio: %s: index counts sum to %d, trailer says %d edges", path, total, m.edges)
		}
	} else if m.edges != 0 {
		return nil, fmt.Errorf("edgeio: %s: trailer says %d edges but 0 blocks", path, m.edges)
	}
	return m, nil
}

// blockEnd returns the file offset one past block i's payload (the next
// block's header, or the index for the last block).
func (m *binaryMeta) blockEnd(i int) int64 {
	if i+1 < len(m.index) {
		return m.index[i+1].off
	}
	return m.size - binaryTrailerSize - int64(len(m.index))*binaryIndexEntry
}

// decodeBlock decodes one raw block (header + payload, as laid out on
// disk) into the caller's edge and weight buffers, which must have
// capacity for the block's edge count. weights may be nil to skip the
// weight column, and the returned weights are nil unless the file is
// weighted and weights is not. It reads nothing outside raw, and its
// errors carry the file offset.
func (m *binaryMeta) decodeBlock(i int, raw []byte, edges []Edge, weights []float64) ([]Edge, []float64, error) {
	if len(raw) < binaryBlockHdr {
		return nil, nil, m.blockErr(i, "%d bytes, need %d for the header", len(raw), binaryBlockHdr)
	}
	count := int(binary.LittleEndian.Uint32(raw[0:4]))
	payloadLen := int(binary.LittleEndian.Uint32(raw[4:8]))
	if count != m.index[i].count {
		return nil, nil, m.blockErr(i, "header says %d edges, index says %d", count, m.index[i].count)
	}
	payload := raw[binaryBlockHdr:]
	if payloadLen != len(payload) {
		return nil, nil, m.blockErr(i, "payload length %d does not match the block extent %d", payloadLen, len(payload))
	}
	edges = edges[:count]
	weightBytes := 0
	if m.weighted {
		weightBytes = count * 8
	}
	switch enc := raw[8]; enc {
	case blockFixed:
		if len(payload) != count*8+weightBytes {
			return nil, nil, m.blockErr(i, "fixed payload of %d bytes, want %d", len(payload), count*8+weightBytes)
		}
		src, dst := payload[:count*4], payload[count*4:count*8]
		for j := range edges {
			edges[j] = Edge{U: int32(binary.LittleEndian.Uint32(src[j*4:])), V: int32(binary.LittleEndian.Uint32(dst[j*4:]))}
		}
	case blockVarint:
		if len(payload) < weightBytes {
			return nil, nil, m.blockErr(i, "varint payload of %d bytes, need %d for the weight column", len(payload), weightBytes)
		}
		if err := m.decodeVarints(i, payload[:len(payload)-weightBytes], edges); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, m.blockErr(i, "unknown encoding %d", enc)
	}
	if !m.weighted || weights == nil {
		return edges, nil, nil
	}
	col := payload[len(payload)-weightBytes:]
	weights = weights[:count]
	for j := range weights {
		weights[j] = math.Float64frombits(binary.LittleEndian.Uint64(col[j*8:]))
	}
	return edges, weights, nil
}

// decodeVarints decodes the src and dst columns of a delta-varint
// block, which must fill cols exactly. A value is a uvarint of up to 10
// bytes, canonical or not. The first src is absolute and each later one
// adds its delta modulo 2^64; every src must land in [0, MaxInt32] and
// every dst in [0, MaxUint32]. Two shapes take a fast path: a src
// column whose deltas all fit one byte (the shape sorted writers
// produce) is checked with one OR and widened by a running sum, and a
// dst of at most 4 bytes is decoded from one 4-byte load. Everything
// else, the column tail and every malformed value included, goes
// through binary.Uvarint, so errors name the same payload byte.
func (m *binaryMeta) decodeVarints(i int, cols []byte, edges []Edge) error {
	prev, pos := binary.Uvarint(cols)
	if pos <= 0 {
		return m.blockErr(i, "bad src varint at payload byte 0")
	}
	if prev > math.MaxInt32 {
		return m.blockErr(i, "src id %d out of int32 range", int64(prev))
	}
	edges[0].U = int32(prev)
	j := 1
	if rest := cols[pos:min(pos+len(edges)-1, len(cols))]; len(rest) == len(edges)-1 && oneByteValues(rest) {
		sum := prev
		dst := edges[1:][:len(rest)]
		for k, d := range rest {
			sum += uint64(d)
			dst[k].U = int32(sum)
		}
		// The sum only grows, so its end is its maximum; past MaxInt32
		// the careful loop finds the first id out of range.
		if sum <= math.MaxInt32 {
			prev, pos, j = sum, pos+len(rest), len(edges)
		}
	}
	for ; j < len(edges); j++ {
		d, n := binary.Uvarint(cols[pos:])
		if n <= 0 {
			return m.blockErr(i, "bad src varint at payload byte %d", pos)
		}
		pos += n
		prev += d
		if prev > math.MaxInt32 {
			return m.blockErr(i, "src id %d out of int32 range", int64(prev))
		}
		edges[j].U = int32(prev)
	}
	for j := 0; j < len(edges); j++ {
		if pos+8 <= len(cols) && j+1 < len(edges) {
			// Two values of at most 4 bytes each from one 8-byte load.
			x := binary.LittleEndian.Uint64(cols[pos:])
			stop := ^x & 0x8080808080808080
			stop2 := stop & (stop - 1)
			n1 := bits.TrailingZeros64(stop)>>3 + 1
			n2 := bits.TrailingZeros64(stop2)>>3 + 1
			if n1 <= 4 && n2-n1 <= 4 {
				edges[j].V = int32(packVarint(uint32(x & (stop ^ (stop - 1)))))
				edges[j+1].V = int32(packVarint(uint32((x & (stop2 ^ (stop2 - 1))) >> (8 * n1))))
				pos += n2
				j++
				continue
			}
		}
		if pos+4 <= len(cols) {
			x := binary.LittleEndian.Uint32(cols[pos:])
			if stop := ^x & 0x80808080; stop != 0 {
				edges[j].V = int32(packVarint(x & (stop ^ (stop - 1))))
				pos += bits.TrailingZeros32(stop)>>3 + 1
				continue
			}
		}
		d, n := binary.Uvarint(cols[pos:])
		if n <= 0 {
			return m.blockErr(i, "bad dst varint at payload byte %d", pos)
		}
		pos += n
		if d > math.MaxUint32 {
			return m.blockErr(i, "dst id %d out of range", d)
		}
		edges[j].V = int32(uint32(d))
	}
	if pos != len(cols) {
		return m.blockErr(i, "%d trailing payload bytes", len(cols)-pos)
	}
	return nil
}

// packVarint returns the value of a uvarint of at most 4 bytes given
// its bytes, little-endian, with every byte after its last zeroed.
func packVarint(x uint32) uint32 {
	return x&0x7f | x>>1&0x3f80 | x>>2&0x1fc000 | x>>3&0xfe00000
}

// oneByteValues reports whether every byte of b is a whole one-byte
// uvarint, that is, has its continuation bit clear.
func oneByteValues(b []byte) bool {
	var acc uint64
	for ; len(b) >= 8; b = b[8:] {
		acc |= binary.LittleEndian.Uint64(b)
	}
	for _, c := range b {
		acc |= uint64(c)
	}
	return acc&0x8080808080808080 == 0
}

// blockErr formats an error about block i, naming its file offset.
func (m *binaryMeta) blockErr(i int, format string, args ...any) error {
	return fmt.Errorf("edgeio: %s: block %d at offset %d: %s", m.path, i, m.index[i].off, fmt.Sprintf(format, args...))
}
