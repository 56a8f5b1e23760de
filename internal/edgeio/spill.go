package edgeio

import (
	"fmt"
	"os"
	"sort"
)

// Spill files are the MapReduce engine's overflow storage: when a
// Dataset partition exceeds its memory budget it is written to disk and
// read back through the same BinaryShard that reads graph files. They
// use the binary columnar block format ("BSG1", see binary.go): the
// block index in the footer keeps a spilled partition seekable by
// record number — the map phase scans arbitrary record ranges without
// reading from the start — while delta-varint blocks shrink the
// on-disk footprint of the sorted runs the engine typically spills.

// spillBlockEdges keeps spill blocks small (8 KiB fixed-width): a
// record-range scan decodes at most one block it only partly needs at
// each end.
const spillBlockEdges = 1024

// SpillWriter streams edges into a spill file. Errors are latched and
// reported by Close, so the hot append path stays branch-light.
type SpillWriter struct {
	bw   *BinaryWriter
	path string
}

// CreateSpill creates (truncating) a spill file at path.
func CreateSpill(path string) (*SpillWriter, error) {
	bw, err := CreateBinary(path, false)
	if err != nil {
		return nil, err
	}
	bw.SetBlockEdges(spillBlockEdges)
	return &SpillWriter{bw: bw, path: path}, nil
}

// Append writes one edge record. Records are stored verbatim — the
// engine spills arbitrary int32 pairs, not validated graph edges.
func (w *SpillWriter) Append(e Edge) { w.bw.Append(e) }

// Close finalizes the file and returns its descriptor, or the first
// error hit anywhere in the write path (the partial file is removed).
func (w *SpillWriter) Close() (*SpillFile, error) {
	records := int(w.bw.Edges())
	if err := w.bw.Close(); err != nil {
		return nil, err
	}
	// The writer's index is final only after Close flushed the last
	// partial block.
	index := w.bw.index
	st, err := os.Stat(w.path)
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	return &SpillFile{
		Path:    w.path,
		Records: records,
		Bytes:   st.Size(),
		src: &BinaryFileSource{meta: &binaryMeta{
			path:     w.path,
			size:     st.Size(),
			nodes:    int64(w.bw.maxID) + 1,
			edges:    int64(records),
			index:    index,
			maxCount: maxBlockCount(index),
		}},
	}, nil
}

func maxBlockCount(index []blockRef) int {
	m := 0
	for _, b := range index {
		if b.count > m {
			m = b.count
		}
	}
	return m
}

// SpillFile describes one completed spill file on disk. Bytes is the
// on-disk size including the format's header, index, and trailer.
type SpillFile struct {
	Path    string
	Records int
	Bytes   int64

	src *BinaryFileSource // buffered reads
}

// OpenSpill rebuilds a SpillFile descriptor from a file on disk,
// validating the format and recovering the record count from the block
// index — the restart path: a MapReduce checkpoint references its
// partition files by path alone, and the resumed run reopens them here
// without the writer that produced them.
func OpenSpill(path string) (*SpillFile, error) {
	src, err := OpenBinaryFileSource(path)
	if err != nil {
		return nil, err
	}
	return &SpillFile{
		Path:    path,
		Records: int(src.meta.edges),
		Bytes:   src.meta.size,
		src:     src,
	}, nil
}

// Each calls fn for records [lo, hi) of the file, in order: a binary
// search of the block index finds lo's block, and one buffered
// BinaryShard decodes from there. A SpillFile may serve any number of
// concurrent Each calls.
func (sp *SpillFile) Each(lo, hi int, fn func(Edge)) error {
	if lo < 0 || hi > sp.Records || lo > hi {
		return fmt.Errorf("edgeio: spill range [%d,%d) outside [0,%d]", lo, hi, sp.Records)
	}
	index := sp.src.meta.index
	// First block whose record range extends past lo.
	b := sort.Search(len(index), func(i int) bool {
		return index[i].first+int64(index[i].count) > int64(lo)
	})
	sh := BinaryShard{src: sp.src, lo: b, hi: len(index)}
	defer sh.Close()
	for rec := lo; rec < hi; b++ {
		edges, _, err := sh.Block(b)
		if err != nil {
			return err
		}
		first := int(index[b].first)
		for _, e := range edges[rec-first : min(len(edges), hi-first)] {
			fn(e)
		}
		rec = first + len(edges)
	}
	return nil
}

// Remove deletes the file from disk.
func (sp *SpillFile) Remove() error { return os.Remove(sp.Path) }
