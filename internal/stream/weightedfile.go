package stream

import (
	"fmt"

	"densestream/internal/edgeio"
)

// WeightedFileStream streams weighted edges from a graph file,
// re-reading it every pass. Like FileStream, the format is detected
// from the magic bytes: text "u v w" edge lists (a missing third
// column defaults to weight 1, so unweighted files work too) or binary
// columnar files (an unweighted binary file serves weight 1 the same
// way).
//
// It implements ShardedWeightedStream: WeightedShards(k) cuts the file
// into ranges, one cursor per shard, memoized per k. Close releases
// every handle and is idempotent.
type WeightedFileStream struct {
	path     string
	n        int
	bytesFn  func() int64
	closeSrc func() error // binary sources only; nil for text
	shardsFn func(k int) []edgeio.WeightedReader
	seq      edgeio.WeightedReader
	shards   []edgeio.WeightedReader
	wrap     []WeightedEdgeStream
	shardK   int
	closed   bool
}

// OpenWeightedFileStream opens path, detecting the format by magic
// bytes, and positions the stream for the first pass.
func OpenWeightedFileStream(path string) (*WeightedFileStream, error) {
	isBin, err := edgeio.DetectBinary(path)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if isBin {
		bs, err := edgeio.OpenBinarySource(path)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		ws := &WeightedFileStream{
			path:     path,
			n:        bs.Nodes(),
			bytesFn:  bs.BytesScanned,
			closeSrc: bs.Close,
			shardsFn: bs.WeightedShards,
			seq:      bs.WeightedShards(1)[0],
		}
		if err := ws.seq.Reset(); err != nil {
			bs.Close()
			return nil, fmt.Errorf("stream: %w", err)
		}
		return ws, nil
	}
	src, err := edgeio.OpenFileSource(path)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	ws := &WeightedFileStream{
		path:     path,
		bytesFn:  src.BytesScanned,
		shardsFn: src.WeightedShards,
		seq:      src.SequentialWeightedReader(),
	}
	maxID, err := edgeio.MaxNodeIDWeighted(ws.seq)
	if err != nil {
		closeReader(ws.seq)
		return nil, fmt.Errorf("stream: %w", err)
	}
	ws.n = int(maxID + 1)
	if err := ws.seq.Reset(); err != nil {
		closeReader(ws.seq)
		return nil, fmt.Errorf("stream: %w", err)
	}
	return ws, nil
}

// NumNodes implements WeightedEdgeStream.
func (ws *WeightedFileStream) NumNodes() int { return ws.n }

// Reset implements WeightedEdgeStream; seek errors are propagated, and
// Reset after Close is an error.
func (ws *WeightedFileStream) Reset() error {
	if ws.closed {
		return fmt.Errorf("stream: Reset on closed WeightedFileStream %s", ws.path)
	}
	if err := ws.seq.Reset(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// Next implements WeightedEdgeStream.
func (ws *WeightedFileStream) Next() (WeightedEdge, error) { return ws.seq.Next() }

// WeightedShards implements ShardedWeightedStream; see
// FileStream.Shards for the sharding and memoization contract.
func (ws *WeightedFileStream) WeightedShards(k int) []WeightedEdgeStream {
	if k < 1 {
		k = 1
	}
	if ws.closed {
		return []WeightedEdgeStream{&weightedErrorStream{n: ws.n, err: fmt.Errorf("stream: WeightedShards on closed WeightedFileStream %s", ws.path)}}
	}
	if ws.wrap == nil || ws.shardK != k {
		for _, sh := range ws.shards {
			closeReader(sh)
		}
		ws.shards = ws.shardsFn(k)
		ws.shardK = k
		ws.wrap = make([]WeightedEdgeStream, len(ws.shards))
		for i, sh := range ws.shards {
			ws.wrap[i] = &weightedReaderStream{n: ws.n, r: sh}
		}
	}
	return ws.wrap
}

// BytesScanned reports the cumulative bytes this stream has read from
// disk across discovery (text only) and every pass; binary blocks the
// scan skips as dead are not read and not counted.
func (ws *WeightedFileStream) BytesScanned() int64 { return ws.bytesFn() }

// Close releases every handle held by the stream and its shards, and
// unmaps a mapped binary source. It is idempotent.
func (ws *WeightedFileStream) Close() error {
	if ws.closed {
		return nil
	}
	ws.closed = true
	err := closeReader(ws.seq)
	for _, sh := range ws.shards {
		if cerr := closeReader(sh); err == nil {
			err = cerr
		}
	}
	if ws.closeSrc != nil {
		if cerr := ws.closeSrc(); err == nil {
			err = cerr
		}
	}
	return err
}

// closeReader closes a reader that optionally implements io.Closer.
func closeReader(r any) error {
	if c, ok := r.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// weightedReaderStream adapts an edgeio.WeightedReader shard to the
// WeightedEdgeStream shape.
type weightedReaderStream struct {
	n int
	r edgeio.WeightedReader
}

// NumNodes implements WeightedEdgeStream.
func (s *weightedReaderStream) NumNodes() int { return s.n }

// Reset implements WeightedEdgeStream.
func (s *weightedReaderStream) Reset() error { return s.r.Reset() }

// Next implements WeightedEdgeStream.
func (s *weightedReaderStream) Next() (WeightedEdge, error) { return s.r.Next() }

// weightedErrorStream fails on Reset, reporting misuse of a closed
// stream through the scan's normal error path.
type weightedErrorStream struct {
	n   int
	err error
}

// NumNodes implements WeightedEdgeStream.
func (s *weightedErrorStream) NumNodes() int { return s.n }

// Reset implements WeightedEdgeStream.
func (s *weightedErrorStream) Reset() error { return s.err }

// Next implements WeightedEdgeStream.
func (s *weightedErrorStream) Next() (WeightedEdge, error) { return WeightedEdge{}, s.err }
