package graph

import (
	"errors"
	"fmt"
	"io"
	"os"

	"densestream/internal/edgeio"
	"densestream/internal/par"
)

// Sharded file loading: the tokenizer runs on shards of the file —
// byte ranges of a text edge list (through the edgeio layer), or block
// ranges of a BSG1 file — one part per shard, while the fold interns
// the parts in shard order. Because the shards together yield exactly
// the file's lines (or records) in order, the interned ids, the edge
// order, and therefore the frozen graph are bit-identical to the
// sequential ReadUndirected/ReadDirected on the same bytes.

// errLongLine stops a shard at a line the sequential scanner rejects.
var errLongLine = errors.New("line too long")

// ReadUndirectedFile parses an undirected edge-list file with the line
// scan sharded across workers (the sequential ReadUndirected is the
// fallback on any parse error, so error reporting keeps its line
// numbers). Output is bit-identical to ReadUndirected on the same
// bytes for every worker count.
func ReadUndirectedFile(path string, weighted bool, workers int) (*Undirected, *LabelMap, error) {
	parts, err := readFile(path, weighted, workers)
	if err != nil {
		return nil, nil, err
	}
	return buildUndirected(parts, weighted)
}

// ReadDirectedFile is ReadUndirectedFile for directed edge lists.
func ReadDirectedFile(path string, workers int) (*Directed, *LabelMap, error) {
	parts, err := readFile(path, false, workers)
	if err != nil {
		return nil, nil, err
	}
	return buildDirected(parts)
}

// readFile tokenizes a BSG1 or text file into parts in file order.
func readFile(path string, weighted bool, workers int) ([]*edgeTokens, error) {
	if isBin, err := edgeio.DetectBinary(path); err == nil && isBin {
		return readBinary(path, weighted, workers)
	}
	if parts, err := scanTextShards(path, weighted, workers); err == nil {
		return parts, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return tokenizeText(f, weighted)
}

// scanTextShards tokenizes a text file on byte-range shards. Any error
// is returned as-is: the caller then re-reads the file sequentially,
// which reports the canonical error, with a line number for a parse
// error.
func scanTextShards(path string, weighted bool, workers int) ([]*edgeTokens, error) {
	src, err := edgeio.OpenFileSource(path)
	if err != nil {
		return nil, err
	}
	shards := src.BlockShards(par.Clamp(workers), false)
	return tokenizeShards(len(shards), workers, weighted, func(i int, t *edgeTokens) error {
		sh := shards[i]
		defer sh.Close()
		for {
			line, _, err := sh.NextLine()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if len(line) >= maxLineBytes {
				return errLongLine
			}
			if err := t.addLine(line); err != nil {
				return err
			}
		}
	})
}

// tokenizeShards runs scan on every shard across workers, each filling
// its own part, and returns the parts in shard order or the first
// shard's error in that order.
func tokenizeShards(shards, workers int, weighted bool, scan func(i int, t *edgeTokens) error) ([]*edgeTokens, error) {
	parts := make([]*edgeTokens, shards)
	errs := make([]error, shards)
	pool := par.Acquire(workers)
	defer pool.Release()
	pool.ForEach(shards, func(i int) {
		parts[i] = &edgeTokens{weighted: weighted}
		errs[i] = scan(i, parts[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}
