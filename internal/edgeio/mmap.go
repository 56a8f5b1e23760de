package edgeio

import (
	"fmt"
	"os"
)

// OpenMmapSource opens, validates, and maps the binary file at path:
// its shards decode blocks straight out of the mapping — no file
// handles per shard and no read syscalls per block. On platforms
// without mmap support (or when the mapping fails) the error reports
// why; use OpenBinarySource for automatic fallback to buffered reads.
func OpenMmapSource(path string) (*BinaryFileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	defer f.Close()
	meta, err := readBinaryMeta(f, path)
	if err != nil {
		return nil, &formatError{err: err}
	}
	data, err := mmapFile(f, meta.size)
	if err != nil {
		return nil, fmt.Errorf("edgeio: mmap %s: %w", path, err)
	}
	return &BinaryFileSource{meta: meta, mapped: true, data: data}, nil
}
