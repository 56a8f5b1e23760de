package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"densestream/internal/edgeio"
)

// writeLoadInput writes m heavy-tailed random edges to a file in dir:
// kind "text" has numeric labels, "strings" has "n123"-style labels,
// and "bsg1" is the binary format.
func writeLoadInput(tb testing.TB, dir, kind string, m int) string {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(m)))
	n := float64(m/4 + 1)
	node := func() int32 {
		x := rng.Float64()
		return int32(n * x * x)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d", kind, m))
	if kind == "bsg1" {
		w, err := edgeio.CreateBinary(path, false)
		if err != nil {
			tb.Fatal(err)
		}
		for range m {
			w.Append(edgeio.Edge{U: node(), V: node()})
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
		return path
	}
	prefix := ""
	if kind == "strings" {
		prefix = "n"
	}
	var buf bytes.Buffer
	for range m {
		fmt.Fprintf(&buf, "%s%d\t%s%d\n", prefix, node(), prefix, node())
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestReadFileAllocs checks that a load's heap objects do not grow
// with its line count: the tokenizer allocates nothing per line, and
// the buffers a load fills grow by doubling blocks.
func TestReadFileAllocs(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"text", "bsg1"} {
		var allocs []float64
		for _, m := range []int{10000, 40000} {
			path := writeLoadInput(t, dir, kind, m)
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				if _, _, err := ReadUndirectedFile(path, false, 2); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if allocs[1]-allocs[0] > 32 {
			t.Errorf("%s: %v objects at 10K edges, %v at 40K", kind, allocs[0], allocs[1])
		}
	}
}

// BenchmarkReadFile loads 500K heavy-tailed edges from numeric text,
// string-label text and BSG1 files.
func BenchmarkReadFile(b *testing.B) {
	dir := b.TempDir()
	for _, kind := range []string{"text", "strings", "bsg1"} {
		path := writeLoadInput(b, dir, kind, 500000)
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := ReadUndirectedFile(path, false, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
