package edgeio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeBinaryFile writes edges into a fresh binary file and returns its
// path.
func writeBinaryFile(t *testing.T, dir, name string, edges []WeightedEdge, weighted bool, blockEdges int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	w, err := CreateBinary(path, weighted)
	if err != nil {
		t.Fatalf("CreateBinary: %v", err)
	}
	if blockEdges > 0 {
		w.SetBlockEdges(blockEdges)
	}
	for _, e := range edges {
		w.AppendWeighted(e)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

func drainBinary(t *testing.T, r Reader) []Edge {
	t.Helper()
	if err := r.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var out []Edge
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, e)
	}
}

func drainBinaryWeighted(t *testing.T, r BlockReader) []WeightedEdge {
	t.Helper()
	out, err := drainBlocks(r)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	return out
}

// binaryCases is the round-trip corpus: edge-case shapes plus both
// encodings, exercised by several tests.
func binaryCases() []struct {
	name       string
	edges      []WeightedEdge
	weighted   bool
	blockEdges int
} {
	var many []WeightedEdge
	for i := 0; i < 1000; i++ {
		many = append(many, WeightedEdge{U: int32(i / 3), V: int32((i * 7) % 900), Weight: 1})
	}
	var nonmono []WeightedEdge
	for i := 0; i < 100; i++ {
		nonmono = append(nonmono, WeightedEdge{U: int32(99 - i), V: int32(i), Weight: 1})
	}
	var weightedEdges []WeightedEdge
	for i := 0; i < 257; i++ {
		weightedEdges = append(weightedEdges, WeightedEdge{U: int32(i), V: int32(i + 1), Weight: 0.5 * float64(1+i%4)})
	}
	return []struct {
		name       string
		edges      []WeightedEdge
		weighted   bool
		blockEdges int
	}{
		{name: "empty", edges: nil},
		{name: "single", edges: []WeightedEdge{{U: 3, V: 7, Weight: 1}}},
		{name: "id-extremes", edges: []WeightedEdge{
			{U: 0, V: math.MaxInt32, Weight: 1},
			{U: math.MaxInt32, V: 0, Weight: 1},
			{U: 0, V: 0, Weight: 1},
		}},
		{name: "monotonic-varint", edges: many, blockEdges: 64},
		{name: "nonmonotonic-fixed", edges: nonmono, blockEdges: 16},
		{name: "weighted", edges: weightedEdges, weighted: true, blockEdges: 50},
		{name: "weighted-nonmono", edges: nonmono, weighted: true, blockEdges: 7},
		{name: "one-edge-blocks", edges: many[:33], blockEdges: 1},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range binaryCases() {
		t.Run(tc.name, func(t *testing.T) {
			path := writeBinaryFile(t, dir, tc.name+".bsg", tc.edges, tc.weighted, tc.blockEdges)
			isBin, err := DetectBinary(path)
			if err != nil || !isBin {
				t.Fatalf("DetectBinary = %v, %v", isBin, err)
			}
			src, err := OpenBinarySource(path)
			if err != nil {
				t.Fatal(err)
			}
			wantNodes := 0
			for _, e := range tc.edges {
				if int(e.U)+1 > wantNodes {
					wantNodes = int(e.U) + 1
				}
				if int(e.V)+1 > wantNodes {
					wantNodes = int(e.V) + 1
				}
			}
			if src.Nodes() != wantNodes || src.NumEdges() != int64(len(tc.edges)) || src.Weighted() != tc.weighted {
				t.Fatalf("meta: nodes=%d edges=%d weighted=%v, want %d/%d/%v",
					src.Nodes(), src.NumEdges(), src.Weighted(), wantNodes, len(tc.edges), tc.weighted)
			}
			// Every shard count must reproduce the sequence in order.
			for k := 1; k <= 5; k++ {
				var got []Edge
				for _, sh := range src.Shards(k) {
					got = append(got, drainBinary(t, sh)...)
				}
				if len(got) != len(tc.edges) {
					t.Fatalf("k=%d: %d edges, want %d", k, len(got), len(tc.edges))
				}
				for i, e := range got {
					if e.U != tc.edges[i].U || e.V != tc.edges[i].V {
						t.Fatalf("k=%d edge %d: got (%d,%d), want (%d,%d)", k, i, e.U, e.V, tc.edges[i].U, tc.edges[i].V)
					}
				}
				var gotW []WeightedEdge
				for _, sh := range src.BlockShards(k, true) {
					gotW = append(gotW, drainBinaryWeighted(t, sh)...)
				}
				for i, e := range gotW {
					want := 1.0
					if tc.weighted {
						want = tc.edges[i].Weight
					}
					if e.U != tc.edges[i].U || e.V != tc.edges[i].V || e.Weight != want {
						t.Fatalf("k=%d weighted edge %d: got %+v, want (%d,%d,%g)", k, i, e, tc.edges[i].U, tc.edges[i].V, want)
					}
				}
			}
			// A second pass over the same shards reuses the buffers and
			// yields the same edges (re-scannability).
			sh := src.Shards(1)[0]
			first := drainBinary(t, sh)
			second := drainBinary(t, sh)
			if len(first) != len(second) {
				t.Fatalf("re-scan: %d vs %d edges", len(first), len(second))
			}
			for _, s := range src.Shards(3) {
				if c, ok := s.(interface{ Close() error }); ok {
					c.Close()
				}
			}
		})
	}
}

// TestBinaryEncodingSelection checks the writer picks delta-varint for
// sorted src columns and fixed-width otherwise (first block's encoding
// byte sits right after the 16-byte header and the 8-byte block
// header).
func TestBinaryEncodingSelection(t *testing.T) {
	dir := t.TempDir()
	sorted := []WeightedEdge{{U: 1, V: 9, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 5, V: 0, Weight: 1}}
	unsorted := []WeightedEdge{{U: 5, V: 9, Weight: 1}, {U: 1, V: 2, Weight: 1}}
	for _, tc := range []struct {
		name  string
		edges []WeightedEdge
		enc   byte
	}{
		{"sorted", sorted, blockVarint},
		{"unsorted", unsorted, blockFixed},
	} {
		path := writeBinaryFile(t, dir, tc.name+".bsg", tc.edges, false, 0)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := data[binaryHeaderSize+8]; got != tc.enc {
			t.Errorf("%s: encoding byte %d, want %d", tc.name, got, tc.enc)
		}
		src, err := OpenBinarySource(path)
		if err != nil {
			t.Fatal(err)
		}
		got := drainBinary(t, src.Shards(1)[0])
		for i, e := range got {
			if e.U != tc.edges[i].U || e.V != tc.edges[i].V {
				t.Fatalf("%s edge %d: got (%d,%d)", tc.name, i, e.U, e.V)
			}
		}
	}
}

// TestBinaryTruncation opens every strict prefix of a valid file: all
// must fail cleanly (no panic), and the long-enough ones must say
// where.
func TestBinaryTruncation(t *testing.T) {
	dir := t.TempDir()
	var edges []WeightedEdge
	for i := 0; i < 50; i++ {
		edges = append(edges, WeightedEdge{U: int32(i % 7), V: int32(i), Weight: float64(i) + 0.5})
	}
	path := writeBinaryFile(t, dir, "full.bsg", edges, true, 8)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.bsg")
	for size := 0; size < len(data); size++ {
		if err := os.WriteFile(trunc, data[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBinarySource(trunc); err == nil {
			t.Fatalf("size %d of %d: truncated file opened without error", size, len(data))
		}
	}
	// A representative truncation error names an offset.
	if err := os.WriteFile(trunc, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenBinarySource(trunc)
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("truncation error does not name an offset: %v", err)
	}
}

// TestBinaryTornInput truncates a BSG1 file to 4 KiB under an open
// source: every block read must then fail with an error naming the
// block and its offset. A reader that touched the file's bytes past its
// new end without a read, as a memory mapping does, dies of SIGBUS
// instead.
func TestBinaryTornInput(t *testing.T) {
	dir := t.TempDir()
	var edges []WeightedEdge
	for i := 0; i < 3*DefaultBlockEdges; i++ {
		edges = append(edges, WeightedEdge{U: int32(i % 1000), V: int32(i % 997), Weight: 1})
	}
	path := writeBinaryFile(t, dir, "torn.bsg", edges, false, 0)
	src, err := OpenBinarySource(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	sh := src.BlockShards(1, false)[0]
	defer sh.Close()
	lo, hi := sh.Blocks()
	if hi-lo != 3 {
		t.Fatalf("%d blocks, want 3", hi-lo)
	}
	for i := lo; i < hi; i++ {
		want := fmt.Sprintf("reading block %d at offset %d: EOF", i, src.meta.index[i].off)
		if _, _, err := sh.Block(i); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("block %d of the torn file: %v, want an error containing %q", i, err, want)
		}
	}
}

// TestBinaryCorruption flips specific fields and checks for the
// documented offset-bearing errors.
func TestBinaryCorruption(t *testing.T) {
	dir := t.TempDir()
	var edges []WeightedEdge
	for i := 0; i < 40; i++ {
		edges = append(edges, WeightedEdge{U: int32(i), V: int32(i * 2), Weight: 1})
	}
	path := writeBinaryFile(t, dir, "base.bsg", edges, false, 10)
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := func(t *testing.T, name string, mutate func([]byte), wantSub string, scan bool) {
		t.Helper()
		data := append([]byte(nil), base...)
		mutate(data)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenBinarySource(p)
		if err == nil && scan {
			sh := src.Shards(1)[0]
			if err = sh.Reset(); err == nil {
				for {
					if _, err = sh.Next(); err != nil {
						break
					}
				}
				if err == io.EOF {
					err = nil
				}
			}
		}
		if err == nil {
			t.Fatalf("%s: corruption not detected", name)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}
	mut(t, "magic.bsg", func(b []byte) { b[0] = 'X' }, "bad magic", false)
	mut(t, "version.bsg", func(b []byte) { b[4] = 99 }, "unsupported version", false)
	mut(t, "flags.bsg", func(b []byte) { b[6] = 0x80 }, "unknown flags", false)
	mut(t, "trailer.bsg", func(b []byte) { b[len(b)-1] ^= 0xff }, "bad trailer magic", false)
	mut(t, "nodes.bsg", func(b []byte) { b[12] = 0xff }, "out of int32 range", false)
	// Block header count disagreeing with the index is a scan-time error.
	mut(t, "blockcount.bsg", func(b []byte) { b[binaryHeaderSize]++ }, "index says", true)
	mut(t, "encoding.bsg", func(b []byte) { b[binaryHeaderSize+8] = 9 }, "unknown encoding", true)
}

// oneBlockFile hand-assembles a BSG1 file of one block whose header,
// index entry and trailer all claim count edges, around the given
// encoding byte and payload.
func oneBlockFile(count uint32, enc byte, payload []byte, weighted bool, nodes uint64) []byte {
	b := []byte(binaryMagic)
	b = binary.LittleEndian.AppendUint16(b, binaryVersion)
	flags := uint16(0)
	if weighted {
		flags = binaryFlagWeight
	}
	b = binary.LittleEndian.AppendUint16(b, flags)
	b = binary.LittleEndian.AppendUint64(b, nodes)
	b = binary.LittleEndian.AppendUint32(b, count)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, enc)
	b = append(b, payload...)
	indexOff := len(b)
	b = binary.LittleEndian.AppendUint64(b, binaryHeaderSize)
	b = binary.LittleEndian.AppendUint32(b, count)
	b = binary.LittleEndian.AppendUint64(b, uint64(indexOff))
	b = binary.LittleEndian.AppendUint64(b, uint64(count))
	b = binary.LittleEndian.AppendUint32(b, 1)
	return append(b, binaryEndMagic...)
}

// TestBinaryOversizedIndexCount: an index entry whose edge count cannot
// fit its block's bytes is rejected at open, naming the entry's offset,
// before any reader sizes a decode buffer from it. The 67-byte file
// claims 2^28 edges in a 2-byte payload.
func TestBinaryOversizedIndexCount(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "huge.bsg")
	data := oneBlockFile(1<<28, blockVarint, []byte{0, 0}, false, 1)
	if len(data) != 67 {
		t.Fatalf("test file is %d bytes, want 67", len(data))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("index entry 0 at offset 27: %d edges cannot fit the block's 2 payload bytes", 1<<28)
	if _, err := OpenBinarySource(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("open: %v, want an error containing %q", err, want)
	}
	// The weighted minimum is 10 bytes per edge: one edge in 9 payload
	// bytes is refused, in 10 it opens.
	for _, tc := range []struct {
		payload int
		ok      bool
	}{{9, false}, {10, true}} {
		data := oneBlockFile(1, blockVarint, make([]byte, tc.payload), true, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBinarySource(path); (err == nil) != tc.ok {
			t.Fatalf("weighted edge in %d payload bytes: open error %v", tc.payload, err)
		}
	}
}

// TestBinaryNotAFile covers text files and short files through the
// binary openers.
func TestBinaryNotAFile(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txt, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if isBin, err := DetectBinary(txt); err != nil || isBin {
		t.Fatalf("DetectBinary on text = %v, %v", isBin, err)
	}
	if _, err := OpenBinarySource(txt); err == nil {
		t.Fatal("text file opened as binary")
	}
	if _, err := DetectBinary(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file not reported")
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("BS"), 0o644); err != nil {
		t.Fatal(err)
	}
	if isBin, err := DetectBinary(short); err != nil || isBin {
		t.Fatalf("DetectBinary on short file = %v, %v", isBin, err)
	}
}

func TestBinaryWriterMisuse(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateBinary(filepath.Join(dir, "no/such/dir/x.bsg"), false); err == nil {
		t.Fatal("CreateBinary in missing directory succeeded")
	}
	path := filepath.Join(dir, "w.bsg")
	w, err := CreateBinary(path, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Edge{U: 1, V: 2})
	if w.Edges() != 1 {
		t.Fatalf("Edges = %d", w.Edges())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("double Close not reported")
	}
}

// TestBinaryConcurrentShards scans disjoint shards from concurrent
// goroutines over several passes — the -race smoke for the shards'
// shared file handle.
func TestBinaryConcurrentShards(t *testing.T) {
	dir := t.TempDir()
	var edges []WeightedEdge
	for i := 0; i < 5000; i++ {
		edges = append(edges, WeightedEdge{U: int32(i % 111), V: int32(i % 97), Weight: 1})
	}
	path := writeBinaryFile(t, dir, "conc.bsg", edges, false, 64)
	src, err := OpenBinarySource(path)
	if err != nil {
		t.Fatal(err)
	}
	shards := src.Shards(8)
	for pass := 0; pass < 3; pass++ {
		var wg sync.WaitGroup
		counts := make([]int64, len(shards))
		for i, sh := range shards {
			wg.Add(1)
			go func(i int, sh Reader) {
				defer wg.Done()
				if err := sh.Reset(); err != nil {
					t.Errorf("shard %d: %v", i, err)
					return
				}
				for {
					_, err := sh.Next()
					if err == io.EOF {
						return
					}
					if err != nil {
						t.Errorf("shard %d: %v", i, err)
						return
					}
					counts[i]++
				}
			}(i, sh)
		}
		wg.Wait()
		var total int64
		for _, c := range counts {
			total += c
		}
		if total != int64(len(edges)) {
			t.Fatalf("pass %d: %d edges, want %d", pass, total, len(edges))
		}
	}
	for _, sh := range shards {
		sh.(io.Closer).Close()
	}
}

// TestBlockRanges checks the shard partition is a cover of [0,nblocks)
// by contiguous, ordered, non-empty-for-k<=n ranges.
func TestBlockRanges(t *testing.T) {
	for nblocks := 0; nblocks <= 20; nblocks++ {
		for k := 1; k <= 25; k++ {
			ranges := blockRanges(nblocks, k)
			if nblocks == 0 {
				if len(ranges) != 1 || ranges[0] != [2]int{0, 0} {
					t.Fatalf("nblocks=0 k=%d: %v", k, ranges)
				}
				continue
			}
			if len(ranges) > k || len(ranges) > nblocks {
				t.Fatalf("nblocks=%d k=%d: %d ranges", nblocks, k, len(ranges))
			}
			prev := 0
			for _, r := range ranges {
				if r[0] != prev || r[1] < r[0] {
					t.Fatalf("nblocks=%d k=%d: bad ranges %v", nblocks, k, ranges)
				}
				prev = r[1]
			}
			if prev != nblocks {
				t.Fatalf("nblocks=%d k=%d: cover ends at %d", nblocks, k, prev)
			}
		}
	}
}

// TestBinaryScanAllocs verifies the zero-alloc steady state: after the
// first pass warms the buffers, further passes allocate nothing,
// whether they pull edges through Next or decode whole blocks through
// Block (with weights, weight column included).
func TestBinaryScanAllocs(t *testing.T) {
	dir := t.TempDir()
	var edges []WeightedEdge
	for i := 0; i < 20000; i++ {
		edges = append(edges, WeightedEdge{U: int32(i / 5), V: int32(i % 4000), Weight: 1 + float64(i%3)})
	}
	path := writeBinaryFile(t, dir, "a.bsg", edges, true, 4096)
	src, err := OpenBinarySource(path)
	if err != nil {
		t.Fatal(err)
	}
	sh := src.Shards(1)[0]
	drainBinary(t, sh) // warm buffers
	n := testing.AllocsPerRun(3, func() {
		if err := sh.Reset(); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := sh.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if n > 0 {
		t.Fatalf("steady-state Next pass allocates %v times", n)
	}
	shards := src.BlockShards(2, true)
	pass := func() {
		for _, sh := range shards {
			lo, hi := sh.Blocks()
			for i := lo; i < hi; i++ {
				if _, w, err := sh.Block(i); err != nil || len(w) == 0 {
					t.Fatalf("block %d: %d weights, error %v", i, len(w), err)
				}
			}
		}
	}
	pass() // warm buffers
	if n := testing.AllocsPerRun(3, pass); n > 0 {
		t.Fatalf("steady-state Block pass allocates %v times", n)
	}
	for _, sh := range shards {
		sh.Close()
	}
	sh.(io.Closer).Close()
}

// TestOpenBinarySourceKind pins the one reader OpenBinarySource
// returns: its shards share one file handle, opened by the first shard
// to read and closed by the last shard's Close, and a later read opens
// it again.
func TestOpenBinarySourceKind(t *testing.T) {
	dir := t.TempDir()
	var edges []WeightedEdge
	for i := 0; i < 1000; i++ {
		edges = append(edges, WeightedEdge{U: int32(i / 3), V: int32(i % 7), Weight: 1})
	}
	path := writeBinaryFile(t, dir, "k.bsg", edges, false, 64)
	src, err := OpenBinarySource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	shards := src.BlockShards(4, false)
	if len(shards) != 4 || src.file.f != nil {
		t.Fatalf("%d shards, handle %v before any read; want 4 and none", len(shards), src.file.f)
	}
	for i, sh := range shards {
		if _, _, err := sh.Block(sh.lo); err != nil {
			t.Fatal(err)
		}
		if sh.f != shards[0].f || src.file.refs != i+1 {
			t.Fatalf("shard %d: handle %p, refs %d; want shard 0's handle %p and %d refs", i, sh.f, src.file.refs, shards[0].f, i+1)
		}
	}
	for _, sh := range shards {
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if src.file.f != nil || src.file.refs != 0 {
		t.Fatalf("after every Close: handle %v, refs %d; want none", src.file.f, src.file.refs)
	}
	again := src.BlockShards(1, false)[0]
	defer again.Close()
	if got := drainBinary(t, again); len(got) != len(edges) {
		t.Fatalf("reopened scan: %d edges, want %d", len(got), len(edges))
	}
}
