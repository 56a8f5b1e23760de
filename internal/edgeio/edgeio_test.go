package edgeio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, content string) *FileSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func drainReader(t *testing.T, r Reader) []Edge {
	t.Helper()
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
	var out []Edge
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

// drainBlocks runs one full block pass over r and returns its edges,
// with weight 1 for a block without a weight column, stopping at the
// first error.
func drainBlocks(r BlockReader) ([]WeightedEdge, error) {
	if err := r.Reset(); err != nil {
		return nil, err
	}
	var out []WeightedEdge
	lo, hi := r.Blocks()
	for b := lo; b < hi; b++ {
		edges, weights, err := r.Block(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		for j, e := range edges {
			w := 1.0
			if weights != nil {
				w = weights[j]
			}
			out = append(out, WeightedEdge{U: e.U, V: e.V, Weight: w})
		}
	}
	return out, nil
}

func sameEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFileShardSweep checks that for every shard count the shards
// together yield exactly the sequential scan, in order, across inputs
// exercising comments, blanks, CRLF, self loops, and a missing
// trailing newline.
func TestFileShardSweep(t *testing.T) {
	contents := []string{
		"0 1\n1 2\n2 3\n3 4\n4 5\n",
		"# header\n0 1\n\n1 2\n% other comment style\n2 2\n2 3\n",
		"0 1\r\n1 2\r\n\r\n2 3\r\n",     // CRLF
		"0 1\n1 2\n2 3",                 // no trailing newline
		"0 1",                           // single line, no newline
		"",                              // empty file
		"# only a comment\n",            //
		"10 11\n11 12\n10 12\n12 13\n#", // trailing comment without newline
	}
	for ci, content := range contents {
		src := writeFile(t, content)
		want := drainReader(t, src.BlockShards(1, false)[0])
		for k := 1; k <= 9; k++ {
			var got []Edge
			for _, sh := range src.BlockShards(k, false) {
				got = append(got, drainReader(t, sh)...)
				sh.Close()
			}
			if !sameEdges(got, want) {
				t.Fatalf("content %d k=%d: shards gave %v, sequential %v", ci, k, got, want)
			}
		}
	}
}

// TestFileShardEverySplitPoint drives a two-shard split at every byte
// boundary of the file — including boundaries landing mid-line and
// exactly on line starts — and checks the pair always reproduces the
// sequential scan.
func TestFileShardEverySplitPoint(t *testing.T) {
	content := "0 1\n# c\n1 2\r\n\n22 33\n3 4"
	src := writeFile(t, content)
	want := drainReader(t, src.BlockShards(1, false)[0])
	size := src.Size()
	for b := int64(0); b <= size; b++ {
		left := &FileShard{src: src, lo: 0, hi: b}
		right := &FileShard{src: src, lo: b, hi: size}
		got := append(drainReader(t, left), drainReader(t, right)...)
		left.Close()
		right.Close()
		if !sameEdges(got, want) {
			t.Fatalf("split at byte %d: %v, want %v", b, got, want)
		}
	}
}

// TestFileShardRescan checks shards survive repeated Reset/scan cycles
// (the streaming peelers re-scan every pass) and that Close is
// idempotent with Reset failing afterwards.
func TestFileShardRescan(t *testing.T) {
	src := writeFile(t, "0 1\n1 2\n2 3\n3 0\n")
	shards := src.BlockShards(3, false)
	var first []Edge
	for pass := 0; pass < 3; pass++ {
		var got []Edge
		for _, sh := range shards {
			got = append(got, drainReader(t, sh)...)
		}
		if pass == 0 {
			first = got
		} else if !sameEdges(got, first) {
			t.Fatalf("pass %d: %v != first pass %v", pass, got, first)
		}
	}
	if len(first) != 4 {
		t.Fatalf("got %d edges, want 4", len(first))
	}
	sh := shards[0]
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sh.Reset(); err == nil {
		t.Fatal("Reset after Close succeeded")
	}
}

func TestFileShardParseErrors(t *testing.T) {
	cases := []string{"0 x\n", "onlyone\n", "0 -1\n", "99999999999999999999 1\n"}
	for _, content := range cases {
		src := writeFile(t, content)
		r := src.BlockShards(1, false)[0]
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Fatalf("content %q: error not reported (err=%v)", content, err)
		}
		r.Close()
	}
}

func TestWeightedFileShards(t *testing.T) {
	src := writeFile(t, "0 1 2.5\n1 2\r\n# c\n2 3 0.25\n3 3 9\n3 4 1.5")
	want := []WeightedEdge{{0, 1, 2.5}, {1, 2, 1}, {2, 3, 0.25}, {3, 4, 1.5}}
	for k := 1; k <= 6; k++ {
		var got []WeightedEdge
		for _, sh := range src.BlockShards(k, true) {
			edges, err := drainBlocks(sh)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, edges...)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d edges, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d edge %d: %+v want %+v", k, i, got[i], want[i])
			}
		}
	}
	bad := writeFile(t, "0 1 -3\n")
	sh := bad.BlockShards(1, true)[0]
	if err := sh.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh.Block(0); err == nil || err == io.EOF {
		t.Fatalf("negative weight accepted (err=%v)", err)
	}
}

func TestBytesScanned(t *testing.T) {
	content := "0 1\n# comment\n1 2\n"
	src := writeFile(t, content)
	drainReader(t, src.BlockShards(1, false)[0])
	if got := src.BytesScanned(); got != int64(len(content)) {
		t.Fatalf("BytesScanned = %d, want %d", got, len(content))
	}
}

func TestSliceSourceShards(t *testing.T) {
	edges := make([]Edge, 17)
	for i := range edges {
		edges[i] = Edge{U: int32(i), V: int32(i + 1)}
	}
	src := &SliceSource{Edges: edges}
	for k := 1; k <= 20; k++ {
		var got []Edge
		for _, sh := range src.BlockShards(k) {
			wedges, err := drainBlocks(sh)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range wedges {
				got = append(got, Edge{U: e.U, V: e.V})
			}
		}
		if !sameEdges(got, edges) {
			t.Fatalf("k=%d: resharded scan differs", k)
		}
	}
	empty := &SliceSource{}
	shards := empty.BlockShards(4)
	if len(shards) != 1 {
		t.Fatalf("empty source: %d shards, want 1", len(shards))
	}
	if got, err := drainBlocks(shards[0]); len(got) != 0 || err != nil {
		t.Fatalf("empty source yielded %v, %v", got, err)
	}
}

func TestSpillRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.spill")
	w, err := CreateSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	// Three spill blocks: two full, one partial.
	const records = 2*spillBlockEdges + 500
	var want []Edge
	for i := 0; i < records; i++ {
		e := Edge{U: int32(i * 3), V: int32(i*7 + 1)}
		want = append(want, e)
		w.Append(e)
	}
	sp, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Records != records || sp.Bytes != st.Size() || sp.Bytes == 0 {
		t.Fatalf("descriptor %+v (on-disk size %d)", sp, st.Size())
	}
	each := func(sp *SpillFile, lo, hi int) []Edge {
		t.Helper()
		var got []Edge
		if err := sp.Each(lo, hi, func(e Edge) { got = append(got, e) }); err != nil {
			t.Fatalf("Each(%d, %d): %v", lo, hi, err)
		}
		return got
	}
	reopened, err := OpenSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Records != records || reopened.Bytes != sp.Bytes {
		t.Fatalf("reopened descriptor %+v, want %+v", reopened, sp)
	}
	for _, f := range []*SpillFile{sp, reopened} {
		for pass := 0; pass < 2; pass++ {
			if got := each(f, 0, records); !sameEdges(got, want) {
				t.Fatalf("pass %d: round trip differs", pass)
			}
		}
		// Record ranges inside one block, on block boundaries, and
		// crossing one or two of them.
		b := spillBlockEdges
		for _, r := range [][2]int{{990, 1000}, {b - 1, b + 1}, {b, 2 * b}, {b - 5, 2*b + 7}, {3, records - 3}, {records, records}, {7, 7}} {
			if got := each(f, r[0], r[1]); !sameEdges(got, want[r[0]:r[1]]) {
				t.Fatalf("records [%d,%d): %d edges differ from the written ones", r[0], r[1], len(got))
			}
		}
		for _, r := range [][2]int{{-1, 5}, {0, records + 1}, {9, 8}} {
			if err := f.Each(r[0], r[1], func(Edge) {}); err == nil {
				t.Fatalf("out-of-range records [%d,%d) accepted", r[0], r[1])
			}
		}
	}
	if err := sp.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill file still present: %v", err)
	}
	if err := sp.Each(0, 1, func(Edge) {}); err == nil {
		t.Fatal("Each on a removed spill file succeeded")
	}
}

func TestOpenFileSourceErrors(t *testing.T) {
	if _, err := OpenFileSource("/nonexistent/file"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := OpenFileSource(t.TempDir()); err == nil {
		t.Fatal("directory accepted")
	}
}

// Exhaustive boundary fuzz over generated files: many line lengths and
// k values, so some boundary lands on every interesting position
// (start of line, inside a number, on the '\n', on a '\r').
func TestFileShardGeneratedSweep(t *testing.T) {
	content := ""
	for i := 0; i < 200; i++ {
		switch i % 7 {
		case 3:
			content += "# filler comment line\n"
		case 5:
			content += fmt.Sprintf("%d %d\r\n", i, i+1)
		default:
			content += fmt.Sprintf("%d %d\n", i, (i*13)%200)
		}
	}
	src := writeFile(t, content)
	want := drainReader(t, src.BlockShards(1, false)[0])
	for _, k := range []int{2, 3, 5, 8, 13, 32, 100} {
		var got []Edge
		for _, sh := range src.BlockShards(k, false) {
			got = append(got, drainReader(t, sh)...)
			sh.Close()
		}
		if !sameEdges(got, want) {
			t.Fatalf("k=%d: sharded scan differs from sequential", k)
		}
	}
}

// lineEnd returns the offset just past the line containing data[off].
func lineEnd(data string, off int64) int64 {
	if i := strings.IndexByte(data[off:], '\n'); i >= 0 {
		return off + int64(i) + 1
	}
	return int64(len(data))
}

// shardSpan models the bytes one shard reads in a full pass: the
// resync skip through the line containing lo (when lo > 0), then every
// line that starts at or before hi.
func shardSpan(data string, lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	off := lo
	if lo > 0 {
		off = lineEnd(data, lo)
	}
	for off < int64(len(data)) && off <= hi {
		off = lineEnd(data, off)
	}
	return off - lo
}

// drainLines runs one full NextLine pass over sh.
func drainLines(t *testing.T, sh *FileShard) {
	t.Helper()
	if err := sh.Reset(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := sh.NextLine(); err == io.EOF {
			return
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBytesScannedPerShard pins the shard-local byte counters: after
// full passes at 1–8 shards, BytesScanned is every line's bytes plus
// every resync skip, and a pass cut short by Reset or Close still
// publishes what it read.
func TestBytesScannedPerShard(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 300; i++ {
		switch i % 5 {
		case 1:
			b.WriteString("# a comment line that is longer than most edges\n")
		case 3:
			fmt.Fprintf(&b, "%d %d\r\n", i, i+7)
		default:
			fmt.Fprintf(&b, "%d %d\n", i, (i*17)%300)
		}
	}
	b.WriteString("5 6") // no trailing newline
	content := b.String()

	for k := 1; k <= 8; k++ {
		src := writeFile(t, content)
		shards := src.BlockShards(k, false)
		var want int64
		for pass := 1; pass <= 2; pass++ {
			for _, sh := range shards {
				drainLines(t, sh)
				want += shardSpan(content, sh.lo, sh.hi)
			}
			if got := src.BytesScanned(); got != want {
				t.Fatalf("k=%d pass %d: BytesScanned = %d, want %d", k, pass, got, want)
			}
		}
		for _, sh := range shards {
			sh.Close()
		}
		if got := src.BytesScanned(); got != want {
			t.Fatalf("k=%d after Close: BytesScanned = %d, want %d", k, got, want)
		}
	}

	// Partial passes over a middle shard: three lines, cut short by a
	// Reset that publishes them; then two lines, cut short by Close.
	src := writeFile(t, content)
	sh := src.BlockShards(3, false)[1]
	partial := func(lines int) int64 {
		t.Helper()
		if err := sh.Reset(); err != nil {
			t.Fatal(err)
		}
		off := lineEnd(content, sh.lo) // the resync skip
		for i := 0; i < lines; i++ {
			if _, _, err := sh.NextLine(); err != nil {
				t.Fatal(err)
			}
			off = lineEnd(content, off)
		}
		return off - sh.lo
	}
	first := partial(3)
	want := first + partial(2)
	if got := src.BytesScanned(); got < first {
		t.Fatalf("after Reset: BytesScanned = %d, want at least the cut pass's %d", got, first)
	}
	sh.Close()
	if got := src.BytesScanned(); got != want {
		t.Fatalf("after Close: BytesScanned = %d, want %d", got, want)
	}
}
