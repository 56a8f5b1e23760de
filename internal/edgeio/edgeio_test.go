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
		want := drainReader(t, src.SequentialReader())
		for k := 1; k <= 9; k++ {
			var got []Edge
			for _, sh := range src.FileShards(k) {
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
	want := drainReader(t, src.SequentialReader())
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
	shards := src.FileShards(3)
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
		r := src.SequentialReader()
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
		for _, sh := range src.WeightedShards(k) {
			if err := sh.Reset(); err != nil {
				t.Fatal(err)
			}
			for {
				e, err := sh.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, e)
			}
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
	sh := bad.WeightedShards(1)[0]
	if err := sh.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Next(); err == nil || err == io.EOF {
		t.Fatalf("negative weight accepted (err=%v)", err)
	}
}

func TestBytesScanned(t *testing.T) {
	content := "0 1\n# comment\n1 2\n"
	src := writeFile(t, content)
	drainReader(t, src.SequentialReader())
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
		for _, sh := range src.Shards(k) {
			got = append(got, drainReader(t, sh)...)
		}
		if !sameEdges(got, edges) {
			t.Fatalf("k=%d: resharded scan differs", k)
		}
	}
	empty := &SliceSource{}
	shards := empty.Shards(4)
	if len(shards) != 1 {
		t.Fatalf("empty source: %d shards, want 1", len(shards))
	}
	if got := drainReader(t, shards[0]); len(got) != 0 {
		t.Fatalf("empty source yielded %v", got)
	}
}

func TestSpillRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.spill")
	w, err := CreateSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Edge
	for i := 0; i < 1000; i++ {
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
	if sp.Records != 1000 || sp.Bytes != st.Size() || sp.Bytes == 0 {
		t.Fatalf("descriptor %+v (on-disk size %d)", sp, st.Size())
	}
	r, err := sp.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for pass := 0; pass < 2; pass++ {
		got := drainReader(t, r)
		if !sameEdges(got, want) {
			t.Fatalf("pass %d: round trip differs", pass)
		}
	}
	// Record-indexed seek.
	if err := r.Seek(990); err != nil {
		t.Fatal(err)
	}
	e, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if e != want[990] {
		t.Fatalf("after seek: %+v, want %+v", e, want[990])
	}
	if err := r.Seek(1001); err == nil {
		t.Fatal("out-of-range seek accepted")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sp.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill file still present: %v", err)
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
	want := drainReader(t, src.SequentialReader())
	for _, k := range []int{2, 3, 5, 8, 13, 32, 100} {
		var got []Edge
		for _, sh := range src.FileShards(k) {
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
		shards := src.FileShards(k)
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
	sh := src.FileShards(3)[1]
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
