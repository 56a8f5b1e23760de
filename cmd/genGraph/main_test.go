package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"densestream/internal/edgeio"
	"densestream/internal/graph"
)

func TestRunAllKinds(t *testing.T) {
	dir := t.TempDir()
	kinds := []string{"gnm", "chunglu", "chungludir", "rmat", "planted", "communities"}
	for _, kind := range kinds {
		out := filepath.Join(dir, kind+".txt")
		if err := run(kind, out, "text", "", 1, 500, 1500, 8, 2.2, 7); err != nil {
			t.Errorf("kind %s: %v", kind, err)
			continue
		}
		info, err := os.Stat(out)
		if err != nil || info.Size() == 0 {
			t.Errorf("kind %s: empty output (%v)", kind, err)
		}
	}
}

func TestRunBinaryFormat(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"gnm", "chungludir"} {
		out := filepath.Join(dir, kind+".bsg")
		if err := run(kind, out, "binary", "", 1, 500, 1500, 8, 2.2, 7); err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
		if isBin, err := edgeio.DetectBinary(out); err != nil || !isBin {
			t.Fatalf("kind %s: output not binary (isBin=%v err=%v)", kind, isBin, err)
		}
	}
	if err := run("gnm", filepath.Join(dir, "z"), "csv", "", 1, 500, 1500, 8, 2.2, 7); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunStandIns(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	dir := t.TempDir()
	for _, kind := range []string{"flickr", "lj", "twitter"} {
		out := filepath.Join(dir, kind+".txt")
		if err := run(kind, out, "text", "", 1, 0, 0, 0, 0, 7); err != nil {
			t.Errorf("kind %s: %v", kind, err)
		}
	}
}

// TestConvertRoundTrip converts text -> binary -> text and checks the
// graphs loaded from all three files are identical: same edge sequence,
// same labels, same stats.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	if err := run("chunglu", txt, "text", "", 1, 400, 1200, 8, 2.2, 11); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "g.bsg")
	if err := runConvert(txt, bin, false); err != nil {
		t.Fatalf("text->binary: %v", err)
	}
	back := filepath.Join(dir, "g2.txt")
	if err := runConvert(bin, back, false); err != nil {
		t.Fatalf("binary->text: %v", err)
	}
	want, err := os.ReadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("text -> binary -> text round trip changed the file (%d vs %d bytes)", len(want), len(got))
	}
	g1, lm1, err := graph.ReadUndirectedFile(txt, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, lm2, err := graph.ReadUndirectedFile(bin, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() || lm1.Len() != lm2.Len() {
		t.Fatalf("text vs binary load disagree: %d/%d nodes, %d/%d edges, %d/%d labels",
			g1.NumNodes(), g2.NumNodes(), g1.NumEdges(), g2.NumEdges(), lm1.Len(), lm2.Len())
	}
	for i := 0; i < lm1.Len(); i++ {
		if lm1.Label(int32(i)) != lm2.Label(int32(i)) {
			t.Fatalf("label %d: text %q vs binary %q", i, lm1.Label(int32(i)), lm2.Label(int32(i)))
		}
	}
}

// TestConvertWeighted carries a weight column through text -> binary.
func TestConvertWeighted(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "w.txt")
	if err := os.WriteFile(txt, []byte("0\t1\t0.5\n1\t2\t2\n2\t0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "w.bsg")
	if err := runConvert(txt, bin, true); err != nil {
		t.Fatal(err)
	}
	src, err := edgeio.OpenBinarySource(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if !src.Weighted() || src.NumEdges() != 3 {
		t.Fatalf("weighted=%v edges=%d, want weighted with 3 edges", src.Weighted(), src.NumEdges())
	}
	back := filepath.Join(dir, "w2.txt")
	if err := runConvert(bin, back, false); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	// The missing third column defaults to weight 1 at parse time.
	if want := "0\t1\t0.5\n1\t2\t2\n2\t0\t1\n"; string(got) != want {
		t.Fatalf("binary->text weighted output:\n%q\nwant:\n%q", got, want)
	}
}

// TestConvertIgnoresThirdColumn: without -weighted the converter reads
// a text file as every unweighted reader does, ignoring a third column
// — a sign, as in SNAP's soc-sign files, or a timestamp — so the binary
// file holds exactly the text's edges. With -weighted a third column is
// a weight, and a negative one is still rejected.
func TestConvertIgnoresThirdColumn(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"signed.txt":      "# FromNodeId ToNodeId Sign\n0\t1\t-1\n1\t2\t1\n2\t0\t-1\n3\t3\t1\n2\t3\t-1\n",
		"timestamped.txt": "0 1 1217567877\n1 2 1217573547\r\n2 0 0\n2 3 1.5e9",
	} {
		txt := filepath.Join(dir, name)
		if err := os.WriteFile(txt, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		bin := txt + ".bsg"
		if err := runConvert(txt, bin, false); err != nil {
			t.Fatalf("%s without -weighted: %v", name, err)
		}
		src, err := edgeio.OpenBinarySource(bin)
		if err != nil {
			t.Fatal(err)
		}
		var got []edgeio.Edge
		sh := src.BlockShards(1, false)[0]
		lo, hi := sh.Blocks()
		for b := lo; b < hi; b++ {
			edges, _, err := sh.Block(b)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, edges...)
		}
		sh.Close()
		src.Close()
		want := []edgeio.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}}
		if src.Weighted() || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: converted to weighted=%v edges %v, want unweighted %v", name, src.Weighted(), got, want)
		}
	}
	if err := runConvert(filepath.Join(dir, "signed.txt"), filepath.Join(dir, "w.bsg"), true); err == nil || !strings.Contains(err.Error(), `bad weight "-1"`) {
		t.Fatalf("-weighted on a negative weight: %v, want a bad weight error", err)
	}
}

// TestRunTimestamped checks both -timestamps modes in both formats:
// the third column must be a permutation of 1..m (the identity for
// monotone), identical edge sequence to the unstamped output, and the
// binary form must load as a weighted BSG1 with the same stamps.
func TestRunTimestamped(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []string{"monotone", "shuffled"} {
		txt := filepath.Join(dir, mode+".txt")
		if err := run("chunglu", txt, "text", mode, 1, 300, 900, 8, 2.2, 5); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(txt)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		seen := make(map[int64]bool)
		monotone := true
		for i, ln := range lines {
			f := strings.Fields(ln)
			if len(f) != 3 {
				t.Fatalf("%s line %d: %q, want 3 columns", mode, i, ln)
			}
			ts, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil || ts < 1 || ts > int64(len(lines)) || seen[ts] {
				t.Fatalf("%s line %d: bad timestamp %q (err=%v, dup=%v)", mode, i, f[2], err, seen[ts])
			}
			seen[ts] = true
			if ts != int64(i)+1 {
				monotone = false
			}
		}
		if mode == "monotone" && !monotone {
			t.Fatal("monotone mode emitted out-of-order timestamps")
		}
		if mode == "shuffled" && monotone {
			t.Fatal("shuffled mode emitted the identity permutation")
		}

		bin := filepath.Join(dir, mode+".bsg")
		if err := run("chunglu", bin, "binary", mode, 1, 300, 900, 8, 2.2, 5); err != nil {
			t.Fatal(err)
		}
		src, err := edgeio.OpenBinarySource(bin)
		if err != nil {
			t.Fatal(err)
		}
		if !src.Weighted() {
			src.Close()
			t.Fatalf("%s: binary output has no timestamp column", mode)
		}
		sh := src.BlockShards(1, true)[0]
		lo, hi := sh.Blocks()
		for b, i := lo, 0; b < hi; b++ {
			edges, weights, err := sh.Block(b)
			if err != nil {
				t.Fatal(err)
			}
			for j, e := range edges {
				f := strings.Fields(lines[i])
				if f[0] != strconv.Itoa(int(e.U)) || f[1] != strconv.Itoa(int(e.V)) || f[2] != strconv.FormatInt(int64(weights[j]), 10) {
					t.Fatalf("%s edge %d: binary (%d,%d,%v) vs text %q", mode, i, e.U, e.V, weights[j], lines[i])
				}
				i++
			}
		}
		sh.Close()
		src.Close()
	}
	if err := run("chunglu", filepath.Join(dir, "bad.txt"), "text", "random", 1, 300, 900, 8, 2.2, 5); err == nil {
		t.Error("unknown -timestamps mode accepted")
	}
	if err := run("rmat", filepath.Join(dir, "dir.txt"), "text", "monotone", 1, 300, 900, 8, 2.2, 5); err == nil {
		t.Error("-timestamps on a directed kind accepted")
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run("bogus", filepath.Join(dir, "x.txt"), "text", "", 1, 10, 10, 4, 2, 1); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := run("gnm", "/nonexistent-dir/x.txt", "text", "", 1, 10, 10, 4, 2, 1); err == nil {
		t.Error("unwritable output accepted")
	}
	if err := run("gnm", "/nonexistent-dir/x.bsg", "binary", "", 1, 10, 10, 4, 2, 1); err == nil {
		t.Error("unwritable binary output accepted")
	}
	if err := run("gnm", filepath.Join(dir, "y.txt"), "text", "", 1, 1, 10, 4, 2, 1); err == nil {
		t.Error("generator error not propagated")
	}
	if err := runConvert(filepath.Join(dir, "missing.txt"), filepath.Join(dir, "o.bsg"), false); err == nil {
		t.Error("missing convert input accepted")
	}
}
