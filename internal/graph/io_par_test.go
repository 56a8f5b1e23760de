package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"densestream/internal/edgeio"
)

func writeTemp(t testing.TB, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// labelParityInputs are edge lists whose labels, separators and weights
// sit on the edges of the text format. Every loader must agree with
// the reference parse on each of them, weighted or not. They are also
// the seed corpus of FuzzReadUndirectedFile.
var labelParityInputs = []string{
	// "7", "07", "+7" and "-7" are four labels; only "7" is numeric.
	"7 07\n07 +7\n+7 -7\n-7 7\n7 8\n",
	// "5" and "05" differ, so neither line is a self loop.
	"5 05\n05 5\n",
	// 2^63-1 is the largest numeric label; 2^63, 2^64 and 20 digits
	// are strings.
	"9223372036854775807 9223372036854775808\n18446744073709551616 99999999999999999999\n9223372036854775807 0\n0 00\n",
	// Sparse ids: 1 and 2^62.
	"1 4611686018427387904\n4611686018427387904 2\n2 1\n",
	// Numeric and string labels share one id counter.
	"1 a\na 2\n2 1\nb 3\n3 a\n10 b\n9 9\n",
	// U+00A0 and U+0085 separate fields as strings.Fields splits them;
	// \v, \f, CRLF, comments after leading spaces, no trailing newline.
	"1\u00a02\n3\u00855\n4\v6\n7\f8\r\n  # comment\n\t% other\n\u00a0# nbsp comment\n9 10 \u00a0\n\u00a011 12",
	// A hex weight and a missing third column.
	"a b 0x1p-2\nb c\nc d 2.5\n",
	// NaN and +Inf fail only once the whole input parsed.
	"a b 1\nb c NaN\nc d 1\n",
	"a b 1\nb c inf\n",
	// Negative and out-of-range weights fail on their line.
	"a b 1\nc d -2\n",
	"a b 1e400\n",
	// A later malformed line beats an earlier NaN; a NaN self loop is
	// skipped.
	"a b NaN\nc\n",
	"a a NaN\nb c 1\n",
}

// referenceEdges parses data the plain way the loaders must match:
// every line through strings.TrimSpace and strings.Fields, every label
// a string interned in first-seen order.
func referenceEdges(data string, weighted bool) ([]Edge, []string, error) {
	ids := map[string]int32{}
	var labels []string
	id := func(s string) int32 {
		if id, ok := ids[s]; ok {
			return id
		}
		ids[s] = int32(len(labels))
		labels = append(labels, s)
		return ids[s]
	}
	var edges []Edge
	sc := bufio.NewScanner(strings.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), maxLineBytes)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, &ParseError{Line: lineNo, Text: line, Err: fmt.Errorf("want at least 2 fields, got %d", len(fields))}
		}
		w := 1.0
		if weighted && len(fields) >= 3 {
			var err error
			if w, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, nil, &ParseError{Line: lineNo, Text: line, Err: fmt.Errorf("bad weight: %v", err)}
			}
			if w <= 0 {
				return nil, nil, &ParseError{Line: lineNo, Text: line, Err: ErrBadWeight}
			}
		}
		if fields[0] == fields[1] {
			continue
		}
		edges = append(edges, Edge{U: id(fields[0]), V: id(fields[1]), Weight: w})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return edges, labels, nil
}

func referenceUndirected(data string, weighted bool) (*Undirected, []string, error) {
	edges, labels, err := referenceEdges(data, weighted)
	if err != nil {
		return nil, nil, err
	}
	b := NewBuilder(len(labels))
	for _, e := range edges {
		if weighted {
			err = b.AddWeightedEdge(e.U, e.V, e.Weight)
		} else {
			err = b.AddEdge(e.U, e.V)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	g, err := b.Freeze()
	return g, labels, err
}

func referenceDirected(data string) (*Directed, []string, error) {
	edges, labels, err := referenceEdges(data, false)
	if err != nil {
		return nil, nil, err
	}
	b := NewDirectedBuilder(len(labels))
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, nil, err
		}
	}
	g, err := b.Freeze()
	return g, labels, err
}

// checkLoad compares one load against the reference: the same error
// (text, errors.Is target and *ParseError line), or a DeepEqual graph
// whose LabelMap agrees with the reference labels on Label for every
// id and on Lookup for present and absent labels.
func checkLoad(t testing.TB, name string, g any, lm *LabelMap, err error, wantG any, want []string, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, want %v", name, err, wantErr)
	}
	if err != nil {
		var pe, wantPE *ParseError
		if errors.As(err, &pe) != errors.As(wantErr, &wantPE) || pe != nil && pe.Line != wantPE.Line ||
			errors.Is(err, ErrBadWeight) != errors.Is(wantErr, ErrBadWeight) {
			t.Fatalf("%s: error %#v, want %#v", name, err, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(g, wantG) {
		t.Fatalf("%s: graph differs from the reference", name)
	}
	if lm.Len() != len(want) {
		t.Fatalf("%s: %d labels, want %d", name, lm.Len(), len(want))
	}
	ids := map[string]int32{}
	for id, l := range want {
		ids[l] = int32(id)
		if got := lm.Label(int32(id)); got != l {
			t.Fatalf("%s: Label(%d) = %q, want %q", name, id, got, l)
		}
	}
	probes := []string{"", "0", "7", "07", "9223372036854775808", "18446744073709551616"}
	for _, l := range want {
		probes = append(probes, l, "0"+l, "+"+l, "-"+l, l+"0")
	}
	for _, p := range probes {
		wantID, wantOK := ids[p]
		if id, ok := lm.Lookup(p); id != wantID || ok != wantOK {
			t.Fatalf("%s: Lookup(%q) = %d, %v, want %d, %v", name, p, id, ok, wantID, wantOK)
		}
	}
}

// checkUndirected loads data through ReadUndirected and, at each
// worker count, ReadUndirectedFile, and checks both against the
// reference.
func checkUndirected(t testing.TB, data string, weighted bool, workers []int) {
	t.Helper()
	wantG, want, wantErr := referenceUndirected(data, weighted)
	g, lm, err := ReadUndirected(strings.NewReader(data), weighted)
	checkLoad(t, "ReadUndirected", g, lm, err, wantG, want, wantErr)
	path := writeTemp(t, data)
	for _, w := range workers {
		g, lm, err := ReadUndirectedFile(path, weighted, w)
		checkLoad(t, fmt.Sprintf("ReadUndirectedFile workers=%d", w), g, lm, err, wantG, want, wantErr)
	}
}

// TestReadUndirectedFileMatchesSequential checks the sharded file
// loader is bit-identical to ReadUndirected for every worker count,
// including string labels interned in first-seen order, CRLF, a
// missing trailing newline, and the label edge cases.
func TestReadUndirectedFileMatchesSequential(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# labels on purpose out of numeric order\r\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "n%d m%d\n", (i*37)%100, (i*53+1)%100)
	}
	sb.WriteString("alpha beta\r\nbeta gamma\nalpha gamma") // no trailing \n
	for i, in := range append([]string{sb.String()}, labelParityInputs...) {
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			checkUndirected(t, in, false, []int{1, 2, 4, 7})
		})
	}
}

// TestReadUndirectedFileWeighted checks weighted parsing parity.
func TestReadUndirectedFileWeighted(t *testing.T) {
	for i, in := range append([]string{"a b 2.5\nb c\nc d 0.25\r\nd a 4"}, labelParityInputs...) {
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			checkUndirected(t, in, true, []int{1, 2, 4, 7})
		})
	}
}

// TestReadDirectedFileMatchesSequential is the directed analogue.
func TestReadDirectedFileMatchesSequential(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "u%d v%d\n", (i*11)%60, (i*29+3)%60)
	}
	for i, in := range append([]string{sb.String()}, labelParityInputs...) {
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			wantG, want, wantErr := referenceDirected(in)
			g, lm, err := ReadDirected(strings.NewReader(in))
			checkLoad(t, "ReadDirected", g, lm, err, wantG, want, wantErr)
			path := writeTemp(t, in)
			for _, w := range []int{1, 2, 4, 7} {
				g, lm, err := ReadDirectedFile(path, w)
				checkLoad(t, fmt.Sprintf("ReadDirectedFile workers=%d", w), g, lm, err, wantG, want, wantErr)
			}
		})
	}
}

// writeBinaryEdges writes edges as a BSG1 file cut into blocks of 64
// edges, so a load decodes it on several shards.
func writeBinaryEdges(t *testing.T, edges []edgeio.WeightedEdge) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bsg1")
	w, err := edgeio.CreateBinary(path, true)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockEdges(64)
	for _, e := range edges {
		w.AppendWeighted(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadBinaryFileMatchesText loads a text edge list and its BSG1
// conversion at several worker counts: the binary loads must give the
// text loads' graphs and labels, and a bad record must be reported at
// its index in the file whatever shard decodes it.
func TestReadBinaryFileMatchesText(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sb strings.Builder
	var edges []edgeio.WeightedEdge
	for range 2000 {
		e := edgeio.WeightedEdge{U: int32(rng.Intn(300)), V: int32(rng.Intn(300)), Weight: 0.25 * float64(1+rng.Intn(8))}
		edges = append(edges, e)
		fmt.Fprintf(&sb, "%d %d %g\n", e.U, e.V, e.Weight)
	}
	path := writeBinaryEdges(t, edges)
	for _, weighted := range []bool{false, true} {
		want, wantLM, err := ReadUndirected(strings.NewReader(sb.String()), weighted)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 7} {
			g, lm, err := ReadUndirectedFile(path, weighted, w)
			checkLoad(t, fmt.Sprintf("weighted=%v workers=%d", weighted, w), g, lm, err, want, labelsOf(wantLM), nil)
		}
	}
	want, wantLM, err := ReadDirected(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 7} {
		g, lm, err := ReadDirectedFile(path, w)
		checkLoad(t, fmt.Sprintf("directed workers=%d", w), g, lm, err, want, labelsOf(wantLM), nil)
	}

	edges[1500].V = -3
	bad := writeBinaryEdges(t, edges)
	for _, w := range []int{1, 2, 4, 7} {
		_, _, err := ReadUndirectedFile(bad, false, w)
		if err == nil || !strings.Contains(err.Error(), "edge 1500 ") {
			t.Fatalf("workers=%d: error %v, want one naming edge 1500", w, err)
		}
	}
}

func labelsOf(lm *LabelMap) []string {
	labels := make([]string, lm.Len())
	for id := range labels {
		labels[id] = lm.Label(int32(id))
	}
	return labels
}

// FuzzReadUndirectedFile checks, on arbitrary bytes, that
// ReadUndirectedFile at workers 1 and 3 and ReadUndirected agree with
// the reference parse: the same graph and labels, or the same error.
func FuzzReadUndirectedFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		if bytes.HasPrefix(data, []byte("BSG1")) {
			return // the file loaders read this as a binary file
		}
		checkUndirected(t, string(data), weighted, []int{1, 3})
	})
}

// TestReadFileParseErrorsKeepLineNumbers checks the fallback path: a
// malformed file reports the canonical *ParseError with its line
// number, exactly as the sequential reader does.
func TestReadFileParseErrorsKeepLineNumbers(t *testing.T) {
	path := writeTemp(t, "a b\nc\n")
	_, _, err := ReadUndirectedFile(path, false, 4)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Fatalf("ParseError.Line = %d, want 2", pe.Line)
	}

	badw := writeTemp(t, "a b 1\nc d -2\n")
	_, _, err = ReadUndirectedFile(badw, true, 4)
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError for bad weight, got %v", err)
	}
	if pe.Line != 2 || !errors.Is(pe, ErrBadWeight) {
		t.Fatalf("bad-weight ParseError = %+v", pe)
	}

	if _, _, err := ReadUndirectedFile("/nonexistent/file", false, 2); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, _, err := ReadDirectedFile("/nonexistent/file", 2); err == nil {
		t.Fatal("missing directed file accepted")
	}
}

// TestLabelMapConcurrentReads reads a loaded LabelMap from several
// goroutines at once; run it under -race.
func TestLabelMapConcurrentReads(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "%d s%d\n", i, (i*7)%500)
	}
	sb.WriteString("1 4611686018427387904\n")
	_, lm, err := ReadUndirectedFile(writeTemp(t, sb.String()), false, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int32(0); int(id) < lm.Len(); id++ {
				l := lm.Label(id)
				if got, ok := lm.Lookup(l); !ok || got != id {
					t.Errorf("Lookup(Label(%d) = %q) = %d, %v", id, l, got, ok)
					return
				}
				if _, ok := lm.Lookup("0" + l); ok {
					t.Errorf("Lookup(%q) found a label never interned", "0"+l)
					return
				}
			}
		}()
	}
	wg.Wait()
}
