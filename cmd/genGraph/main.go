// Command genGraph writes synthetic graphs in edge-list format, covering
// the dataset stand-ins used by the experiments (Table 1) as well as the
// generic generators. It also converts existing graph files between the
// text and binary columnar formats.
//
// Usage:
//
//	genGraph -kind flickr -scale 1 -out flickr.txt
//	genGraph -kind chunglu -n 100000 -m 800000 -exponent 2.1 -out g.txt
//	genGraph -kind rmat -logn 16 -m 1000000 -out follows.txt
//	genGraph -kind gnm -n 100000 -m 800000 -format binary -out g.bsg
//	genGraph -convert g.txt -out g.bsg
//	genGraph -convert g.bsg -out g.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	ds "densestream"
	"densestream/internal/edgeio"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

func main() {
	var (
		kind     = flag.String("kind", "", "flickr | im | lj | twitter | gnm | chunglu | chungludir | rmat | planted | communities")
		out      = flag.String("out", "", "output file (required)")
		format   = flag.String("format", "text", "output format for generated graphs: text | binary")
		convert  = flag.String("convert", "", "convert this graph file to -out (direction sniffed from the input's magic bytes)")
		weighted = flag.Bool("weighted", false, "text-to-binary conversion: carry the third column as a weight column")
		scale    = flag.Int("scale", 1, "dataset scale for the stand-ins")
		n        = flag.Int("n", 10000, "nodes (generic generators)")
		m        = flag.Int64("m", 50000, "edges (generic generators)")
		logn     = flag.Int("logn", 14, "log2 nodes for rmat")
		exponent = flag.Float64("exponent", 2.2, "power-law exponent")
		seed     = flag.Int64("seed", 1, "random seed")
		stamps   = flag.String("timestamps", "", "emit timestamped edges for sliding-window runs: monotone | shuffled (undirected kinds only)")
	)
	flag.Parse()
	if *out == "" || (*convert == "" && *kind == "") {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *convert != "" {
		err = runConvert(*convert, *out, *weighted)
	} else {
		err = run(*kind, *out, *format, *stamps, *scale, *n, *m, *logn, *exponent, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genGraph:", err)
		os.Exit(1)
	}
}

func run(kind, out, format, stamps string, scale, n int, m int64, logn int, exponent float64, seed int64) error {
	if format != "text" && format != "binary" {
		return fmt.Errorf("unknown format %q (want text or binary)", format)
	}
	if stamps != "" && stamps != "monotone" && stamps != "shuffled" {
		return fmt.Errorf("unknown -timestamps mode %q (want monotone or shuffled)", stamps)
	}
	var (
		ug  *graph.Undirected
		dg  *graph.Directed
		err error
	)
	switch kind {
	case "flickr":
		ug, err = gen.FlickrLike(scale, seed)
	case "im":
		ug, err = gen.IMLike(scale, seed)
	case "lj":
		dg, err = gen.LJLike(scale, seed)
	case "twitter":
		dg, err = gen.TwitterLike(scale, seed)
	case "gnm":
		ug, err = gen.Gnm(n, m, seed)
	case "chunglu":
		ug, err = gen.ChungLu(n, m, exponent, seed)
	case "chungludir":
		dg, err = gen.ChungLuDirected(n, m, exponent, seed)
	case "rmat":
		dg, err = gen.RMAT(logn, m, gen.DefaultRMAT, seed)
	case "planted":
		ug, _, err = gen.PlantedDense(n, m, exponent, 100, 0.9, seed)
	case "communities":
		ug, _, err = gen.Communities([]int{n / 4, n / 4, n / 4, n - 3*(n/4)}, 0.1, 0.001, seed)
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return err
	}
	if ug != nil {
		s := ds.Stats(ug)
		fmt.Printf("%s: %d nodes, %d edges (undirected), max degree %d\n", kind, s.Nodes, s.Edges, s.MaxDegree)
		if stamps != "" {
			return writeTimestamped(out, format, stamps, ug, seed)
		}
		if format == "binary" {
			return graph.WriteUndirectedBinary(out, ug)
		}
		return writeText(out, func(f io.Writer) error { return graph.WriteUndirected(f, ug) })
	}
	if stamps != "" {
		return fmt.Errorf("-timestamps applies to undirected kinds only (kind %q is directed)", kind)
	}
	s := ds.StatsDirected(dg)
	fmt.Printf("%s: %d nodes, %d edges (directed), max degree %d\n", kind, s.Nodes, s.Edges, s.MaxDegree)
	if format == "binary" {
		return graph.WriteDirectedBinary(out, dg)
	}
	return writeText(out, func(f io.Writer) error { return graph.WriteDirected(f, dg) })
}

// writeTimestamped emits the graph's edges with a third timestamp
// column — the input shape of ObjectiveSlidingWindow and the dynamic
// window benchmarks. "monotone" stamps edges 1..m in emission order (a
// well-ordered stream); "shuffled" assigns the same timestamps in a
// seed-deterministic random order (stragglers and out-of-order
// arrival). Text files carry the timestamp as the third column; binary
// files carry it in the BSG1 weight column. Both load through
// Problem{Path}, OpenWeightedFileStream, and densestd interchangeably.
func writeTimestamped(out, format, mode string, ug *graph.Undirected, seed int64) error {
	mEdges := int(ug.NumEdges())
	ts := make([]int64, mEdges)
	for i := range ts {
		ts[i] = int64(i) + 1
	}
	if mode == "shuffled" {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	}
	if format == "binary" {
		w, err := edgeio.CreateBinary(out, true)
		if err != nil {
			return err
		}
		i := 0
		ug.Edges(func(u, v int32, _ float64) bool {
			w.AppendWeighted(edgeio.WeightedEdge{U: u, V: v, Weight: float64(ts[i])})
			i++
			return true
		})
		return w.Close()
	}
	return writeText(out, func(f io.Writer) error {
		bw := bufio.NewWriter(f)
		i := 0
		var werr error
		ug.Edges(func(u, v int32, _ float64) bool {
			_, werr = fmt.Fprintf(bw, "%d\t%d\t%d\n", u, v, ts[i])
			i++
			return werr == nil
		})
		if werr != nil {
			return werr
		}
		return bw.Flush()
	})
}

func writeText(out string, emit func(io.Writer) error) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runConvert rewrites a graph file in the other on-disk format,
// preserving the edge sequence exactly (text comments and self loops
// are dropped by the text parser, as every text consumer drops them),
// so the converted file is interchangeable with the original for every
// backend.
func runConvert(in, out string, weighted bool) error {
	isBin, err := edgeio.DetectBinary(in)
	if err != nil {
		return err
	}
	if isBin {
		return convertToText(in, out)
	}
	return convertToBinary(in, out, weighted)
}

// convertToBinary reads the text file with or without its weight
// column, as weighted says: without it a third column is ignored, as
// every unweighted reader ignores it.
func convertToBinary(in, out string, weighted bool) error {
	src, err := edgeio.OpenFileSource(in)
	if err != nil {
		return err
	}
	sh := src.BlockShards(1, weighted)[0]
	defer sh.Close()
	if err := sh.Reset(); err != nil {
		return err
	}
	w, err := edgeio.CreateBinary(out, weighted)
	if err != nil {
		return err
	}
	edges := int64(0)
	lo, hi := sh.Blocks()
	for b := lo; b < hi; b++ {
		blk, weights, err := sh.Block(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close()
			os.Remove(out)
			return err
		}
		for j, e := range blk {
			if weights != nil {
				w.AppendWeighted(edgeio.WeightedEdge{U: e.U, V: e.V, Weight: weights[j]})
			} else {
				w.Append(e)
			}
		}
		edges += int64(len(blk))
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("converted %s -> %s: %d edges (text to binary)\n", in, out, edges)
	return nil
}

func convertToText(in, out string) error {
	src, err := edgeio.OpenBinarySource(in)
	if err != nil {
		return err
	}
	defer src.Close()
	sh := src.BlockShards(1, true)[0]
	defer sh.Close()
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	edges := int64(0)
	lo, hi := sh.Blocks()
	for b := lo; b < hi; b++ {
		blk, weights, err := sh.Block(b)
		if err != nil {
			f.Close()
			return err
		}
		for j, e := range blk {
			if weights != nil {
				_, err = fmt.Fprintf(bw, "%d\t%d\t%g\n", e.U, e.V, weights[j])
			} else {
				_, err = fmt.Fprintf(bw, "%d\t%d\n", e.U, e.V)
			}
			if err != nil {
				f.Close()
				return err
			}
		}
		edges += int64(len(blk))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("converted %s -> %s: %d edges (binary to text)\n", in, out, edges)
	return nil
}
