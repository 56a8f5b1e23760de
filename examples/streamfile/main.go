// External-memory streaming: peel a graph that lives in a file on disk,
// re-reading it once per pass, first with the exact O(n) degree array and
// then with the Count-Sketch oracle of §5.1 using a fraction of the
// memory.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	ds "densestream"
)

func main() {
	// Materialize a power-law graph with a planted dense core to disk.
	g, _, err := ds.GeneratePlantedDense(50000, 400000, 2.1, 150, 0.8, 11)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "densestream")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.txt")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.WriteUndirected(f, g); err != nil {
		log.Fatal(err)
	}
	f.Close()
	info, _ := os.Stat(path)
	fmt.Printf("wrote %d nodes, %d edges to %s (%.1f MB)\n\n",
		g.NumNodes(), g.NumEdges(), path, float64(info.Size())/1e6)

	// Exact streaming: O(n) words of degree state, re-reads the file
	// every pass.
	es, err := ds.OpenFileStream(path)
	if err != nil {
		log.Fatal(err)
	}
	defer es.Close()
	ctx := context.Background()
	exact, err := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5, Edges: es})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact streaming:   ρ = %8.3f  |S| = %4d  passes = %d  memory = %d words\n",
		exact.Density, len(exact.Set), exact.Passes, es.NumNodes())

	// Sketched streaming: t×b counters instead of n.
	for _, buckets := range []int{2000, 4000, 8000} {
		if err := es.Reset(); err != nil {
			log.Fatal(err)
		}
		r, err := ds.Solve(ctx,
			ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStreamSketched, Eps: 0.5, Edges: es},
			ds.WithSketch(ds.SketchConfig{Tables: 5, Buckets: buckets, Seed: 99}))
		if err != nil {
			log.Fatal(err)
		}
		mem := r.SketchMemoryWords
		fmt.Printf("sketch b=%-6d     ρ = %8.3f  |S| = %4d  passes = %d  memory = %d words (%.0f%% of exact)  quality = %.3f\n",
			buckets, r.Density, len(r.Set), r.Passes, mem,
			100*float64(mem)/float64(es.NumNodes()), r.Density/exact.Density)
	}
}
