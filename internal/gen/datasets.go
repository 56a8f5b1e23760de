package gen

import (
	"fmt"

	"densestream/internal/graph"
)

// Dataset stand-ins for the four social graphs in Table 1 and the seven
// SNAP graphs in Table 2. The real graphs are proprietary (im), rate-
// limited APIs (flickr, twitter), or simply too large for a laptop-scale
// reproduction, so each stand-in reproduces the properties the paper's
// experiments exercise — heavy-tailed degrees and a dense core — at a
// size controlled by the scale parameter (scale=1 is the default used by
// the experiment harness; larger scales grow |V| and |E| linearly).

// FlickrLike is an undirected Chung–Lu power-law graph with a planted
// dense core, standing in for the flickr graph (976K nodes, 7.6M edges).
func FlickrLike(scale int, seed int64) (*graph.Undirected, error) {
	if scale < 1 {
		return nil, fmt.Errorf("gen: scale must be >= 1, got %d", scale)
	}
	n := 20000 * scale
	m := int64(160000) * int64(scale)
	// A 100-node clique core (ρ ≈ 50, an order of magnitude above the
	// bulk) keeps the Count-Sketch experiment in the paper's regime: the
	// heavy-degree node set must stay sparse relative to the sketch
	// buckets (Table 4 uses b ≥ 15%·n/t), or every bucket collides with a
	// core node and the §5.1 heuristic degrades far below what the paper
	// reports for flickr.
	core := 100
	g, _, err := PlantedDense(n, m, 2.3, core, 1.0, seed)
	return g, err
}

// IMLike is a larger, sparser undirected power-law graph with a planted
// core, standing in for the Yahoo! im graph (645M nodes, 6.1B edges).
func IMLike(scale int, seed int64) (*graph.Undirected, error) {
	if scale < 1 {
		return nil, fmt.Errorf("gen: scale must be >= 1, got %d", scale)
	}
	n := 50000 * scale
	m := int64(450000) * int64(scale)
	core := 90
	g, _, err := PlantedDense(n, m, 2.3, core, 0.75, seed+1)
	return g, err
}

// LJLike is a directed Chung–Lu graph standing in for livejournal
// (4.84M nodes, 68.9M edges). In-degree and out-degree skew are
// decoupled, and a dense S→T block is planted so the directed density has
// a meaningful optimum away from the background.
func LJLike(scale int, seed int64) (*graph.Directed, error) {
	if scale < 1 {
		return nil, fmt.Errorf("gen: scale must be >= 1, got %d", scale)
	}
	n := 20000 * scale
	m := int64(280000) * int64(scale)
	g, err := ChungLuDirected(n, m, 2.2, seed+2)
	if err != nil {
		return nil, err
	}
	// Re-build with a planted directed block: 100 sources -> 150 targets,
	// fully connected. Its density 15000/√15000 ≈ 122 beats the natural
	// in-degree hubs of the power-law background, so — as the paper
	// observes for livejournal — the optimum sits at a moderately
	// balanced ratio (c = 100/150 ≈ 0.67), not at a degenerate star.
	b := graph.NewDirectedBuilder(n)
	g.Edges(func(u, v int32) bool {
		_ = b.AddEdge(u, v)
		return true
	})
	srcBase, dstBase := n-250, n-150
	for i := 0; i < 100; i++ {
		for j := 0; j < 150; j++ {
			if err := b.AddEdge(int32(srcBase+i), int32(dstBase+j)); err != nil {
				return nil, err
			}
		}
	}
	return b.Freeze()
}

// TwitterLike is a highly skewed R-MAT directed graph standing in for the
// twitter follower graph (50.7M nodes, 2.7B edges). The R-MAT skew
// reproduces the paper's observation that a few hundred celebrity
// accounts are followed by tens of millions, which pushes the best c far
// from 1 in Figure 6.6.
func TwitterLike(scale int, seed int64) (*graph.Directed, error) {
	if scale < 1 {
		return nil, fmt.Errorf("gen: scale must be >= 1, got %d", scale)
	}
	logN := 14
	for s := scale; s > 1; s /= 2 {
		logN++
	}
	m := int64(300000) * int64(scale)
	return RMAT(logN, m, DefaultRMAT, seed+3)
}

// SNAPStandIn generates a stand-in for one of the Table 2 SNAP graphs:
// a power-law background at the published |V| and |E| plus a planted
// near-clique sized so the densest subgraph is non-trivial.
type SNAPGraph struct {
	Name  string
	Nodes int
	Edges int64
	// Planted core parameters chosen so the core density is in the same
	// range as the ρ* the paper reports for the real graph.
	CoreSize int
	CoreP    float64
}

// SNAPTable2 lists the seven graphs of Table 2 with their published sizes
// and the planted-core parameters used by the stand-ins. CoreSize/CoreP
// are chosen so that the expected core density CoreP*(CoreSize-1)/2
// roughly matches the ρ* column of Table 2.
var SNAPTable2 = []SNAPGraph{
	{Name: "as20000102", Nodes: 6474, Edges: 13233, CoreSize: 22, CoreP: 0.9},
	{Name: "ca-AstroPh", Nodes: 18772, Edges: 396160, CoreSize: 70, CoreP: 0.93},
	{Name: "ca-CondMat", Nodes: 23133, Edges: 186936, CoreSize: 30, CoreP: 0.95},
	{Name: "ca-GrQc", Nodes: 5242, Edges: 28980, CoreSize: 48, CoreP: 0.95},
	{Name: "ca-HepPh", Nodes: 12008, Edges: 237010, CoreSize: 239, CoreP: 1.0},
	{Name: "ca-HepTh", Nodes: 9877, Edges: 51971, CoreSize: 32, CoreP: 1.0},
	{Name: "email-Enron", Nodes: 36692, Edges: 367662, CoreSize: 80, CoreP: 0.95},
}

// Generate builds the stand-in graph for this SNAP entry.
func (s SNAPGraph) Generate(seed int64) (*graph.Undirected, error) {
	bg := s.Edges - int64(float64(s.CoreSize*(s.CoreSize-1))/2*s.CoreP)
	if bg < 0 {
		bg = s.Edges / 2
	}
	g, _, err := PlantedDense(s.Nodes, bg, 2.2, s.CoreSize, s.CoreP, seed)
	return g, err
}
