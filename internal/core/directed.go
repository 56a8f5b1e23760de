package core

import (
	"fmt"
	"math"

	"densestream/internal/graph"
)

// DirectedResult is the output of Algorithm 3 for one value of c.
type DirectedResult struct {
	S       []int32            `json:"s"` // S̃ and T̃: the densest intermediate pair
	T       []int32            `json:"t"`
	Density float64            `json:"density"` // ρ(S̃, T̃) = |E(S̃,T̃)| / sqrt(|S̃||T̃|)
	Passes  int                `json:"passes"`
	Trace   []DirectedPassStat `json:"trace"`
}

// Directed runs Algorithm 3 for a fixed ratio guess c = |S*|/|T*|:
// starting from S = T = V, each pass removes either A(S) (nodes of S with
// out-degree into T at most (1+ε)·|E(S,T)|/|S|) when |S|/|T| ≥ c, or the
// symmetric B(T) otherwise, tracking the densest (S, T) seen. If c is
// correct this is a (2+2ε)-approximation (Lemma 12) in O(log_{1+ε} n)
// passes (Lemma 13).
//
// o sets the execution. S and T are the two sides of the state the
// undirected engines peel one of (see peel.go), taken from the same
// pool: each pass scans the peeled side's live frontier with per-chunk
// batch buffers merged in index order, then either pushes the
// cross-degree decrements in one sequential loop or recounts the other
// side's degrees in parallel chunks, chosen by row volume alone, so
// results are bit-identical for every worker count.
func Directed(g *graph.Directed, c, eps float64, o Opts) (*DirectedResult, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("core: c must be a finite value > 0, got %v", c)
	}
	if err := o.Begin(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	st := newDirectedState(g, o)
	defer st.release()
	edges := g.NumEdges()
	size := [2]int{n, n} // |S|, |T|

	density := func() float64 {
		if size[0] == 0 || size[1] == 0 {
			return 0
		}
		return float64(edges) / math.Sqrt(float64(size[0])*float64(size[1]))
	}

	bestPass := 0
	bestDensity := density()
	trace := []DirectedPassStat{{
		Pass: 0, SizeS: n, SizeT: n, Edges: edges,
		Density: bestDensity, PeeledSide: '-',
	}}

	pass := 0
	for size[0] > 0 && size[1] > 0 {
		if err := o.Checkpoint(trace[len(trace)-1].AsPassStat()); err != nil {
			return nil, &PartialError{Passes: pass, DirectedTrace: trace, Err: err}
		}
		pass++
		// Remove A(S), the nodes of S with below-average out-degree into
		// T, when |S| ≥ c·|T|, and otherwise B(T), the nodes of T with
		// below-average in-degree from S.
		p := 0
		if float64(size[0]) < c*float64(size[1]) {
			p = 1
		}
		peeled, other := &st.sides[p], &st.sides[1-p]
		cut := cutAt((1 + eps) * float64(edges) / float64(size[p]))
		pushVol, degSum, err := st.scanRemove(o, peeled, cut, pass)
		if err != nil {
			return nil, &PartialError{Passes: pass - 1, DirectedTrace: trace, Err: err}
		}
		if len(st.batch) == 0 {
			return nil, fmt.Errorf("core: directed pass %d removed no %c nodes", pass, "ST"[p])
		}
		edges = st.decrement(o, peeled, other, st.batch, pass, edges, pushVol, degSum)
		size[p] -= len(st.batch)
		var removed [2]int
		removed[p] = len(st.batch)
		stat := DirectedPassStat{
			Pass: pass, SizeS: size[0], SizeT: size[1], Edges: edges, Density: density(),
			RemovedS: removed[0], RemovedT: removed[1], PeeledSide: "ST"[p],
		}
		trace = append(trace, stat)
		if stat.Density > bestDensity {
			bestDensity = stat.Density
			bestPass = pass
		}
	}

	return &DirectedResult{
		S:       survivorsAfter(st.sides[0].removedAt, bestPass),
		T:       survivorsAfter(st.sides[1].removedAt, bestPass),
		Density: bestDensity,
		Passes:  pass,
		Trace:   trace,
	}, nil
}

// SweepPoint records the outcome of Algorithm 3 for one c in a sweep.
type SweepPoint struct {
	C       float64 `json:"c"`
	Density float64 `json:"density"`
	Passes  int     `json:"passes"`
}

// SweepResult aggregates a powers-of-δ sweep over c.
type SweepResult struct {
	Best   *DirectedResult `json:"best"`
	BestC  float64         `json:"bestC"`
	Points []SweepPoint    `json:"points"` // one per attempted c, in increasing c order
}

// DirectedSweep runs Algorithm 3 for c = δ^j covering [1/n, n] and keeps
// the best result. Trying powers of δ instead of all n² ratios costs at
// most a δ factor in the approximation (§6.4). δ must exceed 1.
//
// o sets the execution of each per-c run, while the sweep itself
// iterates c values in order (the best-result tie-break depends on it).
// The runs follow one another, so each takes its peel state from the
// pool the previous run released it to: the sweep sizes its scratch
// once, not once per c.
func DirectedSweep(g *graph.Directed, delta, eps float64, o Opts) (*SweepResult, error) {
	return Sweep(g.NumNodes(), delta, func(c float64) (*DirectedResult, error) {
		return Directed(g, c, eps, o)
	})
}

// Sweep is the powers-of-δ sweep over n nodes for any Algorithm 3
// runtime: run is called for c = δ^j covering [1/n, n] in increasing
// order, and the first densest result is kept.
func Sweep(n int, delta float64, run func(c float64) (*DirectedResult, error)) (*SweepResult, error) {
	if delta <= 1 || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("core: delta must be > 1, got %v", delta)
	}
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	maxJ := int(math.Ceil(math.Log(float64(n)) / math.Log(delta)))
	sweep := &SweepResult{}
	for j := -maxJ; j <= maxJ; j++ {
		c := math.Pow(delta, float64(j))
		r, err := run(c)
		if err != nil {
			return nil, fmt.Errorf("core: sweep at c=%v: %w", c, err)
		}
		sweep.Points = append(sweep.Points, SweepPoint{C: c, Density: r.Density, Passes: r.Passes})
		if sweep.Best == nil || r.Density > sweep.Best.Density {
			sweep.Best = r
			sweep.BestC = c
		}
	}
	return sweep, nil
}
