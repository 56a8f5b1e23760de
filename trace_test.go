package densestream_test

// Trace identity across runtimes: the streaming and MapReduce backends
// run the same scan-peel policy as the in-memory engine, so their
// traces are the peel trace seen from the start of each pass instead
// of its end — and the MapReduce trace is the stream trace.

import (
	"fmt"
	"reflect"
	"testing"

	ds "densestream"
)

// shiftTrace turns a peel trace (entry 0 the initial state, entry i
// the state after pass i) into the scan shape: entry i describes the
// subgraph at the start of pass i+1 and what that pass removed.
func shiftTrace(peel []ds.PassStat) []ds.PassStat {
	out := make([]ds.PassStat, len(peel)-1)
	for i := range out {
		before, after := peel[i], peel[i+1]
		out[i] = ds.PassStat{Pass: after.Pass, Nodes: before.Nodes, Edges: before.Edges, Density: before.Density, Removed: after.Removed}
	}
	return out
}

// shiftDirectedTrace is shiftTrace for Algorithm 3: the edges and
// density come from the start of the pass, the side sizes, removed
// counts and peeled side from its end.
func shiftDirectedTrace(peel []ds.DirectedPassStat) []ds.DirectedPassStat {
	out := make([]ds.DirectedPassStat, len(peel)-1)
	for i := range out {
		st := peel[i+1]
		st.Edges, st.Density = peel[i].Edges, peel[i].Density
		out[i] = st
	}
	return out
}

func TestTraceIdentityAcrossRuntimes(t *testing.T) {
	und, dir := parityGraphs(t)
	for _, eps := range []float64{0, 0.5, 3} {
		for gi, g := range und {
			for _, obj := range []ds.Objective{ds.ObjectiveUndirected, ds.ObjectiveAtLeastK} {
				label := fmt.Sprintf("%s graph %d eps=%v", obj, gi, eps)
				p := ds.Problem{Objective: obj, K: 100, Eps: eps, Graph: g}
				p.Backend = ds.BackendMapReduce
				mr := solveOK(t, p)
				for _, w := range []int{1, 3} {
					p.Backend = ds.BackendPeel
					peel := solveOK(t, p, ds.WithWorkers(w))
					p.Backend, p.Graph, p.Edges = ds.BackendStream, nil, ds.StreamGraph(g)
					st := solveOK(t, p, ds.WithWorkers(w))
					p.Graph, p.Edges = g, nil
					if !reflect.DeepEqual(st.Trace, shiftTrace(peel.Trace)) {
						t.Fatalf("%s workers=%d: stream trace is not the shifted peel trace", label, w)
					}
					if !reflect.DeepEqual(mr.Trace, st.Trace) {
						t.Fatalf("%s workers=%d: MapReduce trace differs from the stream trace", label, w)
					}
				}
			}
		}
		for gi, g := range dir {
			label := fmt.Sprintf("directed graph %d eps=%v", gi, eps)
			p := ds.Problem{Objective: ds.ObjectiveDirected, C: 1, Eps: eps, Directed: g, Backend: ds.BackendMapReduce}
			mr := solveOK(t, p)
			for _, w := range []int{1, 3} {
				p.Backend = ds.BackendPeel
				peel := solveOK(t, p, ds.WithWorkers(w))
				p.Backend, p.Directed, p.Edges = ds.BackendStream, nil, ds.StreamDirectedGraph(g)
				st := solveOK(t, p, ds.WithWorkers(w))
				p.Directed, p.Edges = g, nil
				if !reflect.DeepEqual(st.DirectedTrace, shiftDirectedTrace(peel.DirectedTrace)) {
					t.Fatalf("%s workers=%d: stream trace is not the shifted peel trace", label, w)
				}
				if !reflect.DeepEqual(mr.DirectedTrace, st.DirectedTrace) {
					t.Fatalf("%s workers=%d: MapReduce trace differs from the stream trace", label, w)
				}
			}
		}
	}
}
