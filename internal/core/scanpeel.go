package core

import (
	"cmp"
	"fmt"
	"math"
	"sync"

	"densestream/internal/graph"
)

// The scan-peel policy: Algorithms 1–3 for the runtimes that can only
// learn degrees by re-reading the edges — a pass over an edge stream
// (§4) or a MapReduce degree job (§5.2). Each pass measures the live
// set through a ScanOracle, picks the nodes to drop, and keeps the
// densest snapshot; the runtime supplies only the oracle. Every trace
// entry records the subgraph as measured at the START of its pass,
// since a scan cannot know the post-removal edge count until the next
// one. (The in-memory engines in this package keep their own loops:
// they hold degrees current by decrements instead of re-measuring.)

// ScanRule selects how an undirected scan-peel pass picks its nodes.
type ScanRule uint8

const (
	// CutRule is Algorithm 1: every live node at or below 2(1+ε)ρ(S)
	// goes. Should a noisy oracle (the §5.1 sketch) lift every estimate
	// past the cut, the pass drops the ε/(1+ε) share (at least one
	// node) with the lowest estimates instead, which keeps the
	// geometric pass bound; exact degrees never get there, since the
	// minimum degree is at most 2ρ.
	CutRule ScanRule = iota
	// WeightedRule is Algorithm 1 over weighted degrees, with a 1e-12
	// slack on the cut against float drift; a pass that removes nothing
	// is an error.
	WeightedRule
	// QuotaRule is Algorithm 2: of the live nodes at or below the cut,
	// the ⌊ε/(1+ε)·|S|⌋ (at least one) with the lowest degrees go, ties
	// broken by node id, and the run stops once fewer than K nodes
	// remain. With no node at or below the cut, the quota comes from
	// all live nodes, as in CutRule's fallback. The quota is cut as
	// the in-memory AtLeastK cuts it, in linear time (lowestKey).
	QuotaRule
)

// ScanSpec describes one scan-peel run.
type ScanSpec struct {
	Nodes int // node ids are 0..Nodes-1
	Eps   float64
	Rule  ScanRule // undirected runs
	K     int      // QuotaRule: the size floor
	C     float64  // directed runs: the guessed ratio |S*|/|T*|
	// Initial is the stat the first progress call sees.
	Initial PassStat
}

// ScanSnapshot is the state of a scan-peel run after a completed pass:
// what a checkpoint persists and ScanOracle.Start restores.
type ScanSnapshot struct {
	Pass        int
	BestPass    int // the pass whose starting set was densest so far
	BestDensity float64
	// RemovedAt holds the pass that removed each node (each node of S,
	// for directed runs), 0 while it is live; RemovedAtT is T's.
	RemovedAt     []int32
	RemovedAtT    []int32
	Trace         []PassStat         // undirected runs
	DirectedTrace []DirectedPassStat // directed runs
}

// ScanOracle is the runtime half of a scan-peel run.
type ScanOracle interface {
	// Start readies the first pass and returns the state of an
	// interrupted run to continue from, or nil to begin at pass 1.
	Start() (*ScanSnapshot, error)
	// Measure measures the live set of the given pass: the edges whose
	// source is live in aliveU and whose target is live in aliveV. It
	// returns their count and total weight and makes Degree valid for
	// live nodes. Undirected runs pass one slice twice and side 0;
	// directed runs pass S and T and the side being peeled ('S' or
	// 'T'), and Degree then reports degrees on that side only. A
	// context error must be returned unwrapped.
	//
	// Within a run the policy only ever clears live flags: a node live
	// in pass p was live in every earlier pass. So an edge that is not
	// live in one pass is not live in any later pass of the run, and an
	// oracle may skip any part of the edges it saw without a live edge
	// (the stream scanner skips such blocks), or keep only the edges
	// live in some pass and measure every later pass over those (the
	// stream scanner holds such a residual in memory and reads no input
	// after it). Start begins a new run.
	Measure(pass int, aliveU, aliveV []bool, side byte) (edges int64, weight float64, err error)
	// Degree returns node u's degree from the last Measure.
	Degree(u int32) float64
	// Commit applies a decided pass: the nodes it removed are those
	// whose removal pass in snap is snap.Pass.
	Commit(snap *ScanSnapshot) error
}

// scanRun holds what both scan-peel loops share. scanPool recycles it
// with its O(n) buffers, which no Result aliases; a resumed snapshot
// keeps the schedules its oracle restored.
type scanRun struct {
	or   ScanOracle
	o    Opts
	snap *ScanSnapshot

	removedAt, removedAtT []int32 // a fresh snapshot's schedules
	alive, aliveT         []bool
	ids                   []int32 // removeLowest's candidates
	degs, sel             []float64
}

var scanPool sync.Pool

// startScan validates the common inputs and sets up or restores the
// run's state.
func startScan(spec ScanSpec, or ScanOracle, o Opts, directed bool) (*scanRun, error) {
	if err := checkEps(spec.Eps); err != nil {
		return nil, err
	}
	if directed && (spec.C <= 0 || math.IsNaN(spec.C) || math.IsInf(spec.C, 0)) {
		return nil, fmt.Errorf("core: c must be a finite value > 0, got %v", spec.C)
	}
	if err := o.Begin(); err != nil {
		return nil, err
	}
	n := spec.Nodes
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if !directed && spec.Rule == QuotaRule && (spec.K < 1 || spec.K > n) {
		return nil, fmt.Errorf("core: k=%d out of range [1,%d]", spec.K, n)
	}
	snap, err := or.Start()
	if err != nil {
		return nil, err
	}
	if snap != nil && (len(snap.RemovedAt) != n || directed && len(snap.RemovedAtT) != n) {
		return nil, fmt.Errorf("core: resumed removal schedule has %d/%d nodes, want %d", len(snap.RemovedAt), len(snap.RemovedAtT), n)
	}
	r, _ := scanPool.Get().(*scanRun)
	if r == nil {
		r = new(scanRun)
	}
	r.or, r.o = or, o
	if snap == nil {
		r.removedAt = resize(r.removedAt, n)
		clear(r.removedAt)
		snap = &ScanSnapshot{BestDensity: -1, RemovedAt: r.removedAt}
		if directed {
			r.removedAtT = resize(r.removedAtT, n)
			clear(r.removedAtT)
			snap.RemovedAtT = r.removedAtT
		}
	}
	r.snap = snap
	return r, nil
}

// release parks r in scanPool, pinning no oracle, context or snapshot.
func (r *scanRun) release() {
	r.or, r.o, r.snap = nil, Opts{}, nil
	scanPool.Put(r)
}

// measure runs the oracle, turning a context error into a PartialError
// that carries the completed passes.
func (r *scanRun) measure(aliveU, aliveV []bool, side byte) (int64, float64, error) {
	edges, weight, err := r.or.Measure(r.snap.Pass+1, aliveU, aliveV, side)
	if err != nil && r.o.Ctx != nil && err == r.o.Ctx.Err() {
		err = &PartialError{Passes: r.snap.Pass, Trace: r.snap.Trace, DirectedTrace: r.snap.DirectedTrace, Err: err}
	}
	return edges, weight, err
}

// track records the density measured at the start of pass.
func (r *scanRun) track(pass int, rho float64) {
	if rho > r.snap.BestDensity {
		r.snap.BestDensity = rho
		r.snap.BestPass = pass
	}
}

// removeBelow removes every live node whose degree is at most cut and
// returns how many it removed.
func (r *scanRun) removeBelow(alive []bool, removedAt []int32, cut float64, pass int) int {
	removed := 0
	for u, live := range alive {
		if live && r.or.Degree(int32(u)) <= cut {
			alive[u] = false
			removedAt[u] = int32(pass)
			removed++
		}
	}
	return removed
}

// removeLowest removes the ⌊frac·nodes⌋ (at least one) live nodes with
// the lowest degrees among those at or below cut — or among all live
// nodes if none is — ties broken by node id, and returns how many it
// removed.
func (r *scanRun) removeLowest(alive []bool, removedAt []int32, cut, frac float64, nodes, pass int) int {
	ids, degs := r.ids[:0], r.degs[:0]
	for u, live := range alive {
		if live {
			if d := r.or.Degree(int32(u)); d <= cut {
				ids, degs = append(ids, int32(u)), append(degs, d)
			}
		}
	}
	if len(ids) == 0 {
		for u, live := range alive {
			if live {
				ids, degs = append(ids, int32(u)), append(degs, r.or.Degree(int32(u)))
			}
		}
	}
	r.ids, r.degs = ids, degs
	quota := min(max(int(frac*float64(nodes)), 1), len(ids))
	kd, kid := math.Inf(1), int32(math.MaxInt32)
	if quota < len(ids) {
		kd, kid = lowestKey(ids, degs, &r.sel, quota)
	}
	for i, u := range ids {
		if c := cmp.Compare(degs[i], kd); c < 0 || c == 0 && u <= kid {
			alive[u] = false
			removedAt[u] = int32(pass)
		}
	}
	return quota
}

// liveFlags returns the alive flags of a removal schedule, kept in
// *buf's storage, and their count.
func liveFlags(buf *[]bool, removedAt []int32) ([]bool, int) {
	alive := resize(*buf, len(removedAt))
	*buf = alive
	live := 0
	for u, p := range removedAt {
		alive[u] = p == 0
		if p == 0 {
			live++
		}
	}
	return alive, live
}

// ScanPeel runs Algorithm 1 (CutRule, WeightedRule) or Algorithm 2
// (QuotaRule) over a degree oracle. It validates the inputs, honours
// o.Ctx and o.Progress between passes (and a context error from the
// oracle mid-pass) with a PartialError, and returns the densest set
// measured, with one trace entry per pass.
func ScanPeel(spec ScanSpec, or ScanOracle, o Opts) (*Result, error) {
	r, err := startScan(spec, or, o, false)
	if err != nil {
		return nil, err
	}
	defer r.release()
	snap := r.snap
	alive, nodes := liveFlags(&r.alive, snap.RemovedAt)
	floor := 1
	if spec.Rule == QuotaRule {
		floor = spec.K
	}
	prev := spec.Initial
	if len(snap.Trace) > 0 {
		prev = snap.Trace[len(snap.Trace)-1]
	}
	eps := spec.Eps
	threshold := 2 * (1 + eps)
	frac := eps / (1 + eps)
	for nodes >= floor {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &PartialError{Passes: snap.Pass, Trace: snap.Trace, Err: err}
		}
		edges, weight, err := r.measure(alive, alive, 0)
		if err != nil {
			return nil, err
		}
		pass := snap.Pass + 1
		rho := weight / float64(nodes)
		r.track(pass, rho)
		cut := threshold * rho
		var removed int
		switch spec.Rule {
		case CutRule:
			if removed = r.removeBelow(alive, snap.RemovedAt, cut, pass); removed == 0 {
				removed = r.removeLowest(alive, snap.RemovedAt, math.Inf(1), frac, nodes, pass)
			}
		case WeightedRule:
			if removed = r.removeBelow(alive, snap.RemovedAt, cut+1e-12, pass); removed == 0 {
				return nil, fmt.Errorf("core: weighted pass %d removed no nodes (ρ=%v)", pass, rho)
			}
		case QuotaRule:
			removed = r.removeLowest(alive, snap.RemovedAt, cut, frac, nodes, pass)
		}
		prev = PassStat{Pass: pass, Nodes: nodes, Edges: edges, Density: rho, Removed: removed}
		snap.Trace = append(snap.Trace, prev)
		snap.Pass = pass
		nodes -= removed
		if err := or.Commit(snap); err != nil {
			return nil, err
		}
	}
	// The set measured at the start of BestPass is every node removed
	// in that pass or later.
	return &Result{
		Set:     survivorsAfter(snap.RemovedAt, snap.BestPass-1),
		Density: snap.BestDensity,
		Passes:  snap.Pass,
		Trace:   snap.Trace,
	}, nil
}

// ScanPeelDirected runs Algorithm 3 for the ratio spec.C over a degree
// oracle: each pass peels S when |S| ≥ c·|T| and T otherwise, removing
// the nodes of that side whose degree is at most (1+ε)·|E(S,T)| over
// the side's size. Interruption behaves as in ScanPeel.
func ScanPeelDirected(spec ScanSpec, or ScanOracle, o Opts) (*DirectedResult, error) {
	r, err := startScan(spec, or, o, true)
	if err != nil {
		return nil, err
	}
	defer r.release()
	snap := r.snap
	aliveS, sizeS := liveFlags(&r.alive, snap.RemovedAt)
	aliveT, sizeT := liveFlags(&r.aliveT, snap.RemovedAtT)
	prev := spec.Initial
	if len(snap.DirectedTrace) > 0 {
		prev = snap.DirectedTrace[len(snap.DirectedTrace)-1].AsPassStat()
	}
	for sizeS > 0 && sizeT > 0 {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &PartialError{Passes: snap.Pass, DirectedTrace: snap.DirectedTrace, Err: err}
		}
		side, alive, removedAt, size := byte('S'), aliveS, snap.RemovedAt, sizeS
		if float64(sizeS) < spec.C*float64(sizeT) {
			side, alive, removedAt, size = 'T', aliveT, snap.RemovedAtT, sizeT
		}
		edges, _, err := r.measure(aliveS, aliveT, side)
		if err != nil {
			return nil, err
		}
		pass := snap.Pass + 1
		rho := float64(edges) / math.Sqrt(float64(sizeS)*float64(sizeT))
		r.track(pass, rho)
		cut := (1 + spec.Eps) * float64(edges) / float64(size)
		removed := r.removeBelow(alive, removedAt, cut, pass)
		if removed == 0 {
			return nil, fmt.Errorf("core: directed pass %d removed no %c nodes", pass, side)
		}
		stat := DirectedPassStat{Pass: pass, Edges: edges, Density: rho, PeeledSide: side}
		if side == 'S' {
			sizeS -= removed
			stat.RemovedS = removed
		} else {
			sizeT -= removed
			stat.RemovedT = removed
		}
		stat.SizeS, stat.SizeT = sizeS, sizeT
		snap.DirectedTrace = append(snap.DirectedTrace, stat)
		snap.Pass = pass
		prev = stat.AsPassStat()
		if err := or.Commit(snap); err != nil {
			return nil, err
		}
	}
	return &DirectedResult{
		S:       survivorsAfter(snap.RemovedAt, snap.BestPass-1),
		T:       survivorsAfter(snap.RemovedAtT, snap.BestPass-1),
		Density: snap.BestDensity,
		Passes:  snap.Pass,
		Trace:   snap.DirectedTrace,
	}, nil
}
