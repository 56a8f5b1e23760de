// Package dynamic maintains a (2+2ε)-approximate densest subgraph over
// a mutating edge log — inserts, deletes, and sliding-window expiry —
// without recomputing from scratch on every change.
//
// The design is epoch-based lazy re-peeling. A peel run certifies
// ρ*(G) ≤ (2+2ε)·ρ₀ for the graph G it ran on (ρ₀ the returned
// density). As the live edge set drifts away from that checkpoint, the
// certificate degrades in a way that can be bounded in O(1) per update:
// deleting edges never raises the optimum, and inserting a set A of
// distinct edges raises it by at most √(|A|/2) — the new optimum S
// gains at most min(|A|, |S|(|S|-1)/2) edges, so its density gains at
// most min(|A|/s, (s-1)/2) ≤ √(|A|/2) for every size s. The maintainer
// also tracks the exact current density ρ_cur of the maintained set S̃
// on the live graph (a bitmap membership test per update). The
// maintained solution therefore remains a certified (2+2ε′)-
// approximation as long as
//
//	(2+2ε′)·ρ_cur ≥ (2+2ε)·ρ₀ + √(|A|/2)
//
// and only when this inequality breaks does the maintainer mark itself
// stale and re-peel at the next read — an epoch boundary. The re-peel
// does not rebuild the graph from the edge log: the previous epoch's
// frozen CSR is the checkpoint, and graph.ApplyDelta merges the
// accumulated insert/delete delta into it in O(n + m + Δ), bit-identical
// to a from-scratch Builder.Freeze of the live edge set. The peel
// itself then runs the standard internal/core engine (live-vertex
// frontiers, push/pull decrements), so at every epoch boundary the
// maintained result is bit-identical to a from-scratch solve on the
// live edges, at every worker count.
//
// Sliding windows ride on the same machinery: timestamped inserts are
// recorded in fixed-width time buckets, and Advance expires whole
// buckets at once, so deletes arrive in amortized O(1) batches rather
// than one heap operation per edge.
package dynamic

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"densestream/internal/core"
	"densestream/internal/graph"
)

// Config shapes a Maintainer.
type Config struct {
	// NumNodes fixes the node universe [0, NumNodes); edges outside it
	// are rejected. Required.
	NumNodes int
	// Eps is the peeling slack ε ≥ 0 of each epoch's re-peel.
	Eps float64
	// DriftEps is the staleness slack ε′ ≥ Eps: between epochs the
	// maintained solution is guaranteed (2+2ε′)-approximate, and a
	// re-peel triggers as soon as the drift bound can no longer certify
	// that. 0 means Eps (re-peel whenever the original guarantee is in
	// doubt); larger values trade approximation for fewer re-peels.
	DriftEps float64
	// Window is the sliding-window width in timestamp units; edges
	// older than the newest Advance watermark minus Window expire in
	// bucket batches. 0 disables expiry (pure insert/delete mode).
	Window int64
	// Buckets is the window's expiry quantization (default 16): the
	// window is cut into Buckets-sized time buckets and an edge expires
	// when its whole bucket has left the window.
	Buckets int
	// Workers is the worker count of each re-peel (0 = GOMAXPROCS).
	// Results are bit-identical for every value.
	Workers int
}

// Stats counts the maintainer's work; all fields are cumulative except
// the two gauges LiveEdges and WindowEdges.
type Stats struct {
	// Updates counts applied mutations: inserts, deletes, and expiries.
	Updates int64 `json:"updates"`
	Inserts int64 `json:"inserts"`
	Deletes int64 `json:"deletes"`
	// Expired counts edge instances removed by window expiry.
	Expired int64 `json:"expired"`
	// Epochs counts re-peels — each one an epoch boundary where the
	// maintained solution equals a from-scratch solve on the live set.
	Epochs int64 `json:"epochs"`
	// DriftTriggers counts the epochs forced by the drift bound (the
	// rest were explicit Flush calls or first reads).
	DriftTriggers int64 `json:"driftTriggers"`
	// LiveEdges is the current number of distinct live edges.
	LiveEdges int64 `json:"liveEdges"`
	// WindowEdges is the window occupancy: timestamped edge instances
	// recorded but not yet expired or explicitly deleted.
	WindowEdges int64 `json:"windowEdges"`
}

// Maintainer owns a mutable edge multiset and the current approximate
// densest-subgraph solution over its distinct live edges. All methods
// are safe for concurrent use.
type Maintainer struct {
	mu  sync.Mutex
	cfg Config

	counts map[uint64]int32 // live multiplicity per distinct edge key
	live   int64            // len(counts), kept as a counter

	// Sliding-window state (Window > 0 only).
	bucketW int64
	buckets map[int64][]uint64 // bucket id -> insertion records, in order
	debt    map[uint64]int32   // explicit deletes waiting to absorb a record
	records int64              // outstanding records (incl. debt-absorbed)
	debtSum int64
	now     int64
	hasNow  bool
	lastHi  int64 // highest bucket id already expired
	hasHi   bool

	// Epoch checkpoint and drift state.
	base    *graph.Undirected // frozen CSR of the last epoch's live set
	added   map[uint64]struct{}
	removed map[uint64]struct{}
	res     *core.Result
	rho0    float64
	inS     []bool
	sEdges  int64 // live edges with both endpoints in res.Set
	stale   bool

	stats Stats
}

func key(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

func unkey(k uint64) (int32, int32) { return int32(k >> 32), int32(uint32(k)) }

// New returns a maintainer over an initially empty graph on
// cfg.NumNodes nodes.
func New(cfg Config) (*Maintainer, error) {
	if cfg.NumNodes < 1 {
		return nil, fmt.Errorf("dynamic: Config.NumNodes must be >= 1, got %d", cfg.NumNodes)
	}
	if cfg.Eps < 0 || math.IsNaN(cfg.Eps) || math.IsInf(cfg.Eps, 0) {
		return nil, fmt.Errorf("dynamic: Config.Eps must be a finite value >= 0, got %v", cfg.Eps)
	}
	if cfg.DriftEps == 0 {
		cfg.DriftEps = cfg.Eps
	}
	if cfg.DriftEps < cfg.Eps || math.IsNaN(cfg.DriftEps) || math.IsInf(cfg.DriftEps, 0) {
		return nil, fmt.Errorf("dynamic: Config.DriftEps must be a finite value >= Eps, got %v", cfg.DriftEps)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("dynamic: Config.Window must be >= 0, got %d", cfg.Window)
	}
	if cfg.Buckets < 0 {
		return nil, fmt.Errorf("dynamic: Config.Buckets must be >= 0, got %d", cfg.Buckets)
	}
	m := &Maintainer{
		cfg:     cfg,
		counts:  make(map[uint64]int32),
		added:   make(map[uint64]struct{}),
		removed: make(map[uint64]struct{}),
	}
	if cfg.Window > 0 {
		if cfg.Buckets == 0 {
			cfg.Buckets = 16
			m.cfg.Buckets = 16
		}
		m.bucketW = cfg.Window / int64(cfg.Buckets)
		if m.bucketW < 1 {
			m.bucketW = 1
		}
		m.buckets = make(map[int64][]uint64)
		m.debt = make(map[uint64]int32)
	}
	empty, err := graph.NewBuilder(cfg.NumNodes).Freeze()
	if err != nil {
		return nil, err
	}
	m.base = empty
	m.stale = true
	return m, nil
}

// Windowed reports whether the maintainer expires edges by timestamp.
func (m *Maintainer) Windowed() bool { return m.cfg.Window > 0 }

// NumNodes returns the fixed node universe size.
func (m *Maintainer) NumNodes() int { return m.cfg.NumNodes }

// Eps returns the configured peel slack ε.
func (m *Maintainer) Eps() float64 { return m.cfg.Eps }

func (m *Maintainer) check(u, v int32) (int32, int32, error) {
	if u < 0 || int(u) >= m.cfg.NumNodes || v < 0 || int(v) >= m.cfg.NumNodes {
		return 0, 0, fmt.Errorf("%w: (%d,%d) with n=%d", graph.ErrNodeRange, u, v, m.cfg.NumNodes)
	}
	if u == v {
		return 0, 0, fmt.Errorf("%w: node %d", graph.ErrSelfLoop, u)
	}
	if u > v {
		u, v = v, u
	}
	return u, v, nil
}

// Insert adds one instance of the edge {u, v}. On a windowed maintainer
// it stamps the edge with the current watermark; use InsertAt to supply
// event time.
func (m *Maintainer) Insert(u, v int32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.insertLocked(u, v, m.now)
}

// InsertAt adds one instance of the edge {u, v} stamped ts. On a
// windowed maintainer the edge lands in its time bucket (and is dropped
// outright when that bucket has already expired); without a window the
// timestamp is ignored.
func (m *Maintainer) InsertAt(u, v int32, ts int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.insertLocked(u, v, ts)
}

func (m *Maintainer) insertLocked(u, v int32, ts int64) error {
	u, v, err := m.check(u, v)
	if err != nil {
		return err
	}
	k := key(u, v)
	if m.Windowed() {
		b := floorDiv(ts, m.bucketW)
		if m.hasHi && b <= m.lastHi {
			// The edge's bucket has already left the window.
			return nil
		}
		m.buckets[b] = append(m.buckets[b], k)
		m.records++
	}
	m.stats.Updates++
	m.stats.Inserts++
	c := m.counts[k]
	m.counts[k] = c + 1
	if c == 0 {
		m.distinctInsert(u, v, k)
	}
	return nil
}

// Delete removes one instance of the edge {u, v}; on a windowed
// maintainer the oldest live instance is the one considered removed.
// Deleting an absent edge is an error.
func (m *Maintainer) Delete(u, v int32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	u, v, err := m.check(u, v)
	if err != nil {
		return err
	}
	k := key(u, v)
	c := m.counts[k]
	if c == 0 {
		return fmt.Errorf("dynamic: delete of absent edge {%d,%d}", u, v)
	}
	m.stats.Updates++
	m.stats.Deletes++
	if m.Windowed() {
		// The instance's bucket record is still queued; leave a debt so
		// expiry skips one record instead of double-removing.
		m.debt[k]++
		m.debtSum++
	}
	if c == 1 {
		delete(m.counts, k)
		m.distinctDelete(u, v, k)
	} else {
		m.counts[k] = c - 1
	}
	return nil
}

// Advance moves the window watermark to now (monotone; older values are
// ignored) and expires every bucket that has entirely left the window,
// removing its recorded edge instances in insertion order. On a
// maintainer without a window it is a no-op.
func (m *Maintainer) Advance(now int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.Windowed() {
		return nil
	}
	if m.hasNow && now <= m.now {
		return nil
	}
	m.now = now
	m.hasNow = true
	// Bucket b covers [b·w, b·w + w - 1]; it expires once its newest
	// possible timestamp is outside the window.
	hi := floorDiv(now-m.cfg.Window-m.bucketW+1, m.bucketW)
	if m.hasHi && hi <= m.lastHi {
		return nil
	}
	var due []int64
	for b := range m.buckets {
		if b <= hi {
			due = append(due, b)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, b := range due {
		for _, k := range m.buckets[b] {
			m.records--
			if d := m.debt[k]; d > 0 {
				// An explicit delete already removed this instance.
				if d == 1 {
					delete(m.debt, k)
				} else {
					m.debt[k] = d - 1
				}
				m.debtSum--
				continue
			}
			c := m.counts[k]
			m.stats.Updates++
			m.stats.Expired++
			if c == 1 {
				delete(m.counts, k)
				u, v := unkey(k)
				m.distinctDelete(u, v, k)
			} else {
				m.counts[k] = c - 1
			}
		}
		delete(m.buckets, b)
	}
	m.lastHi = hi
	m.hasHi = true
	return nil
}

// distinctInsert records a 0→1 multiplicity transition: the edge joined
// the live distinct set.
func (m *Maintainer) distinctInsert(u, v int32, k uint64) {
	if _, ok := m.removed[k]; ok {
		delete(m.removed, k)
	} else {
		m.added[k] = struct{}{}
	}
	m.live++
	if m.inS != nil && m.inS[u] && m.inS[v] {
		m.sEdges++
	}
	m.checkDrift()
}

// distinctDelete records a 1→0 transition: the edge left the live set.
func (m *Maintainer) distinctDelete(u, v int32, k uint64) {
	if _, ok := m.added[k]; ok {
		delete(m.added, k)
	} else {
		m.removed[k] = struct{}{}
	}
	m.live--
	if m.inS != nil && m.inS[u] && m.inS[v] {
		m.sEdges--
	}
	m.checkDrift()
}

// checkDrift re-evaluates the certificate after a distinct-set change
// and marks the maintainer stale when the (2+2ε′) guarantee can no
// longer be proved from the last epoch's peel plus the drift bound.
func (m *Maintainer) checkDrift() {
	if m.stale || m.res == nil {
		m.stale = true
		return
	}
	rhoCur := float64(m.sEdges) / float64(len(m.res.Set))
	bound := (2+2*m.cfg.Eps)*m.rho0 + math.Sqrt(float64(len(m.added))/2)
	if (2+2*m.cfg.DriftEps)*rhoCur < bound {
		m.stale = true
		m.stats.DriftTriggers++
	}
}

// Current returns the maintained solution, re-peeling first if the
// drift trigger has fired since the last epoch (or no epoch has run
// yet). Between epochs the returned result is certified
// (2+2·DriftEps)-approximate on the live edge set; at an epoch boundary
// it is bit-identical to a from-scratch peel of the live edges. The
// result aliases maintainer state and must not be modified.
func (m *Maintainer) Current() (*core.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.res == nil || m.stale {
		if err := m.repeelLocked(); err != nil {
			return nil, err
		}
	}
	return m.res, nil
}

// Flush forces the maintained solution exactly up to date with the live
// edge set — an explicit epoch boundary — and returns it.
func (m *Maintainer) Flush() (*core.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.res == nil || len(m.added) > 0 || len(m.removed) > 0 {
		if err := m.repeelLocked(); err != nil {
			return nil, err
		}
	} else {
		// The live set equals the checkpoint, where the certificate held
		// by construction; a transient trigger is moot.
		m.stale = false
	}
	return m.res, nil
}

// repeelLocked runs one epoch: merge the delta into the checkpoint CSR,
// re-peel, and reset the drift state.
func (m *Maintainer) repeelLocked() error {
	if m.res != nil && len(m.added) == 0 && len(m.removed) == 0 {
		m.stale = false
		return nil
	}
	live, err := m.base.ApplyDelta(sortedEdges(m.added), sortedEdges(m.removed))
	if err != nil {
		return fmt.Errorf("dynamic: rebuilding live graph: %w", err)
	}
	r, err := core.Undirected(live, m.cfg.Eps, core.Opts{Workers: m.cfg.Workers})
	if err != nil {
		return fmt.Errorf("dynamic: re-peel: %w", err)
	}
	m.base = live
	m.added = make(map[uint64]struct{})
	m.removed = make(map[uint64]struct{})
	m.res = r
	m.rho0 = r.Density
	if m.inS == nil {
		m.inS = make([]bool, m.cfg.NumNodes)
	} else {
		for i := range m.inS {
			m.inS[i] = false
		}
	}
	for _, u := range r.Set {
		m.inS[u] = true
	}
	m.sEdges = 0
	for _, u := range r.Set {
		for _, v := range live.Neighbors(u) {
			if v > u && m.inS[v] {
				m.sEdges++
			}
		}
	}
	m.stale = false
	m.stats.Epochs++
	return nil
}

// Epoch returns the number of re-peels performed so far.
func (m *Maintainer) Epoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats.Epochs
}

// Stale reports whether the drift trigger has fired since the last
// epoch (the next Current will re-peel).
func (m *Maintainer) Stale() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stale || m.res == nil
}

// Stats returns a snapshot of the maintainer's counters and gauges.
func (m *Maintainer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.LiveEdges = m.live
	s.WindowEdges = m.records - m.debtSum
	return s
}

// Edges returns the distinct live edge set, (U,V)-sorted — the exact
// input a from-scratch solve at this instant would see.
func (m *Maintainer) Edges() []graph.Edge {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedEdges(keysOf(m.counts))
}

func keysOf(counts map[uint64]int32) map[uint64]struct{} {
	out := make(map[uint64]struct{}, len(counts))
	for k := range counts {
		out[k] = struct{}{}
	}
	return out
}

func sortedEdges(keys map[uint64]struct{}) []graph.Edge {
	out := make([]graph.Edge, 0, len(keys))
	for k := range keys {
		u, v := unkey(k)
		out = append(out, graph.Edge{U: u, V: v, Weight: 1})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// floorDiv is integer division rounding toward negative infinity, so
// negative timestamps bucket consistently.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
