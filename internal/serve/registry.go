package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	ds "densestream"
	"densestream/internal/edgeio"
)

// Edge is one registered edge. Registered graphs use dense integer node
// ids (like the file-stream inputs); W is 1 for unweighted graphs.
type Edge struct {
	U, V int32
	W    float64
}

// GraphInfo describes one registered graph; it is the JSON shape the
// /graphs endpoints return.
type GraphInfo struct {
	Name     string `json:"name"`
	Directed bool   `json:"directed"`
	Weighted bool   `json:"weighted"`
	// Nodes and Edges count the registered input (edges as given,
	// before parallel-edge merging).
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Fingerprint identifies the graph content: two graphs with the
	// same fingerprint produce bit-identical Solutions for the same
	// Problem. Appending edges changes it, which is what invalidates
	// cached results.
	Fingerprint string `json:"fingerprint"`
	// Version counts registrations and appends under this name.
	Version int64 `json:"version"`
	// Dynamic marks a graph backed by an incremental Maintainer:
	// POST /graphs/{name}/edges feeds it in place and matching solve
	// requests are served from the maintained solution instead of
	// recomputing cold. Eps is the maintainer's peeling slack and
	// Window its sliding-window width (0 = no expiry).
	Dynamic bool    `json:"dynamic,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Window  int64   `json:"window,omitempty"`
}

// Snapshot is an immutable view of a registered graph at one version:
// the frozen in-memory graph plus its identifying info. Solves hold a
// Snapshot, so a concurrent append never mutates a running solve —
// it produces the next version instead.
type Snapshot struct {
	Info GraphInfo
	// Exactly one of Graph and Directed is non-nil, per Info.Directed.
	Graph    *ds.UndirectedGraph
	Directed *ds.DirectedGraph
}

// graphEntry is the mutable registry slot behind one name.
type graphEntry struct {
	mu       sync.Mutex
	info     GraphInfo
	edges    []Edge
	snap     *Snapshot // built lazily; nil after an append (stale)
	buildErr error     // sticky build failure for the current version

	// dyn, when non-nil, is the incremental maintainer behind a dynamic
	// graph: appends feed it in place and Snapshot freezes its live
	// edge set instead of the append log.
	dyn    *ds.Maintainer
	dynCfg ds.MaintainerConfig
}

// Registry is the named-graph store of the daemon: load once, solve
// many. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*graphEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*graphEntry)}
}

// Register creates or replaces the graph under name. Edges use dense
// integer ids; nodes may exceed the largest id to declare isolated
// trailing nodes (0 sizes it from the edges).
func (r *Registry) Register(name string, directed, weighted bool, edges []Edge, nodes int) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, fmt.Errorf("serve: graph name must not be empty")
	}
	if directed && weighted {
		return GraphInfo{}, fmt.Errorf("serve: directed graphs do not support weights")
	}
	if err := checkNodes(nodes); err != nil {
		return GraphInfo{}, err
	}
	if err := checkEdges(edges, weighted); err != nil {
		return GraphInfo{}, err
	}
	n := maxNode(edges) + 1
	if nodes > int(n) {
		n = int32(nodes)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.graphs[name]
	version := int64(1)
	if prev != nil {
		prev.mu.Lock()
		version = prev.info.Version + 1
		prev.mu.Unlock()
	}
	e := &graphEntry{
		info:  GraphInfo{Name: name, Directed: directed, Weighted: weighted, Nodes: int(n), Edges: len(edges), Version: version},
		edges: append([]Edge(nil), edges...),
	}
	e.info.Fingerprint = fingerprint(e.info, e.edges)
	r.graphs[name] = e
	return e.info, nil
}

// Append adds edges to an existing graph, bumping its version and
// fingerprint (which unkeys every cached result for the old content).
// New node ids extend the graph. On a dynamic graph the edges feed the
// maintainer in place (the node universe is fixed at registration) and
// the fingerprint tracks the ingest log.
func (r *Registry) Append(name string, edges []Edge) (GraphInfo, error) {
	e, err := r.entry(name)
	if err != nil {
		return GraphInfo{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn != nil {
		if err := feedMaintainer(e.dyn, e.dynCfg, edges, false); err != nil {
			return GraphInfo{}, err
		}
		return e.bumpDynamicLocked(edges), nil
	}
	if err := checkEdges(edges, e.info.Weighted); err != nil {
		return GraphInfo{}, err
	}
	e.edges = append(e.edges, edges...)
	if n := maxNode(e.edges) + 1; int(n) > e.info.Nodes {
		e.info.Nodes = int(n)
	}
	e.info.Edges = len(e.edges)
	e.info.Version++
	e.info.Fingerprint = fingerprint(e.info, e.edges)
	e.snap, e.buildErr = nil, nil
	return e.info, nil
}

// RegisterDynamic creates or replaces name as a dynamic graph: a
// maintainer over the fixed node universe [0, cfg.NumNodes) seeded with
// the given edges. On a windowed maintainer (cfg.Window > 0) each
// edge's W column is its integer timestamp and the watermark advances
// with the feed; otherwise W is ignored.
func (r *Registry) RegisterDynamic(name string, cfg ds.MaintainerConfig, edges []Edge) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, fmt.Errorf("serve: graph name must not be empty")
	}
	if err := checkNodes(cfg.NumNodes); err != nil {
		return GraphInfo{}, err
	}
	if n := int(maxNode(edges)) + 1; cfg.NumNodes < n {
		cfg.NumNodes = n
	}
	if cfg.NumNodes < 1 {
		cfg.NumNodes = 1
	}
	m, err := ds.NewMaintainer(cfg)
	if err != nil {
		return GraphInfo{}, err
	}
	if err := feedMaintainer(m, cfg, edges, false); err != nil {
		return GraphInfo{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.graphs[name]
	version := int64(1)
	if prev != nil {
		prev.mu.Lock()
		version = prev.info.Version + 1
		prev.mu.Unlock()
	}
	e := &graphEntry{
		info: GraphInfo{
			Name: name, Nodes: cfg.NumNodes, Version: version,
			Dynamic: true, Eps: cfg.Eps, Window: cfg.Window,
		},
		dyn: m, dynCfg: cfg,
	}
	e.info.Edges = int(m.Stats().LiveEdges)
	e.info.Fingerprint = fingerprint(e.info, edges)
	r.graphs[name] = e
	return e.info, nil
}

// DeleteEdges removes one instance of each given edge from a dynamic
// graph (static graphs do not support deletion).
func (r *Registry) DeleteEdges(name string, edges []Edge) (GraphInfo, error) {
	e, err := r.entry(name)
	if err != nil {
		return GraphInfo{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn == nil {
		return GraphInfo{}, fmt.Errorf("serve: graph %q is not dynamic; deletes need a graph registered with dynamic=true", name)
	}
	if err := feedMaintainer(e.dyn, e.dynCfg, edges, true); err != nil {
		return GraphInfo{}, err
	}
	return e.bumpDynamicLocked(edges), nil
}

// bumpDynamicLocked refreshes a dynamic entry's descriptor after a
// feed: the live edge gauge, the version, and a fingerprint chained
// over the update batch (content-identifying, like the static log
// hash). Invalidates the memoized snapshot.
func (e *graphEntry) bumpDynamicLocked(batch []Edge) GraphInfo {
	e.info.Edges = int(e.dyn.Stats().LiveEdges)
	e.info.Version++
	prev := e.info.Fingerprint
	e.info.Fingerprint = fingerprint(e.info, batch)[:8] + prev[:8]
	e.snap, e.buildErr = nil, nil
	return e.info
}

// feedMaintainer applies one update batch. Windowed maintainers read
// each edge's W column as its integer timestamp and advance the
// watermark along the way (expiring old buckets in batches).
func feedMaintainer(m *ds.Maintainer, cfg ds.MaintainerConfig, edges []Edge, del bool) error {
	for i, e := range edges {
		if del {
			if err := m.Delete(e.U, e.V); err != nil {
				return fmt.Errorf("serve: edge %d: %w", i, err)
			}
			continue
		}
		if cfg.Window > 0 {
			ts := int64(e.W)
			if float64(ts) != e.W || ts < 1 {
				return fmt.Errorf("serve: edge %d (%d,%d): windowed dynamic graphs need a positive integer timestamp in the weight column, got %v", i, e.U, e.V, e.W)
			}
			if err := m.InsertAt(e.U, e.V, ts); err != nil {
				return fmt.Errorf("serve: edge %d: %w", i, err)
			}
			if err := m.Advance(ts); err != nil {
				return err
			}
			continue
		}
		if err := m.Insert(e.U, e.V); err != nil {
			return fmt.Errorf("serve: edge %d: %w", i, err)
		}
	}
	return nil
}

// DynamicConfig returns the maintainer configuration of a dynamic
// graph, reporting ok=false for static (or unknown) names.
func (r *Registry) DynamicConfig(name string) (ds.MaintainerConfig, bool) {
	e, err := r.entry(name)
	if err != nil {
		return ds.MaintainerConfig{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn == nil {
		return ds.MaintainerConfig{}, false
	}
	return e.dynCfg, true
}

// DynamicCurrent returns the maintained solution of a dynamic graph,
// re-peeling lazily only if the drift trigger has fired since the last
// epoch.
func (r *Registry) DynamicCurrent(name string) (*ds.Solution, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	m := e.dyn
	e.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("serve: graph %q is not dynamic", name)
	}
	// The maintainer has its own lock; a long re-peel must not hold the
	// entry lock against concurrent appends' descriptor updates.
	return m.Current()
}

// DynamicStats aggregates every dynamic graph's maintainer counters
// for /metrics.
func (r *Registry) DynamicStats() (graphs int, agg ds.MaintainerStats) {
	r.mu.RLock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	for _, e := range entries {
		e.mu.Lock()
		m := e.dyn
		e.mu.Unlock()
		if m == nil {
			continue
		}
		s := m.Stats()
		graphs++
		agg.Updates += s.Updates
		agg.Inserts += s.Inserts
		agg.Deletes += s.Deletes
		agg.Expired += s.Expired
		agg.Epochs += s.Epochs
		agg.DriftTriggers += s.DriftTriggers
		agg.LiveEdges += s.LiveEdges
		agg.WindowEdges += s.WindowEdges
	}
	return graphs, agg
}

// Snapshot returns the frozen graph for name at its current version,
// building (and memoizing) it on first use after a registration or
// append. Concurrent snapshots of the same version share one build.
func (r *Registry) Snapshot(name string) (*Snapshot, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.buildErr != nil {
		return nil, e.buildErr
	}
	if e.snap != nil {
		return e.snap, nil
	}
	snap := &Snapshot{Info: e.info}
	if e.dyn != nil {
		// A dynamic graph's snapshot is its live edge set — what a
		// from-scratch solve at this version would see.
		b := ds.NewBuilder(e.info.Nodes)
		for _, ed := range e.dyn.Edges() {
			if err := b.AddEdge(ed.U, ed.V); err != nil {
				e.buildErr = fmt.Errorf("serve: building graph %q: %w", name, err)
				return nil, e.buildErr
			}
		}
		g, err := b.Freeze()
		if err != nil {
			e.buildErr = fmt.Errorf("serve: building graph %q: %w", name, err)
			return nil, e.buildErr
		}
		snap.Graph = g
		e.snap = snap
		return snap, nil
	}
	if e.info.Directed {
		b := ds.NewDirectedBuilder(e.info.Nodes)
		for _, ed := range e.edges {
			if err := b.AddEdge(ed.U, ed.V); err != nil {
				e.buildErr = fmt.Errorf("serve: building graph %q: %w", name, err)
				return nil, e.buildErr
			}
		}
		g, err := b.Freeze()
		if err != nil {
			e.buildErr = fmt.Errorf("serve: building graph %q: %w", name, err)
			return nil, e.buildErr
		}
		snap.Directed = g
	} else {
		b := ds.NewBuilder(e.info.Nodes)
		for _, ed := range e.edges {
			var err error
			if e.info.Weighted {
				err = b.AddWeightedEdge(ed.U, ed.V, ed.W)
			} else {
				err = b.AddEdge(ed.U, ed.V)
			}
			if err != nil {
				e.buildErr = fmt.Errorf("serve: building graph %q: %w", name, err)
				return nil, e.buildErr
			}
		}
		g, err := b.Freeze()
		if err != nil {
			e.buildErr = fmt.Errorf("serve: building graph %q: %w", name, err)
			return nil, e.buildErr
		}
		snap.Graph = g
	}
	e.snap = snap
	return snap, nil
}

// Info returns the descriptor of one graph.
func (r *Registry) Info(name string) (GraphInfo, error) {
	e, err := r.entry(name)
	if err != nil {
		return GraphInfo{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.info, nil
}

// List returns every registered graph's descriptor, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	infos := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		infos = append(infos, e.info)
		e.mu.Unlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Delete removes a graph; running solves keep their snapshots.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; !ok {
		return fmt.Errorf("serve: graph %q is not registered", name)
	}
	delete(r.graphs, name)
	return nil
}

// Len reports the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}

func (r *Registry) entry(name string) (*graphEntry, error) {
	r.mu.RLock()
	e := r.graphs[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("serve: graph %q is not registered", name)
	}
	return e, nil
}

// checkNodes rejects a declared node count that is negative or beyond
// the int32 id space.
func checkNodes(nodes int) error {
	if nodes < 0 || nodes > math.MaxInt32 {
		return fmt.Errorf("serve: nodes %d out of range [0, %d]", nodes, math.MaxInt32)
	}
	return nil
}

// checkEdges validates ids, weights, and self loops up front so errors
// carry an edge index instead of surfacing later from the builder.
func checkEdges(edges []Edge, weighted bool) error {
	for i, e := range edges {
		if e.U < 0 || e.V < 0 {
			return fmt.Errorf("serve: edge %d (%d,%d): node ids must be >= 0", i, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("serve: edge %d: self loop at node %d", i, e.U)
		}
		if weighted && (!(e.W > 0) || math.IsInf(e.W, 0)) {
			return fmt.Errorf("serve: edge %d (%d,%d): weight must be a finite value > 0, got %v", i, e.U, e.V, e.W)
		}
	}
	return nil
}

func maxNode(edges []Edge) int32 {
	var n int32 = -1
	for _, e := range edges {
		if e.U > n {
			n = e.U
		}
		if e.V > n {
			n = e.V
		}
	}
	return n
}

// fingerprint hashes the registered content — shape flags, node count,
// and the exact edge sequence — into a short hex id. FNV-1a over the
// fixed-width encoding: stable across processes and platforms.
func fingerprint(info GraphInfo, edges []Edge) string {
	h := fnv.New64a()
	var buf [8]byte
	flags := byte(0)
	if info.Directed {
		flags |= 1
	}
	if info.Weighted {
		flags |= 2
	}
	h.Write([]byte{flags})
	binary.LittleEndian.PutUint64(buf[:], uint64(info.Nodes))
	h.Write(buf[:])
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
		if info.Weighted {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.W))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ParseEdgeList reads a SNAP-style edge list into registry edges, each
// line through edgeio.ParseEdgeLine, the grammar the file streams read:
// "u v" or "u v w", '#'/'%' comments, blank lines and self loops
// skipped. Node ids must be dense non-negative integers, and a weight
// (read only when weighted) must be finite and > 0. Errors carry the
// 1-based line number.
func ParseEdgeList(r io.Reader, weighted bool) ([]Edge, error) {
	var edges []Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		e, w, skip, err := edgeio.ParseEdgeLine(sc.Bytes(), weighted)
		if err != nil {
			return nil, fmt.Errorf("serve: line %d: %w", line, err)
		}
		if !skip {
			edges = append(edges, Edge{U: e.U, V: e.V, W: w})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading edge list: %w", err)
	}
	return edges, nil
}

// ReadEdgeListFile reads a graph file into registry edges, sniffing
// the format from the magic bytes: binary columnar files decode
// directly, anything else parses as a text edge list. Both routes skip
// self loops and yield the same edges for the same graph, so a text
// file and its binary conversion register with identical fingerprints.
func ReadEdgeListFile(path string, weighted bool) ([]Edge, error) {
	isBin, err := edgeio.DetectBinary(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening %s: %w", path, err)
	}
	if !isBin {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("serve: opening %s: %w", path, err)
		}
		defer f.Close()
		return ParseEdgeList(f, weighted)
	}
	src, err := edgeio.OpenBinarySource(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer src.Close()
	edges := make([]Edge, 0, src.NumEdges())
	sh := src.BlockShards(1, weighted)[0]
	defer sh.Close()
	lo, hi := sh.Blocks()
	for b := lo; b < hi; b++ {
		blk, weights, err := sh.Block(b)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		for j, e := range blk {
			if e.U == e.V {
				continue // self loop: ignored by the density model
			}
			w := 1.0
			if weights != nil {
				w = weights[j]
			}
			edges = append(edges, Edge{U: e.U, V: e.V, W: w})
		}
	}
	return edges, nil
}
