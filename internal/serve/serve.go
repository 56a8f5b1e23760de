// Package serve implements densestd, the densest-subgraph-as-a-service
// daemon: a named graph registry (load once, solve many), a bounded
// worker-pool job queue running Solve with per-request deadlines, an
// async job API with per-pass progress, an LRU result cache keyed by
// (graph fingerprint, canonicalized Problem), a streaming ingest
// endpoint, and /metrics + /healthz observability.
//
// The wire contract is exactly the public Problem/Solution JSON of the
// densestream package: a request is a Problem plus a registry graph
// name, a response is json.Marshal of the Solution the in-process Solve
// would return on the same graph.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ds "densestream"
)

// Config shapes the daemon; zero fields take defaults.
type Config struct {
	// Workers is the solver pool size — at most this many Solves run
	// concurrently. Default: GOMAXPROCS/2, at least 1.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs;
	// past it, submissions are rejected with 503. Default 64.
	QueueDepth int
	// CacheEntries is the LRU result-cache capacity; negative disables
	// caching. Default 256.
	CacheEntries int
	// SolveWorkers is the WithWorkers value of each solve (sharded
	// per-pass scans). Default 0 = GOMAXPROCS.
	SolveWorkers int
	// DefaultTimeout bounds every request that does not carry its own
	// timeoutMillis; 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxJobs is the async-job retention cap. Default 1024.
	MaxJobs int
	// MapReduce configures the simulated cluster every MapReduce-backend
	// solve runs on — shape, spill budget, failure plan, checkpointing.
	// The zero value is the backend's default cluster. Fault-tolerance
	// events land in the /metrics mapReduce block.
	MapReduce ds.MRConfig
}

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
}

// Server is the daemon state behind the HTTP handlers. Create it with
// New, expose Handler() on an http.Server, and Close it on shutdown.
type Server struct {
	cfg       Config
	registry  *Registry
	cache     *resultCache
	metrics   *metrics
	jobs      *jobTable
	queue     chan *job
	base      context.Context
	stop      context.CancelFunc
	wg        sync.WaitGroup
	inFlight  atomic.Int64
	closed    atomic.Bool
	dynServed atomic.Int64
}

// New starts a server's worker pool and returns it.
func New(cfg Config) *Server {
	cfg.normalize()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		cache:    newResultCache(cfg.CacheEntries),
		metrics:  newMetrics(),
		jobs:     newJobTable(cfg.MaxJobs),
		queue:    make(chan *job, cfg.QueueDepth),
	}
	s.base, s.stop = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry exposes the graph registry (for preloading at startup).
func (s *Server) Registry() *Registry { return s.registry }

// Close rejects new work, cancels every queued and running solve,
// waits for the worker pool to exit, and settles any jobs left queued.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.stop()
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			j.cancelNow()
		default:
			return
		}
	}
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /graphs", s.handleListGraphs)
	mux.HandleFunc("PUT /graphs/{name}", s.handlePutGraph)
	mux.HandleFunc("GET /graphs/{name}", s.handleGetGraph)
	mux.HandleFunc("DELETE /graphs/{name}", s.handleDeleteGraph)
	mux.HandleFunc("POST /graphs/{name}/edges", s.handleAppendEdges)
	mux.HandleFunc("GET /graphs/{name}/current", s.handleGraphCurrent)
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancelJob)
	return mux
}

// SolveRequest is the JSON body of POST /solve and POST /jobs: the
// public Problem wire fields plus the registry reference and transport
// knobs. The in-process Problem inputs (Graph, Directed, streams, Path)
// do not travel — the graph is named instead.
type SolveRequest struct {
	// Graph names a graph registered under PUT /graphs/{name}.
	Graph string `json:"graph"`
	// TimeoutMillis bounds this solve; it overrides the server's
	// default timeout. The deadline rides the solve's context: an
	// expired solve stops within one pass and reports the partial
	// per-pass trace in the error body.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// NoCache bypasses the result cache for this request (neither
	// reading nor populating it).
	NoCache bool `json:"noCache,omitempty"`
	ds.Problem
}

// ErrorBody is the uniform error envelope of every non-2xx response.
type ErrorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// Partial carries the per-pass trace accumulated before an
	// interrupted solve stopped (deadline expiry or cancellation) —
	// the PartialError surfaced over the wire.
	Partial *PartialBody `json:"partial,omitempty"`
}

// PartialBody mirrors densestream.PartialError for the wire.
type PartialBody struct {
	Passes        int                   `json:"passes"`
	Trace         []ds.PassStat         `json:"trace,omitempty"`
	DirectedTrace []ds.DirectedPassStat `json:"directedTrace,omitempty"`
}

func errorBodyFor(status int, err error, partial *ds.PartialError) *ErrorBody {
	body := &ErrorBody{Status: status}
	if err != nil {
		body.Error = err.Error()
	}
	if partial != nil {
		body.Partial = &PartialBody{Passes: partial.Passes, Trace: partial.Trace, DirectedTrace: partial.DirectedTrace}
	}
	return body
}

// httpError is an error with a response status, built before a job ever
// queues (validation, routing, capacity).
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error, partial *ds.PartialError) {
	writeJSON(w, status, errorBodyFor(status, err, partial))
}

// --- graph handlers ---

// graphSpec is the JSON body of PUT /graphs/{name}: either a server-
// local Path to load once, or an inline Edges array ([[u,v],[u,v,w]]).
// A text/plain body is accepted too, parsed as a SNAP-style edge list
// (directed/weighted then come from query parameters).
//
// Dynamic registers the graph as maintainer-backed: appends feed the
// maintainer in place and matching solves serve the maintained
// solution warm (see Registry.RegisterDynamic). Eps/DriftEps/Window/
// Buckets shape the maintainer; with a Window the edge rows' third
// column is a positive integer timestamp. Query parameters of the same
// names (dynamic, eps, driftEps, window, buckets) apply to text
// bodies.
type graphSpec struct {
	Path     string      `json:"path,omitempty"`
	Directed bool        `json:"directed,omitempty"`
	Weighted bool        `json:"weighted,omitempty"`
	Nodes    int         `json:"nodes,omitempty"`
	Edges    [][]float64 `json:"edges,omitempty"`
	Dynamic  bool        `json:"dynamic,omitempty"`
	Eps      float64     `json:"eps,omitempty"`
	DriftEps float64     `json:"driftEps,omitempty"`
	Window   int64       `json:"window,omitempty"`
	Buckets  int         `json:"buckets,omitempty"`
}

func (s *Server) handlePutGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	spec, edges, err := s.decodeGraphBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err, nil)
		return
	}
	var info GraphInfo
	if spec.Dynamic {
		if spec.Directed || spec.Weighted {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: dynamic graphs are undirected and unweighted"), nil)
			return
		}
		info, err = s.registry.RegisterDynamic(name, ds.MaintainerConfig{
			NumNodes: spec.Nodes, Eps: spec.Eps, DriftEps: spec.DriftEps,
			Window: spec.Window, Buckets: spec.Buckets, Workers: s.cfg.SolveWorkers,
		}, edges)
	} else {
		info, err = s.registry.Register(name, spec.Directed, spec.Weighted, edges, spec.Nodes)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err, nil)
		return
	}
	// Re-registration under an existing name replaces the content;
	// drop the replaced graph's cached results eagerly.
	s.cache.dropPrefix(name + "|")
	writeJSON(w, http.StatusOK, info)
}

// decodeGraphBody parses the three accepted registration shapes.
func (s *Server) decodeGraphBody(r *http.Request) (graphSpec, []Edge, error) {
	var spec graphSpec
	q := r.URL.Query()
	spec.Directed = q.Get("directed") == "1" || q.Get("directed") == "true"
	spec.Weighted = q.Get("weighted") == "1" || q.Get("weighted") == "true"
	spec.Dynamic = q.Get("dynamic") == "1" || q.Get("dynamic") == "true"
	for _, p := range []struct {
		name string
		dst  *float64
	}{{"eps", &spec.Eps}, {"driftEps", &spec.DriftEps}} {
		if v := q.Get(p.name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return spec, nil, fmt.Errorf("serve: bad %s parameter %q", p.name, v)
			}
			*p.dst = f
		}
	}
	if v := q.Get("window"); v != "" {
		win, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return spec, nil, fmt.Errorf("serve: bad window parameter %q", v)
		}
		spec.Window = win
	}
	if v := q.Get("buckets"); v != "" {
		b, err := strconv.Atoi(v)
		if err != nil {
			return spec, nil, fmt.Errorf("serve: bad buckets parameter %q", v)
		}
		spec.Buckets = b
	}
	if v := q.Get("nodes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return spec, nil, fmt.Errorf("serve: bad nodes parameter %q", v)
		}
		spec.Nodes = n
	}

	ct := r.Header.Get("Content-Type")
	if ct == "" || strings.HasPrefix(ct, "application/json") {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return spec, nil, fmt.Errorf("serve: decoding graph spec: %w", err)
		}
		switch {
		case spec.Path != "" && spec.Edges != nil:
			return spec, nil, fmt.Errorf("serve: graph spec needs path or edges, not both")
		case spec.Path != "":
			// The format is sniffed from the magic bytes: text edge
			// lists and binary columnar files both register here.
			edges, err := ReadEdgeListFile(spec.Path, spec.Weighted || spec.timestamped())
			return spec, edges, err
		case spec.Edges != nil:
			edges, err := decodeEdgeRows(spec.Edges)
			return spec, edges, err
		default:
			return spec, nil, fmt.Errorf("serve: graph spec needs a path or an edges array")
		}
	}
	// Any other content type: a raw SNAP-style edge list.
	edges, err := ParseEdgeList(r.Body, spec.Weighted || spec.timestamped())
	return spec, edges, err
}

// decodeEdgeRows converts the JSON edge rows of a registration or an
// append: [u,v] or [u,v,w], with integer node ids.
func decodeEdgeRows(rows [][]float64) ([]Edge, error) {
	edges := make([]Edge, len(rows))
	for i, row := range rows {
		if len(row) < 2 || len(row) > 3 {
			return nil, fmt.Errorf("serve: edge %d: need [u,v] or [u,v,w], got %d fields", i, len(row))
		}
		u, v := row[0], row[1]
		if u != float64(int32(u)) || v != float64(int32(v)) {
			return nil, fmt.Errorf("serve: edge %d: node ids must be integers, got [%v,%v]", i, u, v)
		}
		edges[i] = Edge{U: int32(u), V: int32(v), W: 1}
		if len(row) == 3 {
			edges[i].W = row[2]
		}
	}
	return edges, nil
}

// timestamped reports whether the spec's edge rows carry a timestamp
// column that must survive parsing even though the graph itself is
// unweighted: windowed dynamic graphs stamp every edge.
func (sp graphSpec) timestamped() bool { return sp.Dynamic && sp.Window > 0 }

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	info, err := s.registry.Info(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.registry.Delete(name); err != nil {
		writeError(w, http.StatusNotFound, err, nil)
		return
	}
	s.cache.dropPrefix(name + "|")
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// handleAppendEdges is the streaming ingest endpoint: it appends the
// body's edges to a registered graph, bumps its fingerprint, and drops
// the graph's cached results. On a dynamic graph the edges feed the
// maintainer in place (windowed graphs read the third column as the
// timestamp), `?op=delete` removes edges instead, and the cache is left
// alone — the bumped fingerprint already unkeys stale results while the
// maintained solution keeps serving warm. A JSON body holds only
// `edges`; a registration field is a 400 that names it. A body with no
// edges changes nothing: the reply is the graph's current GraphInfo and
// its cached results stay.
func (s *Server) handleAppendEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.registry.Info(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err, nil)
		return
	}
	var edges []Edge
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var body struct {
			Edges [][]float64 `json:"edges"`
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding edges: %w", err), nil)
			return
		}
		if edges, err = decodeEdgeRows(body.Edges); err != nil {
			writeError(w, http.StatusBadRequest, err, nil)
			return
		}
	} else {
		edges, err = ParseEdgeList(r.Body, info.Weighted || (info.Dynamic && info.Window > 0))
		if err != nil {
			writeError(w, http.StatusBadRequest, err, nil)
			return
		}
	}
	del := r.URL.Query().Get("op") == "delete"
	// A delete on a static graph fails below whatever its body holds.
	if len(edges) == 0 && (info.Dynamic || !del) {
		writeJSON(w, http.StatusOK, info)
		return
	}
	var newInfo GraphInfo
	if del {
		newInfo, err = s.registry.DeleteEdges(name, edges)
	} else {
		newInfo, err = s.registry.Append(name, edges)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err, nil)
		return
	}
	if !info.Dynamic {
		s.cache.dropPrefix(name + "|")
	}
	writeJSON(w, http.StatusOK, newInfo)
}

// handleGraphCurrent serves the maintained solution of a dynamic graph
// directly — the cheap read path for ingest-heavy clients. The solve
// (if the drift trigger fired) happens lazily inside the maintainer.
func (s *Server) handleGraphCurrent(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.registry.Info(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err, nil)
		return
	}
	if !info.Dynamic {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: graph %q is not dynamic; /current needs a graph registered with dynamic=true", name), nil)
		return
	}
	sol, err := s.registry.DynamicCurrent(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err, nil)
		return
	}
	s.dynServed.Add(1)
	writeJSON(w, http.StatusOK, sol)
}

// --- solve paths ---

// prepare resolves and validates a request into a ready-to-queue job,
// or into a cache hit: the cached Solution JSON and the fingerprint of
// the graph version it answers. It does not enqueue.
func (s *Server) prepare(req SolveRequest) (j *job, cached []byte, fp string, herr *httpError) {
	if s.closed.Load() {
		return nil, nil, "", &httpError{http.StatusServiceUnavailable, "serve: server is shutting down"}
	}
	if req.Path != "" {
		return nil, nil, "", &httpError{http.StatusBadRequest, "serve: Problem.Path is not served; register the graph under PUT /graphs/{name} and reference it by name"}
	}
	if req.Graph == "" {
		return nil, nil, "", &httpError{http.StatusBadRequest, "serve: request must name a registered graph (\"graph\" field)"}
	}
	// Dynamic fast path: a request matching the maintainer's own
	// configuration is served from the maintained solution — no snapshot
	// build, no queue, no cache, and bit-identical to the cold solve by
	// the maintainer's epoch-parity contract. Any other objective,
	// backend, or eps falls through and solves the live edge set.
	if dc, info, ok := s.registry.DynamicConfig(req.Graph); ok &&
		req.Problem.Objective == ds.ObjectiveUndirected &&
		req.Problem.Backend == ds.BackendPeel &&
		req.Problem.Eps == dc.Eps {
		sol, err := s.registry.DynamicCurrent(req.Graph)
		if err != nil {
			return nil, nil, "", &httpError{http.StatusInternalServerError, err.Error()}
		}
		data, err := json.Marshal(sol)
		if err != nil {
			return nil, nil, "", &httpError{http.StatusInternalServerError, err.Error()}
		}
		s.dynServed.Add(1)
		return nil, data, info.Fingerprint, nil
	}
	snap, err := s.registry.Snapshot(req.Graph)
	if err != nil {
		return nil, nil, "", &httpError{http.StatusNotFound, err.Error()}
	}
	p := req.Problem
	directed := p.Objective == ds.ObjectiveDirected || p.Objective == ds.ObjectiveDirectedSweep
	if directed != snap.Info.Directed {
		kind := "an undirected"
		if directed {
			kind = "a directed"
		}
		return nil, nil, "", &httpError{http.StatusBadRequest,
			fmt.Sprintf("serve: objective %s needs %s graph, but %q is registered with directed=%v", p.Objective, kind, req.Graph, snap.Info.Directed)}
	}
	if directed {
		p.Directed = snap.Directed
	} else {
		p.Graph = snap.Graph
	}
	if err := p.Validate(); err != nil {
		return nil, nil, "", &httpError{http.StatusBadRequest, err.Error()}
	}

	key := cacheKey(req.Graph, snap.Info.Fingerprint, req.Problem)
	if !req.NoCache && key != "" {
		if data, ok := s.cache.get(key); ok {
			return nil, data, snap.Info.Fingerprint, nil
		}
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	ctx, cancel := context.WithCancel(s.base)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.base, timeout)
	}
	j = &job{
		graph:       req.Graph,
		problem:     p,
		wire:        req.Problem,
		fingerprint: snap.Info.Fingerprint,
		key:         key,
		noCache:     req.NoCache,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		state:       JobQueued,
		enqueued:    time.Now(),
	}
	return j, nil, "", nil
}

// enqueue places a prepared job on the bounded queue, registering it in
// the job table first so it is observable by id immediately.
func (s *Server) enqueue(j *job) *httpError {
	s.jobs.add(j)
	select {
	case s.queue <- j:
		// A request that passed prepare before Close can land here after
		// Close drained the queue, which no worker reads any more: settle
		// the job as Close settles the jobs it drains.
		if s.closed.Load() {
			j.cancelNow()
			return &httpError{http.StatusServiceUnavailable, "serve: server is shutting down"}
		}
		return nil
	default:
		j.finish(JobFailed, nil, http.StatusServiceUnavailable, fmt.Errorf("serve: job queue full (%d queued)", s.cfg.QueueDepth), nil)
		return &httpError{http.StatusServiceUnavailable, fmt.Sprintf("serve: job queue full (%d queued)", s.cfg.QueueDepth)}
	}
}

func decodeSolveRequest(r *http.Request) (SolveRequest, error) {
	var req SolveRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("serve: decoding solve request: %w", err)
	}
	return req, nil
}

// handleSolve is the synchronous path: queue, wait, respond with the
// full Solution envelope (bit-identical to the in-process Solve).
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSolveRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err, nil)
		return
	}
	j, cached, _, herr := s.prepare(req)
	if herr != nil {
		writeError(w, herr.status, herr, nil)
		return
	}
	if cached != nil {
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(cached)
		return
	}
	if herr := s.enqueue(j); herr != nil {
		writeError(w, herr.status, herr, nil)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client went away: cancel the solve, then report its terminal
		// state (nobody is likely reading, but keep the envelope).
		j.cancelNow()
		<-j.done
	}
	j.mu.Lock()
	state, data, status, jerr, partial := j.state, j.solutionJSON, j.status, j.err, j.partial
	j.mu.Unlock()
	if state == JobDone {
		w.Header().Set("X-Cache", "miss")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		return
	}
	writeError(w, status, jerr, partial)
}

// handleSubmitJob is the async path: queue and return the job id.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSolveRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err, nil)
		return
	}
	j, cached, fp, herr := s.prepare(req)
	if herr != nil {
		writeError(w, herr.status, herr, nil)
		return
	}
	if cached != nil {
		// A cache hit still materializes a job so the client can GET
		// it by id; it is born done.
		j = &job{
			graph: req.Graph, wire: req.Problem, fingerprint: fp,
			ctx: s.base, cancel: func() {}, done: make(chan struct{}),
			state: JobQueued, enqueued: time.Now(), cacheHit: true,
		}
		s.jobs.add(j)
		j.mu.Lock()
		j.state, j.solutionJSON, j.status = JobDone, cached, http.StatusOK
		j.finished = time.Now()
		j.mu.Unlock()
		close(j.done)
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	if herr := s.enqueue(j); herr != nil {
		writeError(w, herr.status, herr, nil)
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")), nil)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleCancelJob cancels a queued or running job. Canceling a finished
// job is a no-op that reports its terminal state.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")), nil)
		return
	}
	if !j.terminal() {
		j.cancelNow()
		<-j.done
	}
	writeJSON(w, http.StatusOK, j.view())
}

// --- observability ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	perObjective, cancels, deadlines, start := s.metrics.view()
	hits, misses, entries := s.cache.stats()
	view := MetricsView{
		UptimeMS:       time.Since(start).Milliseconds(),
		Graphs:         s.registry.Len(),
		QueueDepth:     len(s.queue),
		QueueCapacity:  s.cfg.QueueDepth,
		SolvesInFlight: s.inFlight.Load(),
		JobsByState:    s.jobs.byState(),
		Cache: CacheView{
			Hits: hits, Misses: misses, Entries: entries, Capacity: s.cfg.CacheEntries,
		},
		Canceled:       cancels,
		DeadlineExpiry: deadlines,
		PerObjective:   perObjective,
	}
	if total := hits + misses; total > 0 {
		view.Cache.HitRate = float64(hits) / float64(total)
	}
	if graphs, agg := s.registry.DynamicStats(); graphs > 0 {
		dv := &DynamicView{
			Graphs: graphs, Epochs: agg.Epochs, DriftTriggers: agg.DriftTriggers,
			Updates: agg.Updates, Inserts: agg.Inserts, Deletes: agg.Deletes,
			Expired: agg.Expired, LiveEdges: agg.LiveEdges, WindowEdges: agg.WindowEdges,
			Served: s.dynServed.Load(),
		}
		if agg.Epochs > 0 {
			dv.TriggerRatio = float64(agg.DriftTriggers) / float64(agg.Epochs)
		}
		view.Dynamic = dv
	}
	if mr, ok := s.metrics.mrView(); ok {
		view.MapReduce = &mr
	}
	writeJSON(w, http.StatusOK, view)
}

// cacheKey canonicalizes the wire Problem — only the parameters the
// objective consumes participate — and scopes it by graph name and
// content fingerprint, so an append or re-registration unkeys every
// stale result.
func cacheKey(name, fingerprint string, p ds.Problem) string {
	q := ds.Problem{Objective: p.Objective, Backend: p.Backend}
	switch p.Objective {
	case ds.ObjectiveUndirected, ds.ObjectiveWeighted:
		q.Eps = p.Eps
	case ds.ObjectiveAtLeastK:
		q.Eps, q.K = p.Eps, p.K
	case ds.ObjectiveDirected:
		q.Eps, q.C = p.Eps, p.C
	case ds.ObjectiveDirectedSweep:
		q.Eps, q.Delta = p.Eps, p.Delta
	}
	data, err := json.Marshal(q)
	if err != nil {
		// Unmarshallable only for out-of-range enums, which Validate
		// rejected already; an unkeyed entry is merely uncacheable.
		return ""
	}
	return name + "|" + fingerprint + "|" + string(data)
}
