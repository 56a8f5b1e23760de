package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	ds "densestream"
)

// JobState is the lifecycle of one queued solve.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker slot.
	JobQueued JobState = "queued"
	// JobRunning: a pool worker is executing the solve.
	JobRunning JobState = "running"
	// JobDone: finished; SolutionJSON is available.
	JobDone JobState = "done"
	// JobFailed: the solve errored or its deadline expired.
	JobFailed JobState = "failed"
	// JobCanceled: canceled via DELETE /jobs/{id} or client disconnect.
	JobCanceled JobState = "canceled"
)

// job is one solve riding the bounded worker-pool queue — shared by the
// synchronous /solve path (which waits on done) and the async /jobs
// path (which polls it by id).
type job struct {
	id          string
	graph       string
	problem     ds.Problem // input fields injected from the registry snapshot
	wire        ds.Problem // the wire-visible request (no in-process inputs)
	fingerprint string     // of the graph version the job answers
	key         string     // cache key; "" when caching is bypassed
	noCache     bool

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu           sync.Mutex
	state        JobState
	progress     []ds.PassStat
	solutionJSON []byte
	cacheHit     bool
	err          error
	status       int // HTTP status for failures
	partial      *ds.PartialError
	enqueued     time.Time
	started      time.Time
	finished     time.Time
}

// setRunning transitions Queued → Running; it reports false when the
// job was finished first (canceled while queued), in which case the
// worker must not run it.
func (j *job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state and releases waiters. It is
// idempotent: a cancellation racing the worker's own completion settles
// on whichever finish ran first.
func (j *job) finish(state JobState, solJSON []byte, status int, err error, partial *ds.PartialError) {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.solutionJSON = solJSON
	j.status = status
	j.err = err
	j.partial = partial
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the deadline timer
	close(j.done)
}

// cancelNow cancels the job's context and, when it has not started yet,
// finishes it immediately so cancellation of a queued job never waits
// for a worker slot.
func (j *job) cancelNow() {
	j.cancel()
	j.mu.Lock()
	queued := j.state == JobQueued
	j.mu.Unlock()
	if queued {
		j.finish(JobCanceled, nil, http.StatusServiceUnavailable, context.Canceled, nil)
	}
}

func (j *job) appendProgress(stat ds.PassStat) {
	j.mu.Lock()
	j.progress = append(j.progress, stat)
	j.mu.Unlock()
}

// JobView is the JSON shape of GET /jobs/{id}.
type JobView struct {
	ID          string     `json:"id"`
	State       JobState   `json:"state"`
	Graph       string     `json:"graph"`
	Fingerprint string     `json:"fingerprint"`
	Problem     ds.Problem `json:"problem"`
	CacheHit    bool       `json:"cacheHit,omitempty"`
	// Progress is the per-pass trace observed so far via the progress
	// hook (also populated on canceled/expired jobs).
	Progress []ds.PassStat `json:"progress,omitempty"`
	// Solution is the full Solution envelope once State is "done".
	Solution json.RawMessage `json:"solution,omitempty"`
	Error    *ErrorBody      `json:"error,omitempty"`
	WaitMS   int64           `json:"waitMs,omitempty"`
	RunMS    int64           `json:"runMs,omitempty"`
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		State:       j.state,
		Graph:       j.graph,
		Fingerprint: j.fingerprint,
		Problem:     j.wire,
		CacheHit:    j.cacheHit,
		Progress:    append([]ds.PassStat(nil), j.progress...),
	}
	if !j.started.IsZero() {
		v.WaitMS = j.started.Sub(j.enqueued).Milliseconds()
		if !j.finished.IsZero() {
			v.RunMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	switch j.state {
	case JobDone:
		v.Solution = json.RawMessage(j.solutionJSON)
	case JobFailed, JobCanceled:
		v.Error = errorBodyFor(j.status, j.err, j.partial)
	}
	return v
}

// worker drains the queue until the server shuts down.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.base.Done():
			return
		}
	}
}

// run executes one queued job through Solve, riding the job's context
// deadline and recording per-pass progress.
func (s *Server) run(j *job) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	if err := j.ctx.Err(); err != nil {
		// Expired (or canceled) while still queued: no trace to report.
		s.failFromContext(j, err, nil)
		return
	}
	if !j.setRunning() {
		return // finished while queued (canceled)
	}
	opts := []ds.Option{
		ds.WithWorkers(s.cfg.SolveWorkers),
		ds.WithProgress(func(stat ds.PassStat) bool { j.appendProgress(stat); return true }),
	}
	if j.problem.Backend == ds.BackendMapReduce {
		opts = append(opts, ds.WithMapReduceConfig(s.cfg.MapReduce))
	}
	start := time.Now()
	sol, err := ds.Solve(j.ctx, j.problem, opts...)
	s.metrics.observe(j.problem.Objective.String(), time.Since(start), err != nil)

	if err != nil {
		var pe *ds.PartialError
		if errors.As(err, &pe) {
			s.failFromContext(j, err, pe)
			return
		}
		// Algorithm-level rejection (e.g. K exceeding the node count):
		// the request was malformed in a way Validate cannot see.
		j.finish(JobFailed, nil, http.StatusBadRequest, err, nil)
		return
	}
	if j.problem.Backend == ds.BackendMapReduce {
		s.metrics.observeMR(sol.MRFaults)
	}
	data, err := json.Marshal(sol)
	if err != nil {
		j.finish(JobFailed, nil, http.StatusInternalServerError, fmt.Errorf("serve: marshalling solution: %w", err), nil)
		return
	}
	if !j.noCache && j.key != "" {
		s.cache.put(j.key, data)
	}
	j.finish(JobDone, data, http.StatusOK, nil, nil)
}

// failFromContext maps an interrupted solve onto the job's terminal
// state: deadline expiry is a failure the client sees as 408 (with the
// partial trace when the solve got far enough to have one);
// cancellation marks the job canceled.
func (s *Server) failFromContext(j *job, err error, partial *ds.PartialError) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.observeDeadline()
		j.finish(JobFailed, nil, http.StatusRequestTimeout, err, partial)
	case errors.Is(err, context.Canceled):
		s.metrics.observeCancel()
		j.finish(JobCanceled, nil, http.StatusServiceUnavailable, err, partial)
	default:
		j.finish(JobFailed, nil, http.StatusInternalServerError, err, partial)
	}
}

const maxJobs = 1024

// jobTable retains jobs for the async API, evicting the oldest finished
// jobs past the retention cap, maxJobs.
type jobTable struct {
	mu    sync.Mutex
	seq   int64
	jobs  map[string]*job
	order []string // insertion order, for eviction
}

func newJobTable() *jobTable {
	return &jobTable{jobs: make(map[string]*job)}
}

// add registers a new job under a fresh id.
func (t *jobTable) add(j *job) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	j.id = fmt.Sprintf("j%d", t.seq)
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	// Evict finished jobs beyond the cap, oldest first; running and
	// queued jobs are never evicted.
	if len(t.jobs) > maxJobs {
		kept := t.order[:0]
		excess := len(t.jobs) - maxJobs
		for _, id := range t.order {
			old := t.jobs[id]
			if excess > 0 && old != nil && old.terminal() {
				delete(t.jobs, id)
				excess--
				continue
			}
			kept = append(kept, id)
		}
		t.order = kept
	}
	return j.id
}

func (t *jobTable) get(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

// byState counts retained jobs per state (for /metrics).
func (t *jobTable) byState() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int)
	for _, j := range t.jobs {
		j.mu.Lock()
		out[string(j.state)]++
		j.mu.Unlock()
	}
	return out
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
}
