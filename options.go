package densestream

import (
	"runtime"

	"densestream/internal/core"
	"densestream/internal/mapreduce"
)

// PartialError is returned when a Solve is interrupted before it
// finished — the context was canceled, its deadline passed, or a
// WithProgress hook returned false. errors.Is sees the cause
// (context.Canceled, context.DeadlineExceeded, or ErrStopped) and
// errors.As recovers the partial per-pass trace.
type PartialError = core.PartialError

// ErrStopped is the cause a PartialError wraps when a WithProgress hook
// returned false.
var ErrStopped = core.ErrStopped

// Options configures how the algorithms execute across all three
// execution models — in-memory peeling, streaming, and MapReduce. It
// does not change what they compute: every option combination returns
// bit-identical results on the same input (only the wall-clock and
// shuffle-attribution fields of the MapReduce round traces reflect the
// cluster shape), except the sketch shape, which trades accuracy for
// memory by design.
type Options struct {
	// Workers is the number of workers used for the sharded per-pass
	// scans (candidate selection, degree decrements, and — for
	// shardable streams — the edge scan itself). Zero or negative means
	// runtime.GOMAXPROCS(0).
	Workers int

	// MapReduce is the simulated cluster shape used by
	// BackendMapReduce: map/reduce worker slots per machine, the
	// machine count, and whether degree jobs run per-shard combiners.
	// Zero fields take their defaults; negative fields are an error
	// (see MRConfig.Normalize).
	MapReduce MRConfig

	// Sketch is the Count-Sketch shape used by BackendStreamSketched.
	// An entirely zero value selects the CLI defaults (5 tables, n/20
	// buckets with a floor of 16, seed 1); anything else is used
	// verbatim and validated by the sketch constructor.
	Sketch SketchConfig

	// Progress, when non-nil, is invoked at the start of every pass
	// with the preceding pass's trace entry (the first call sees the
	// initial state; directed passes are projected onto PassStat).
	// Returning false stops the solve with a *PartialError wrapping
	// ErrStopped. The hook runs on the solving goroutine — keep it
	// cheap.
	Progress func(PassStat) bool
}

// DefaultOptions returns the options used when none are given: all
// available cores and a small single-machine MapReduce cluster.
func DefaultOptions() Options {
	return Options{
		Workers:   runtime.GOMAXPROCS(0),
		MapReduce: mapreduce.DefaultConfig,
	}
}

// Option is a functional option for Solve.
type Option func(*Options)

// WithWorkers sets the worker count for the sharded per-pass scans;
// n <= 0 selects runtime.GOMAXPROCS(0). Results are identical for
// every worker count — this is purely a throughput knob.
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// WithMapReduceConfig sets the simulated cluster shape for
// BackendMapReduce. Results are identical for every shape — the knobs
// move wall-clock and the per-machine shuffle attribution only.
func WithMapReduceConfig(cfg MRConfig) Option {
	return func(o *Options) { o.MapReduce = cfg }
}

// WithSketch sets the Count-Sketch shape for BackendStreamSketched:
// Tables independent hash tables of Buckets counters each, so counter
// memory is Tables×Buckets words instead of one word per node.
func WithSketch(cfg SketchConfig) Option {
	return func(o *Options) { o.Sketch = cfg }
}

// WithProgress installs a per-pass hook: fn observes each pass's trace
// entry as the solve proceeds and can stop the run by returning false,
// in which case Solve returns a *PartialError wrapping ErrStopped. Use
// it for progress reporting, adaptive time budgets, or early stopping
// once the density is good enough.
func WithProgress(fn func(PassStat) bool) Option {
	return func(o *Options) { o.Progress = fn }
}

func applyOptions(opts []Option) Options {
	o := DefaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
