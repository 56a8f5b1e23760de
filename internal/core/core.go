package core

import (
	"context"

	"densestream/internal/par"
)

// Opts configures the execution of the peeling engines.
type Opts struct {
	// Workers is the number of workers used for the sharded candidate
	// scans and degree-decrement loops; <= 0 means
	// runtime.GOMAXPROCS(0). Every worker count produces bit-identical
	// results: the work decomposition is fixed by the graph size, and
	// per-chunk results merge in chunk order (see internal/par).
	Workers int

	// Ctx, when non-nil, bounds the run: cancellation or a deadline
	// aborts the peeling loop within one pass, returning a PartialError
	// that wraps the context's error and carries the trace so far.
	Ctx context.Context

	// Progress, when non-nil, is invoked at the start of each pass with
	// the preceding pass's trace entry (the first call sees the initial
	// state). Returning false stops the run with a PartialError
	// wrapping ErrStopped. The hook runs on the driver goroutine —
	// keep it cheap.
	Progress func(PassStat) bool

	// hooks are package-internal observation points on the layout
	// machinery (push/pull choice, the weighted engine's CSR
	// compaction); only the in-package tests set them.
	hooks peelHooks
}

// pool acquires a worker pool for one solve; the engines hand it back
// with Release when the solve ends, so back-to-back solves reuse one
// parked crew instead of spawning a new one each.
func (o Opts) pool() *par.Pool { return par.Acquire(o.Workers) }
