// Package mapreduce is a single-process MapReduce runtime with true
// worker parallelism, used to realize §5.2 of the paper: the peeling
// algorithms depend only on computing degrees, computing the density,
// and removing marked nodes — all of which are a handful of map and
// reduce rounds.
//
// The engine is deliberately faithful to the model rather than optimized
// around it: mappers see disjoint input shards, all communication goes
// through a hash-partitioned shuffle, and reducers see each key with all
// of its values. Per-round wall-clock and shuffle volumes — total and
// per simulated machine — are reported so the Figure 6.7 experiment
// (time per pass) can be reproduced in shape across cluster sizes.
//
// # Architecture
//
// The runtime is layered on internal/par, inheriting its determinism
// contract: the work decomposition is a function of the data only,
// never of the cluster shape.
//
//   - Engine: a simulated cluster (Config: map/reduce worker slots per
//     machine × Machines). Workers are par pools; they claim work
//     dynamically but never influence where results land.
//   - Dataset: a record collection resident on the cluster, split into
//     NumPartitions partition files. Job outputs are Datasets, so a
//     multi-round driver keeps its edge partition resident between
//     rounds instead of re-sharding a flat slice every pass.
//   - Round: one driver pass; jobs run inside a round, which aggregates
//     their Stats (the per-pass series of Figure 6.7).
//   - RunJob: one job. The map phase reads NumMapShards fixed shards of
//     the input stream into per-shard partition buckets (optionally
//     folding a combiner per shard); the shuffle concatenates buckets
//     in shard order; reducers fold each partition's keys in sorted
//     order into the output partition. Every merge point is ordered by
//     shard or partition index, so any (Mappers, Reducers, Machines)
//     shape yields bit-identical output.
package mapreduce

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"densestream/internal/edgeio"
	"densestream/internal/par"
)

// Pair is one key-value record flowing through a job.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Mapper transforms one input record into any number of intermediate
// records via emit.
type Mapper[K1 comparable, V1 any, K2 comparable, V2 any] func(key K1, value V1, emit func(K2, V2))

// Reducer folds all values of one intermediate key into any number of
// output records via emit.
type Reducer[K comparable, V any, V2 any] func(key K, values []V, emit func(K, V2))

// Combiner folds the values of one key within a single map shard before
// the shuffle — Hadoop's classic optimization for aggregations. It must
// be semantically idempotent with the reducer: reduce(combine
// partitions) == reduce(everything).
type Combiner[K comparable, V any] func(key K, values []V) V

// Cluster geometry. Both constants are fixed independent of Config so
// the work decomposition — map input shards and shuffle partitions —
// depends on the data alone. Workers claim shards and partitions
// dynamically, but every merge happens in shard or partition order,
// which is what makes all cluster shapes bit-identical.
const (
	// NumMapShards is the number of fixed input splits per job.
	NumMapShards = 64
	// NumPartitions is the number of shuffle partitions (and therefore
	// the number of partition files per Dataset).
	NumPartitions = 64
)

// Config controls the simulated cluster shape. It never changes what a
// job computes — only how many workers execute it and how the shuffle
// volume is attributed to machines.
type Config struct {
	Mappers  int  // map worker slots per machine
	Reducers int  // reduce worker slots per machine
	Machines int  // simulated machines; 0 means 1
	Combine  bool // per-shard combiners in the drivers' degree jobs

	// SpillBytes is the resident-memory budget per edge Dataset: when a
	// dataset's int32-pair partitions exceed it, the largest partitions
	// are spilled to per-partition binary files (read back through the
	// edgeio layer) until the resident remainder fits. 0 keeps every
	// dataset resident; spilling never changes results, only where the
	// records live.
	SpillBytes int64
	// SpillDir is the directory under which the engine creates its
	// spill directory; "" means the OS temp dir. The engine removes its
	// spill directory on Cleanup.
	SpillDir string

	// Failures is the deterministic fault-injection schedule: explicit
	// and seeded losses of map tasks, reduce partitions, and whole
	// simulated machines, optional speculative recovery, and the
	// simulated-crash hook. nil injects nothing. Every recovery path
	// preserves bit-identical results; the events are counted in
	// MRResult.Faults.
	Failures *FailurePlan

	// CheckpointEvery enables round-level checkpoint/restart: every
	// CheckpointEvery-th driver round, the surviving edge dataset and
	// the driver's O(n) state are persisted under CheckpointDir
	// (through the edgeio spill-file machinery plus a JSON manifest).
	// A driver started with the same CheckpointDir and parameters
	// resumes from the manifest's round — after a crash or a Machines
	// change (simulated autoscaling) — and produces a bit-identical
	// result. 0 disables checkpointing.
	CheckpointEvery int
	// CheckpointDir is where checkpoints live; required when
	// CheckpointEvery > 0. The directory outlives the run (that is the
	// point); a successfully completed driver clears it.
	CheckpointDir string
}

// DefaultConfig is a small single-machine cluster suitable for tests
// and laptops.
var DefaultConfig = Config{Mappers: 8, Reducers: 8, Machines: 1}

// Normalize validates the cluster shape and fills defaults: a zero
// field means "unset" and takes its DefaultConfig value (one machine),
// while a negative field is an explicit configuration error and is
// reported instead of being silently replaced. Every entry point
// normalizes through NewEngine, so a zero Config is always usable.
func (c Config) Normalize() (Config, error) {
	if c.Mappers < 0 || c.Reducers < 0 || c.Machines < 0 {
		return Config{}, fmt.Errorf("mapreduce: negative cluster shape %+v", c)
	}
	if c.SpillBytes < 0 {
		return Config{}, fmt.Errorf("mapreduce: negative spill budget %d", c.SpillBytes)
	}
	if c.Mappers == 0 {
		c.Mappers = DefaultConfig.Mappers
	}
	if c.Reducers == 0 {
		c.Reducers = DefaultConfig.Reducers
	}
	if c.Machines == 0 {
		c.Machines = 1
	}
	if err := c.Failures.Validate(c.Machines); err != nil {
		return Config{}, err
	}
	if c.CheckpointEvery < 0 {
		return Config{}, fmt.Errorf("mapreduce: negative CheckpointEvery %d", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return Config{}, fmt.Errorf("mapreduce: CheckpointEvery %d needs a CheckpointDir", c.CheckpointEvery)
	}
	return c, nil
}

// MachineStats is the shuffle volume received by one simulated machine
// (the partitions it owns) during a job or round.
type MachineStats struct {
	ShuffleRecords int64 `json:"shuffleRecords"`
	ShuffleBytes   int64 `json:"shuffleBytes"`
}

// Stats reports the work one job (or, aggregated by Round, one driver
// pass) performed.
type Stats struct {
	InputRecords   int64
	ShuffleRecords int64 // records crossing the map→reduce boundary
	ShuffleBytes   int64 // the same in bytes of in-memory record size
	OutputRecords  int64
	MapWall        time.Duration
	ReduceWall     time.Duration
	PerMachine     []MachineStats // length = the engine's machine count
}

func (s *Stats) merge(o Stats) {
	s.InputRecords += o.InputRecords
	s.ShuffleRecords += o.ShuffleRecords
	s.ShuffleBytes += o.ShuffleBytes
	s.OutputRecords += o.OutputRecords
	s.MapWall += o.MapWall
	s.ReduceWall += o.ReduceWall
	for i := range o.PerMachine {
		s.PerMachine[i].ShuffleRecords += o.PerMachine[i].ShuffleRecords
		s.PerMachine[i].ShuffleBytes += o.PerMachine[i].ShuffleBytes
	}
}

// Engine is a simulated MapReduce cluster: Machines machines with
// Mappers map slots and Reducers reduce slots each. An Engine carries
// no per-job state and is reused across all rounds of a driver run.
type Engine struct {
	cfg        Config
	machines   int
	mapPool    *par.Pool
	reducePool *par.Pool

	// Spill state: the directory is created lazily on first spill and
	// removed by Cleanup; spilled counts total bytes written across the
	// engine's lifetime.
	spillMu  sync.Mutex
	spillDir string
	spillSeq int
	spilled  atomic.Int64

	// faults counts the recovery events of the failure model (see
	// FaultStats); resumedFrom is the checkpoint round a driver resumed
	// this engine from, 0 for a fresh run.
	faults      faultCounters
	resumedFrom int

	// round numbers the driver passes (StartRound increments it) so
	// FailurePlan faults can target a specific round; a resumed driver
	// rewinds it to the checkpoint round via setRound.
	round int
}

// NewEngine normalizes the config (see Config.Normalize) and brings up
// the cluster's worker pools.
func NewEngine(cfg Config) (*Engine, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:        cfg,
		machines:   cfg.Machines,
		mapPool:    par.New(cfg.Mappers * cfg.Machines),
		reducePool: par.New(cfg.Reducers * cfg.Machines),
	}, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SpilledBytes reports the total bytes the engine has written to spill
// files since it was created.
func (e *Engine) SpilledBytes() int64 { return e.spilled.Load() }

// spillPath allocates the next spill file path, creating the engine's
// spill directory on first use.
func (e *Engine) spillPath() (string, error) {
	e.spillMu.Lock()
	defer e.spillMu.Unlock()
	if e.spillDir == "" {
		dir, err := os.MkdirTemp(e.cfg.SpillDir, "densestream-mr-*")
		if err != nil {
			return "", fmt.Errorf("mapreduce: creating spill dir: %w", err)
		}
		e.spillDir = dir
	}
	e.spillSeq++
	return filepath.Join(e.spillDir, fmt.Sprintf("part-%06d.spill", e.spillSeq)), nil
}

// FaultStats snapshots the engine's failure-model counters: task
// re-executions, speculative race outcomes, machine losses, and
// checkpoint volume, plus the round the driver resumed from.
func (e *Engine) FaultStats() FaultStats {
	fs := e.faults.snapshot()
	fs.ResumedFromRound = e.resumedFrom
	return fs
}

// setRound rewinds the round counter to a checkpoint's round so the
// next StartRound continues the original numbering; the drivers call it
// (with markResumed) when restoring from a manifest.
func (e *Engine) setRound(r int) { e.round = r }

// markResumed records the checkpoint round the driver resumed from.
func (e *Engine) markResumed(r int) { e.resumedFrom = r }

// simulateCrash aborts the driver with ErrSimulatedCrash when the
// FailurePlan scheduled a crash after the given round. The drivers call
// it after the round's checkpoint is durable, so the crash models a
// coordinator dying between rounds.
func (e *Engine) simulateCrash(round int) error {
	if p := e.cfg.Failures; p != nil && p.CrashAfterRound == round && round > 0 {
		return fmt.Errorf("%w after round %d", ErrSimulatedCrash, round)
	}
	return nil
}

// Cleanup removes the engine's spill directory and every spill file in
// it. The drivers defer it; standalone Engine users that enable
// SpillBytes should too. Safe to call multiple times.
func (e *Engine) Cleanup() error {
	e.spillMu.Lock()
	dir := e.spillDir
	e.spillDir = ""
	e.spillMu.Unlock()
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}

// Machines returns the normalized machine count.
func (e *Engine) Machines() int { return e.machines }

// machineOf maps a shuffle partition to its owning machine: partitions
// are dealt to machines in contiguous blocks.
func (e *Engine) machineOf(p int) int { return p * e.machines / NumPartitions }

// shardBounds returns the half-open record range of map shard s over an
// n-record input stream. Shard boundaries depend only on n.
func shardBounds(s, n int) (lo, hi int) {
	return s * n / NumMapShards, (s + 1) * n / NumMapShards
}

// partIndex maps a key to its shuffle partition.
func partIndex[K comparable](partition func(K) uint64, k K) int {
	return int(partition(k) % NumPartitions)
}

// firstSpilledShard resolves the FirstSpilledShard fault target: the map
// shard whose input range covers the first record of the first spilled
// partition of in, if any. total is the job's full input length
// (dataset plus extra records). Any other shard is targetable directly
// by index through Fault.Target.
func firstSpilledShard[K comparable, V any](in *Dataset[K, V], total int) (int, bool) {
	if in == nil || in.spills == nil || total == 0 {
		return 0, false
	}
	off := 0
	for p := range in.parts {
		if in.spills[p] != nil && in.spills[p].Records > 0 {
			for s := 0; s < NumMapShards; s++ {
				if lo, hi := shardBounds(s, total); lo <= off && off < hi {
					return s, true
				}
			}
			return 0, false
		}
		off += in.partLen(p)
	}
	return 0, false
}

// Dataset is a record collection resident on the simulated cluster,
// split into NumPartitions partition files. A job's output Dataset
// holds, in partition file p, the sorted-key fold of reduce partition p;
// feeding it into the next job reads the partition files in order as
// one logical stream, so no re-sharding or flattening happens between
// jobs or rounds. The layout is deterministic because every producer
// writes it in shard/partition order.
//
// When the owning engine has a spill budget (Config.SpillBytes > 0),
// partitions of int32-pair datasets past the budget live in binary
// spill files instead of memory (see maybeSpill); every read path —
// Each, Records, and the map phase's range scans — reads them back
// through the edgeio spill reader transparently, so a spilled dataset
// is observationally identical to a resident one.
type Dataset[K comparable, V any] struct {
	parts  [][]Pair[K, V]
	spills []*edgeio.SpillFile // spills[p] != nil ⇒ partition p is on disk
	n      int
	// retain marks a dataset whose spill files are owned elsewhere — a
	// restored checkpoint's partition files must survive Discard so the
	// manifest stays valid until the next checkpoint supersedes it.
	retain bool
}

func emptyDataset[K comparable, V any]() *Dataset[K, V] {
	return &Dataset[K, V]{parts: make([][]Pair[K, V], NumPartitions)}
}

// Len returns the number of records, resident or spilled.
func (d *Dataset[K, V]) Len() int {
	if d == nil {
		return 0
	}
	return d.n
}

// SpilledBytes reports how many of the dataset's bytes currently live
// in spill files.
func (d *Dataset[K, V]) SpilledBytes() int64 {
	if d == nil {
		return 0
	}
	var total int64
	for _, sp := range d.spills {
		if sp != nil {
			total += sp.Bytes
		}
	}
	return total
}

// Discard removes the dataset's spill files from disk. The peeling
// drivers call it as soon as a round's output replaces its input, so
// disk usage stays proportional to the live datasets rather than the
// whole run history. Resident partitions are left to the GC. A
// checkpoint-restored dataset only detaches: its partition files belong
// to the checkpoint and are garbage-collected when the next checkpoint
// commits. Safe to call multiple times; the dataset must not be read
// afterwards.
func (d *Dataset[K, V]) Discard() {
	if d == nil {
		return
	}
	for p, sp := range d.spills {
		if sp != nil {
			if !d.retain {
				sp.Remove()
			}
			d.spills[p] = nil
		}
	}
}

// partLen returns the record count of partition p wherever it lives.
func (d *Dataset[K, V]) partLen(p int) int {
	if d.spills != nil && d.spills[p] != nil {
		return d.spills[p].Records
	}
	return len(d.parts[p])
}

// eachSpilled streams records [lo, hi) of one spill file through fn.
// Only Dataset[int32, int32] ever spills (maybeSpill checks), so fn's
// dynamic type is always func(Pair[int32, int32]); asserting it once
// per partition keeps the per-record loop free of interface boxing.
func eachSpilled[K comparable, V any](sp *edgeio.SpillFile, lo, hi int, fn func(Pair[K, V])) error {
	emit, ok := any(fn).(func(Pair[int32, int32]))
	if !ok {
		return fmt.Errorf("mapreduce: spill file attached to a non-edge dataset")
	}
	return sp.Each(lo, hi, func(e edgeio.Edge) { emit(Pair[int32, int32]{Key: e.U, Value: e.V}) })
}

// Each calls fn for every record in partition order, reading spilled
// partitions back from disk.
func (d *Dataset[K, V]) Each(fn func(K, V)) error {
	if d == nil {
		return nil
	}
	for p, part := range d.parts {
		if d.spills != nil && d.spills[p] != nil {
			sp := d.spills[p]
			if err := eachSpilled(sp, 0, sp.Records, func(r Pair[K, V]) { fn(r.Key, r.Value) }); err != nil {
				return err
			}
			continue
		}
		for _, r := range part {
			fn(r.Key, r.Value)
		}
	}
	return nil
}

// Records flattens the dataset into one slice in partition order —
// the simulated analogue of downloading all partition files.
func (d *Dataset[K, V]) Records() ([]Pair[K, V], error) {
	if d == nil {
		return nil, nil
	}
	out := make([]Pair[K, V], 0, d.n)
	err := d.Each(func(k K, v V) { out = append(out, Pair[K, V]{Key: k, Value: v}) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanRange calls fn for records [lo, hi) of the logical input stream:
// the partition files in order (spilled ones read back via a
// record-indexed seek, so a shard never reads a partition from the
// start just to reach its range), followed by the extra records.
func (d *Dataset[K, V]) scanRange(extra []Pair[K, V], lo, hi int, fn func(Pair[K, V])) error {
	off := 0
	for p := range d.parts {
		if hi <= off {
			return nil
		}
		plen := d.partLen(p)
		if end := off + plen; lo < end {
			s, t := max(lo-off, 0), min(hi-off, plen)
			if d.spills != nil && d.spills[p] != nil {
				if err := eachSpilled(d.spills[p], s, t, fn); err != nil {
					return err
				}
			} else {
				for _, r := range d.parts[p][s:t] {
					fn(r)
				}
			}
		}
		off += plen
	}
	if hi <= off {
		return nil
	}
	s, t := max(lo-off, 0), min(hi-off, len(extra))
	for _, r := range extra[s:t] {
		fn(r)
	}
	return nil
}

// maybeSpill enforces the engine's resident-memory budget on an
// int32-pair dataset: if its resident partitions exceed SpillBytes,
// the largest ones (ties broken by partition index — a function of the
// data only, never of scheduling) are written to per-partition spill
// files until the remainder fits. Datasets of other types stay
// resident. Spilling is invisible to every reader, so results are
// bit-identical with any budget.
func maybeSpill[K comparable, V any](e *Engine, d *Dataset[K, V]) error {
	if e == nil || e.cfg.SpillBytes <= 0 || d == nil {
		return nil
	}
	ed, ok := any(d).(*Dataset[int32, int32])
	if !ok {
		return nil
	}
	recSize := int64(unsafe.Sizeof(Pair[int32, int32]{}))
	var resident int64
	for p := range ed.parts {
		if ed.spills == nil || ed.spills[p] == nil {
			resident += int64(len(ed.parts[p])) * recSize
		}
	}
	if resident <= e.cfg.SpillBytes {
		return nil
	}
	type cand struct {
		p     int
		bytes int64
	}
	cands := make([]cand, 0, NumPartitions)
	for p := range ed.parts {
		if (ed.spills == nil || ed.spills[p] == nil) && len(ed.parts[p]) > 0 {
			cands = append(cands, cand{p: p, bytes: int64(len(ed.parts[p])) * recSize})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if a.bytes != b.bytes {
			return cmp.Compare(b.bytes, a.bytes)
		}
		return cmp.Compare(a.p, b.p)
	})
	var chosen []cand
	for _, c := range cands {
		if resident <= e.cfg.SpillBytes {
			break
		}
		chosen = append(chosen, c)
		resident -= c.bytes
	}
	if len(chosen) == 0 {
		return nil
	}
	// Allocate paths under the engine lock, then write the partition
	// files in parallel on the reduce pool.
	paths := make([]string, len(chosen))
	for i := range chosen {
		path, err := e.spillPath()
		if err != nil {
			return err
		}
		paths[i] = path
	}
	files := make([]*edgeio.SpillFile, len(chosen))
	errs := make([]error, len(chosen))
	e.reducePool.ForEach(len(chosen), func(i int) {
		w, err := edgeio.CreateSpill(paths[i])
		if err != nil {
			errs[i] = err
			return
		}
		for _, r := range ed.parts[chosen[i].p] {
			w.Append(edgeio.Edge{U: r.Key, V: r.Value})
		}
		files[i], errs[i] = w.Close()
	})
	for _, err := range errs {
		if err != nil {
			for _, sp := range files {
				if sp != nil {
					sp.Remove()
				}
			}
			return fmt.Errorf("mapreduce: %w", err)
		}
	}
	if ed.spills == nil {
		ed.spills = make([]*edgeio.SpillFile, NumPartitions)
	}
	var spilled int64
	for i, c := range chosen {
		ed.spills[c.p] = files[i]
		ed.parts[c.p] = nil
		spilled += files[i].Bytes
	}
	e.spilled.Add(spilled)
	return nil
}

// Shard distributes a flat record slice onto the cluster, hash-
// partitioned by the given partition function: the once-per-run upload
// that makes the dataset resident. The decomposition into NumMapShards
// fixed splits and the shard-order merge per partition make the layout
// identical for every cluster shape.
func Shard[K comparable, V any](e *Engine, recs []Pair[K, V], partition func(K) uint64) *Dataset[K, V] {
	n := len(recs)
	buckets := make([][][]Pair[K, V], NumMapShards)
	e.mapPool.ForEach(NumMapShards, func(s int) {
		lo, hi := shardBounds(s, n)
		if lo >= hi {
			return
		}
		local := make([][]Pair[K, V], NumPartitions)
		for _, r := range recs[lo:hi] {
			p := partIndex(partition, r.Key)
			local[p] = append(local[p], r)
		}
		buckets[s] = local
	})
	d := emptyDataset[K, V]()
	e.reducePool.ForEach(NumPartitions, func(p int) {
		var part []Pair[K, V]
		for s := 0; s < NumMapShards; s++ {
			if buckets[s] != nil {
				part = append(part, buckets[s][p]...)
			}
		}
		d.parts[p] = part
	})
	d.n = n
	return d
}

// Round groups the jobs of one driver pass and aggregates their Stats;
// drivers read the totals into their per-pass trace. Its index numbers
// the pass (1-based) and each RunJob takes a job index within it, so a
// FailurePlan can address (round, job, task) deterministically.
type Round struct {
	e     *Engine
	index int
	jobs  int
	start time.Time
	stats Stats
}

// StartRound opens a new round on the engine, advancing the engine's
// round counter.
func (e *Engine) StartRound() *Round {
	e.round++
	return &Round{
		e:     e,
		index: e.round,
		start: time.Now(),
		stats: Stats{PerMachine: make([]MachineStats, e.machines)},
	}
}

// Wall returns the wall-clock time since the round started.
func (r *Round) Wall() time.Duration { return time.Since(r.start) }

// Stats returns the aggregate statistics of the round's jobs so far.
func (r *Round) Stats() Stats {
	s := r.stats
	s.PerMachine = slices.Clone(s.PerMachine)
	return s
}

func (r *Round) add(s Stats) { r.stats.merge(s) }

// RunJob executes one MapReduce job inside a round, over the resident
// dataset followed by the extra records (the drivers' markers enter
// each round this way, so the O(E) edge dataset is never copied).
// partition maps an intermediate key to a shuffle partition; it must be
// deterministic. combineFn may be nil (no combiner).
//
// Determinism: the map phase processes NumMapShards fixed splits of the
// input stream, each filling private per-partition buckets (a combiner
// ships its folded records in sorted key order); the shuffle
// concatenates buckets in shard order, so a reducer sees each key's
// values in input order; reducers fold their partition's keys in sorted
// order into the output partition file. No merge point depends on which
// worker ran what, so any cluster shape produces bit-identical output.
func RunJob[K1 comparable, V1 any, K2 cmp.Ordered, V2 any, V3 any](
	rd *Round,
	in *Dataset[K1, V1],
	extra []Pair[K1, V1],
	mapFn Mapper[K1, V1, K2, V2],
	combineFn Combiner[K2, V2],
	reduceFn Reducer[K2, V2, V3],
	partition func(K2) uint64,
) (*Dataset[K2, V3], Stats, error) {
	if rd == nil {
		return nil, Stats{}, fmt.Errorf("mapreduce: RunJob needs a round")
	}
	if mapFn == nil || reduceFn == nil || partition == nil {
		return nil, Stats{}, fmt.Errorf("mapreduce: nil map, reduce, or partition function")
	}
	e := rd.e
	if in == nil {
		in = emptyDataset[K1, V1]()
	}
	n := in.Len() + len(extra)
	job := rd.jobs
	rd.jobs++
	plan := e.cfg.Failures
	stats := Stats{
		InputRecords: int64(n),
		PerMachine:   make([]MachineStats, e.machines),
	}

	// Map phase: workers claim fixed input shards; each shard owns a
	// private set of per-partition output buckets, so no locking is
	// needed until the shuffle. computeShard is a pure function of its
	// input range, which is what makes every failure-recovery re-run
	// below (and a real cluster's task retry) safe.
	mapStart := time.Now()
	type mapOut struct {
		buckets [][]Pair[K2, V2]
		err     error
	}
	computeShard := func(s int) mapOut {
		lo, hi := shardBounds(s, n)
		if lo >= hi {
			return mapOut{}
		}
		local := make([][]Pair[K2, V2], NumPartitions)
		if combineFn == nil {
			emit := func(k K2, v V2) {
				p := partIndex(partition, k)
				local[p] = append(local[p], Pair[K2, V2]{Key: k, Value: v})
			}
			err := in.scanRange(extra, lo, hi, func(r Pair[K1, V1]) {
				mapFn(r.Key, r.Value, emit)
			})
			return mapOut{buckets: local, err: err}
		}
		// Combine per shard: group this shard's emissions by key, fold
		// each key once, and ship the folded records in sorted key order
		// so the bucket contents stay deterministic.
		groups := make(map[K2][]V2)
		emit := func(k K2, v V2) { groups[k] = append(groups[k], v) }
		if err := in.scanRange(extra, lo, hi, func(r Pair[K1, V1]) {
			mapFn(r.Key, r.Value, emit)
		}); err != nil {
			return mapOut{err: err}
		}
		keys := make([]K2, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			p := partIndex(partition, k)
			local[p] = append(local[p], Pair[K2, V2]{Key: k, Value: combineFn(k, groups[k])})
		}
		return mapOut{buckets: local}
	}
	buckets := make([][][]Pair[K2, V2], NumMapShards)
	mapErrs := make([]error, NumMapShards)
	e.mapPool.ForEach(NumMapShards, func(s int) {
		r := computeShard(s)
		buckets[s], mapErrs[s] = r.buckets, r.err
	})
	// Failure injection, map side: lose the planned map tasks — their
	// buckets are discarded mid-job — and recover each by re-executing
	// it over its durable input split (spill files re-read through the
	// same scan path). Under Speculate the re-execution races the
	// delayed original, first result wins.
	if plan.active(rd.index) {
		if down := plan.machinesDown(rd.index); len(down) > 0 {
			e.faults.machineFailures.Add(int64(len(down)))
		}
		resolve := func() (int, bool) { return firstSpilledShard(in, n) }
		for _, s := range plan.mapTargets(rd.index, job, e.machines, resolve) {
			if lo, hi := shardBounds(s, n); lo >= hi {
				continue // empty split: nothing was lost
			}
			buckets[s], mapErrs[s] = nil, nil
			var r mapOut
			if plan.Speculate {
				r = raceRecover(e, func() mapOut { return computeShard(s) })
			} else {
				r = computeShard(s)
			}
			buckets[s], mapErrs[s] = r.buckets, r.err
			e.faults.mapReruns.Add(1)
		}
	}
	stats.MapWall = time.Since(mapStart)
	for _, err := range mapErrs {
		if err != nil {
			return nil, Stats{}, fmt.Errorf("mapreduce: map phase: %w", err)
		}
	}

	// Shuffle + reduce phase: workers claim shuffle partitions; each
	// partition's shard buckets are concatenated in shard order, grouped
	// by key, and folded in sorted key order into the partition's output
	// file. reducePart is pure in the shard buckets, so a lost reduce
	// task is recovered below by recomputing its partition — the
	// simulated analogue of a reducer re-fetching map outputs.
	reduceStart := time.Now()
	out := emptyDataset[K2, V3]()
	recSize := int64(unsafe.Sizeof(Pair[K2, V2]{}))
	partRecs := make([]int64, NumPartitions)
	type reduceOut struct {
		part []Pair[K2, V3]
		recs int64
	}
	reducePart := func(p int) reduceOut {
		groups := make(map[K2][]V2)
		var local int64
		for s := 0; s < NumMapShards; s++ {
			if buckets[s] == nil {
				continue
			}
			for _, kv := range buckets[s][p] {
				groups[kv.Key] = append(groups[kv.Key], kv.Value)
				local++
			}
		}
		if len(groups) == 0 {
			return reduceOut{recs: local}
		}
		keys := make([]K2, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var outPart []Pair[K2, V3]
		emit := func(k K2, v V3) {
			outPart = append(outPart, Pair[K2, V3]{Key: k, Value: v})
		}
		for _, k := range keys {
			reduceFn(k, groups[k], emit)
		}
		return reduceOut{part: outPart, recs: local}
	}
	e.reducePool.ForEach(NumPartitions, func(p int) {
		r := reducePart(p)
		out.parts[p], partRecs[p] = r.part, r.recs
	})
	// Failure injection, reduce side: lose the planned reduce
	// partitions and recover each by recomputing it from the surviving
	// shard buckets (speculatively under Speculate).
	if plan.active(rd.index) {
		for _, p := range plan.reduceTargets(rd.index, job, e.machineOf) {
			out.parts[p], partRecs[p] = nil, 0
			var r reduceOut
			if plan.Speculate {
				r = raceRecover(e, func() reduceOut { return reducePart(p) })
			} else {
				r = reducePart(p)
			}
			out.parts[p], partRecs[p] = r.part, r.recs
			e.faults.reduceReruns.Add(1)
		}
	}
	stats.ReduceWall = time.Since(reduceStart)
	for p, recs := range partRecs {
		stats.ShuffleRecords += recs
		m := e.machineOf(p)
		stats.PerMachine[m].ShuffleRecords += recs
		stats.PerMachine[m].ShuffleBytes += recs * recSize
	}
	stats.ShuffleBytes = stats.ShuffleRecords * recSize
	for _, part := range out.parts {
		out.n += len(part)
	}
	stats.OutputRecords = int64(out.n)
	rd.add(stats)
	return out, stats, nil
}

// Run executes one MapReduce job over a flat record slice on a fresh
// single-job engine — the convenience entry point for standalone jobs
// and tests. combineFn may be nil (no combiner); a per-shard combiner
// folds each key's values before the shuffle, cutting ShuffleRecords
// for aggregation jobs (like degree counting) from O(records) to
// O(distinct keys per shard). The peeling drivers use
// Engine/Shard/RunJob directly so their edge dataset stays resident
// across rounds.
func Run[K1 comparable, V1 any, K2 cmp.Ordered, V2 any, V3 any](
	cfg Config,
	input []Pair[K1, V1],
	mapFn Mapper[K1, V1, K2, V2],
	combineFn Combiner[K2, V2],
	reduceFn Reducer[K2, V2, V3],
	partition func(K2) uint64,
) ([]Pair[K2, V3], Stats, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	defer e.Cleanup()
	out, stats, err := RunJob(e.StartRound(), nil, input, mapFn, combineFn, reduceFn, partition)
	if err != nil {
		return nil, Stats{}, err
	}
	recs, err := out.Records()
	if err != nil {
		return nil, Stats{}, err
	}
	return recs, stats, nil
}

// PartitionInt32 is the standard partitioner for int32 node-id keys
// (Fibonacci hashing so adjacent ids spread across partitions).
func PartitionInt32(k int32) uint64 {
	return (uint64(uint32(k)) * 0x9e3779b97f4a7c15) >> 13
}
