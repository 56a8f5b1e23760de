package mapreduce

// Round-level checkpoint/restart. With Config.CheckpointEvery > 0 the
// peeling drivers persist their complete state every N rounds under
// Config.CheckpointDir: the surviving edge dataset goes into one
// edgeio spill file per non-empty partition (the same binary format
// the over-budget partitions already live in), and the driver's O(n)
// coordinator state — removal schedule, best pass/density, and the
// accumulated round trace — goes into a small JSON manifest, committed
// atomically by rename after the partition files are durable.
//
// A driver started with the same CheckpointDir and job parameters
// resumes from the manifest's round instead of from scratch. The
// restored dataset is observationally identical to the one the
// original run held after that round (spilling never changes results),
// so the resumed run replays rounds k+1.. exactly and the final result
// is bit-identical to an uninterrupted run — including when the
// cluster shape changed in between (simulated autoscaling): the work
// decomposition is a function of the data alone, never of Machines.
//
// Layout under CheckpointDir:
//
//	manifest.json            — the newest committed checkpoint
//	round-%06d/part-%03d.ckpt — that round's partition files
//
// Superseded round directories are garbage-collected when a newer
// checkpoint commits; a successfully completed driver clears the
// directory entirely.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"densestream/internal/edgeio"
)

const (
	ckptVersion  = 1
	manifestName = "manifest.json"
)

// ckptPart locates one persisted partition file, relative to the
// checkpoint directory. Empty File means the partition held no records.
type ckptPart struct {
	File    string `json:"file,omitempty"`
	Records int    `json:"records,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// ckptManifest is the JSON document committed per checkpoint: the job's
// identity (kind + parameters + input size, validated on resume), the
// round it captures, and the driver state needed to replay from there.
type ckptManifest struct {
	Version int     `json:"version"`
	Kind    string  `json:"kind"`
	Eps     float64 `json:"eps"`
	K       int     `json:"k,omitempty"`
	C       float64 `json:"c,omitempty"`
	// Nodes and InputEdges fingerprint the input graph.
	Nodes      int   `json:"nodes"`
	InputEdges int64 `json:"inputEdges"`
	// Round is the completed driver pass this checkpoint captures;
	// Machines the cluster shape that wrote it (informational — a
	// resume may run any shape).
	Round    int `json:"round"`
	Machines int `json:"machines"`

	BestPass    int     `json:"bestPass"`
	BestDensity float64 `json:"bestDensity"`
	// RemovedAt is the undirected drivers' removal schedule (0 = still
	// alive); RemovedAtS/T the directed driver's per-side schedules.
	RemovedAt  []int32 `json:"removedAt,omitempty"`
	RemovedAtS []int32 `json:"removedAtS,omitempty"`
	RemovedAtT []int32 `json:"removedAtT,omitempty"`
	// Rounds / DirectedRounds carry the per-round trace accumulated up
	// to the checkpoint, so a resumed run reports the full series.
	Rounds         []RoundStat         `json:"rounds,omitempty"`
	DirectedRounds []DirectedRoundStat `json:"directedRounds,omitempty"`

	Parts []ckptPart `json:"parts"`
}

// checkpointer drives checkpoint writes and resume for one driver run.
// A zero-value checkpointer (CheckpointEvery disabled) is inert.
type checkpointer struct {
	e     *Engine
	dir   string
	every int
	base  ckptManifest
}

// newCheckpointer binds the engine's checkpoint config to one job
// identity. eps/c/k are the driver parameters (zero when unused).
func newCheckpointer(e *Engine, kind string, nodes int, inputEdges int64, eps, c float64, k int) *checkpointer {
	if e.cfg.CheckpointEvery <= 0 {
		return &checkpointer{}
	}
	return &checkpointer{
		e:     e,
		dir:   e.cfg.CheckpointDir,
		every: e.cfg.CheckpointEvery,
		base: ckptManifest{
			Version: ckptVersion, Kind: kind,
			Eps: eps, C: c, K: k,
			Nodes: nodes, InputEdges: inputEdges,
		},
	}
}

func (c *checkpointer) enabled() bool { return c.every > 0 }

// due reports whether the given completed round should be persisted.
func (c *checkpointer) due(round int) bool { return c.enabled() && round%c.every == 0 }

// resume loads the committed manifest, validates it against this job,
// and restores the edge dataset from the checkpoint's partition files.
// It returns (nil, nil, nil) when no checkpoint exists; a manifest from
// a different job is an error rather than a silent restart.
func (c *checkpointer) resume() (*ckptManifest, *Dataset[int32, int32], error) {
	if !c.enabled() {
		return nil, nil, nil
	}
	data, err := os.ReadFile(filepath.Join(c.dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("mapreduce: reading checkpoint manifest: %w", err)
	}
	var m ckptManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("mapreduce: decoding checkpoint manifest in %s: %w", c.dir, err)
	}
	if m.Version != ckptVersion || m.Kind != c.base.Kind ||
		m.Eps != c.base.Eps || m.K != c.base.K || m.C != c.base.C ||
		m.Nodes != c.base.Nodes || m.InputEdges != c.base.InputEdges {
		return nil, nil, fmt.Errorf("mapreduce: checkpoint in %s belongs to a different job (%s round %d over %d nodes)",
			c.dir, m.Kind, m.Round, m.Nodes)
	}
	if m.Round < 1 || len(m.Parts) != NumPartitions {
		return nil, nil, fmt.Errorf("mapreduce: corrupt checkpoint manifest in %s", c.dir)
	}
	d := emptyDataset[int32, int32]()
	d.retain = true
	d.spills = make([]*edgeio.SpillFile, NumPartitions)
	for p, part := range m.Parts {
		if part.File == "" {
			continue
		}
		sp, err := edgeio.OpenSpill(filepath.Join(c.dir, part.File))
		if err != nil {
			return nil, nil, fmt.Errorf("mapreduce: restoring checkpoint partition %d: %w", p, err)
		}
		if sp.Records != part.Records {
			return nil, nil, fmt.Errorf("mapreduce: checkpoint partition %d holds %d records, manifest says %d", p, sp.Records, part.Records)
		}
		// The drivers index their O(n) state by node id, so an id
		// outside the job's node range must fail the resume here,
		// before any round runs.
		if err := checkNodeRange(sp, m.Nodes); err != nil {
			return nil, nil, fmt.Errorf("mapreduce: restoring checkpoint partition %d: %w", p, err)
		}
		d.spills[p] = sp
		d.n += sp.Records
	}
	c.e.setRound(m.Round)
	c.e.markResumed(m.Round)
	return &m, d, nil
}

// checkNodeRange reports the first record of a restored partition
// with an endpoint outside [0, nodes).
func checkNodeRange(sp *edgeio.SpillFile, nodes int) error {
	var bad error
	i := 0
	if err := sp.Each(0, sp.Records, func(e edgeio.Edge) {
		if bad == nil && (e.U < 0 || int(e.U) >= nodes || e.V < 0 || int(e.V) >= nodes) {
			bad = fmt.Errorf("record %d (%d,%d) has a node id outside [0,%d)", i, e.U, e.V, nodes)
		}
		i++
	}); err != nil {
		return err
	}
	return bad
}

// write persists the given completed round when it is due: partition
// files first (written in parallel on the reduce pool), then the
// manifest via atomic rename, then garbage-collection of superseded
// round directories. fill adds the driver-specific state to the
// manifest.
func (c *checkpointer) write(round int, edges *Dataset[int32, int32], fill func(*ckptManifest)) error {
	if !c.due(round) {
		return nil
	}
	roundDir := fmt.Sprintf("round-%06d", round)
	abs := filepath.Join(c.dir, roundDir)
	if err := os.MkdirAll(abs, 0o777); err != nil {
		return fmt.Errorf("mapreduce: creating checkpoint dir: %w", err)
	}
	m := c.base
	m.Round = round
	m.Machines = c.e.machines
	m.Parts = make([]ckptPart, NumPartitions)
	errs := make([]error, NumPartitions)
	var total atomic.Int64
	c.e.reducePool.ForEach(NumPartitions, func(p int) {
		nrec := edges.partLen(p)
		if nrec == 0 {
			return
		}
		name := fmt.Sprintf("part-%03d.ckpt", p)
		w, err := edgeio.CreateSpill(filepath.Join(abs, name))
		if err != nil {
			errs[p] = err
			return
		}
		if edges.spills != nil && edges.spills[p] != nil {
			errs[p] = eachSpilled[int32, int32](edges.spills[p], 0, nrec, func(r Pair[int32, int32]) {
				w.Append(edgeio.Edge{U: r.Key, V: r.Value})
			})
		} else {
			for _, r := range edges.parts[p] {
				w.Append(edgeio.Edge{U: r.Key, V: r.Value})
			}
		}
		sp, err := w.Close()
		if errs[p] == nil {
			errs[p] = err
		}
		if errs[p] != nil || sp == nil {
			return
		}
		m.Parts[p] = ckptPart{File: filepath.Join(roundDir, name), Records: sp.Records, Bytes: sp.Bytes}
		total.Add(sp.Bytes)
	})
	for _, err := range errs {
		if err != nil {
			os.RemoveAll(abs)
			return fmt.Errorf("mapreduce: checkpoint round %d: %w", round, err)
		}
	}
	fill(&m)
	data, err := json.Marshal(&m)
	if err != nil {
		os.RemoveAll(abs)
		return fmt.Errorf("mapreduce: encoding checkpoint manifest: %w", err)
	}
	tmp := filepath.Join(c.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
		os.RemoveAll(abs)
		return fmt.Errorf("mapreduce: writing checkpoint manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, manifestName)); err != nil {
		os.RemoveAll(abs)
		return fmt.Errorf("mapreduce: committing checkpoint manifest: %w", err)
	}
	c.gcRounds(roundDir)
	c.e.faults.checkpoints.Add(1)
	c.e.faults.checkpointBytes.Add(total.Load() + int64(len(data)))
	return nil
}

// gcRounds removes every round directory except keep — once the new
// manifest is committed, older checkpoints are unreachable.
func (c *checkpointer) gcRounds(keep string) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "round-") && e.Name() != keep {
			os.RemoveAll(filepath.Join(c.dir, e.Name()))
		}
	}
}

// clear removes the checkpoint state after a successful completion: a
// finished job has nothing to resume.
func (c *checkpointer) clear() {
	if !c.enabled() {
		return
	}
	os.Remove(filepath.Join(c.dir, manifestName))
	c.gcRounds("")
}
