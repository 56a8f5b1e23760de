package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	ds "densestream"
	"densestream/internal/edgeio"
	"densestream/internal/mapreduce"
)

// Generated inputs of the in-process workloads: Chung–Lu graphs with a
// heavy-tailed degree sequence, peeled at ε = 0.5.
const (
	plExponent = 2.2
	peelEps    = 0.5

	peelNodes, peelEdges = 400_000, 2_000_000
	diskNodes, diskEdges = 200_000, 1_000_000
	mrNodes, mrEdges     = 100_000, 500_000
)

// opTrace is one traced Solve, cut into spans at its progress calls.
type opTrace struct {
	id     int
	init   time.Duration   // Solve entry to the first progress call
	passes []time.Duration // progress intervals; the last ends at return
}

// solveOp runs one Solve and returns its latency. With a recorder it
// installs a progress hook and records the op's spans: "<layer>.solve"
// around the call, "<layer>.init" up to the first progress call, and one
// "<layer>.<pass>" span per interval between progress calls, the last
// ending when Solve returns.
func solveOp(rec *recorder, layer, pass string, p ds.Problem, opts ...ds.Option) (*ds.Solution, time.Duration, *opTrace, error) {
	if rec == nil {
		start := time.Now()
		sol, err := ds.Solve(context.Background(), p, opts...)
		return sol, time.Since(start), nil, err
	}
	var marks []time.Time
	hook := ds.WithProgress(func(ds.PassStat) bool {
		marks = append(marks, time.Now())
		return true
	})
	start := time.Now()
	sol, err := ds.Solve(context.Background(), p, append(opts[:len(opts):len(opts)], hook)...)
	end := time.Now()
	op := rec.op()
	root := rec.add(op, -1, layer+".solve", start, end)
	tr := &opTrace{id: op}
	cuts := append(append([]time.Time{start}, marks...), end)
	for i := 0; i+1 < len(cuts); i++ {
		name, d := layer+"."+pass, cuts[i+1].Sub(cuts[i])
		if i == 0 {
			name, tr.init = layer+".init", d
		} else {
			tr.passes = append(tr.passes, d)
		}
		rec.add(op, root, name, cuts[i], cuts[i+1])
	}
	return sol, end.Sub(start), tr, err
}

// sameAnswer compares the part of two Solutions every exact backend
// computes bit-identically.
func sameAnswer(got, want *ds.Solution) error {
	if got.Density != want.Density || got.Passes != want.Passes || !slices.Equal(got.Set, want.Set) {
		return fmt.Errorf("answer differs from the reference: density %v, %d passes, |S| %d; want %v, %d, %d",
			got.Density, got.Passes, len(got.Set), want.Density, want.Passes, len(want.Set))
	}
	return nil
}

// closedLoop runs op back to back for d — one caller, each op issued
// when the previous one returned — and accounts this process's CPU, heap
// allocation and peak RSS over the window. With a recorder, every other
// op runs traced.
func closedLoop(d time.Duration, rec *recorder, op func(*recorder) (time.Duration, *opTrace, error)) (*window, []*opTrace, error) {
	quiesce()
	if err := resetPeakRSS("self"); err != nil {
		return nil, nil, err
	}
	w := &window{}
	var traces []*opTrace
	cpu0, alloc0 := selfCPU(), heapAllocs()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		r := rec
		if i%2 == 0 {
			r = nil
		}
		lat, tr, err := op(r)
		w.attempted++
		w.lat = append(w.lat, lat)
		if err != nil {
			if w.failed == 0 {
				fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
			}
			w.failed++
		}
		switch {
		case r == nil:
			w.untraced = append(w.untraced, lat)
		case tr != nil:
			w.tracedOps = append(w.tracedOps, tr.id)
			traces = append(traces, tr)
		}
	}
	w.wall = time.Since(start)
	w.cpu = selfCPU() - cpu0
	w.allocB = heapAllocs() - alloc0
	peak, err := peakRSS("self")
	w.rssPeakB = peak
	return w, traces, err
}

// warmup counts the answers checked during set-up, which the next
// measured window reports with its own.
type warmup struct{ attempted, failed int64 }

func (c *warmup) record(err error) {
	c.attempted++
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warm-up op failed:", err)
		c.failed++
	}
}

func (c *warmup) flush(w *window) {
	w.attempted += c.attempted
	w.failed += c.failed
	*c = warmup{}
}

// probe times one call into a layer and records it as its own traced op.
func probe(rec *recorder, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	rec.add(rec.op(), -1, name, start, end)
	return end.Sub(start), err
}

// probeMS is the median over reps probes, in milliseconds.
func probeMS(rec *recorder, name string, reps int, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		d, err := probe(rec, name, f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, ms(d))
	}
	return median(xs), nil
}

// scanShards drives every reader through one full pass, each from its
// own goroutine.
func scanShards(readers []edgeio.Reader) error {
	errs := make([]error, len(readers))
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c, ok := r.(io.Closer); ok {
				defer c.Close()
			}
			if err := r.Reset(); err != nil {
				errs[i] = err
				return
			}
			for {
				if _, err := r.Next(); err != nil {
					if err != io.EOF {
						errs[i] = err
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func scanText(path string, shards int) error {
	src, err := edgeio.OpenFileSource(path)
	if err != nil {
		return err
	}
	return scanShards(src.Shards(shards))
}

func decodeBinary(path string, shards int) error {
	src, err := edgeio.OpenBinarySource(path)
	if err != nil {
		return err
	}
	defer src.Close()
	return scanShards(src.Shards(shards))
}

// freeze builds a graph from an edge list through the public builder.
func freeze(n int, edges [][2]int32) error {
	b := ds.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	_, err := b.Freeze()
	return err
}

func edgeList(g *ds.UndirectedGraph) [][2]int32 {
	out := make([][2]int32, 0, g.NumEdges())
	g.Edges(func(u, v int32, _ float64) bool {
		out = append(out, [2]int32{u, v})
		return true
	})
	return out
}

func writeText(path string, g *ds.UndirectedGraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := ds.WriteUndirected(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func medianMS(ds []time.Duration) float64 { return median(durationsMS(ds)) }

// --- peel-mem ---

// peelMem peels a resident graph in memory. Set-up loads it from a text
// edge list; each op is Algorithm 1 on BackendPeel, checked against
// BackendStream on the same graph.
type peelMem struct {
	text  string
	g     *ds.UndirectedGraph
	ref   *ds.Solution
	last  *ds.Solution
	loads []time.Duration
	warm  warmup
}

func preparePeelMem(e *env) (instance, error) {
	g, err := ds.GenerateChungLu(peelNodes, peelEdges, plExponent, e.seed)
	if err != nil {
		return nil, err
	}
	w := &peelMem{text: filepath.Join(e.dir, "peel.txt")}
	return w, writeText(w.text, g)
}

func (w *peelMem) setup() (time.Duration, error) {
	w.g = nil
	quiesce()
	start := time.Now()
	g, _, err := ds.ReadUndirectedFile(w.text, false, 0)
	if err != nil {
		return 0, err
	}
	load := time.Since(start)
	w.loads = append(w.loads, load)
	w.g = g
	if w.ref == nil {
		// Loading relabels nodes, so the reference solves the loaded graph.
		if w.ref, err = ds.Solve(context.Background(), ds.Problem{Graph: g, Backend: ds.BackendStream, Eps: peelEps}); err != nil {
			return 0, fmt.Errorf("reference solve: %w", err)
		}
	}
	lat, _, err := w.op(nil)
	w.warm.record(err)
	return load + lat, nil
}

func (w *peelMem) op(rec *recorder) (time.Duration, *opTrace, error) {
	sol, lat, tr, err := solveOp(rec, "core", "pass", ds.Problem{Graph: w.g, Eps: peelEps})
	if err == nil {
		w.last = sol
		err = sameAnswer(sol, w.ref)
	}
	return lat, tr, err
}

func (w *peelMem) measure(d time.Duration, rec *recorder) (*window, error) {
	win, traces, err := closedLoop(d, rec, w.op)
	if err != nil {
		return nil, err
	}
	w.warm.flush(win)
	if rec == nil {
		return win, nil
	}
	if len(traces) == 0 || w.last == nil {
		return nil, errors.New("peel-mem: no traced op completed")
	}
	var init, pass1, rest []time.Duration
	for _, tr := range traces {
		if len(tr.passes) == 0 {
			continue
		}
		init, pass1 = append(init, tr.init), append(pass1, tr.passes[0])
		var r time.Duration
		for _, p := range tr.passes[1:] {
			r += p
		}
		rest = append(rest, r)
	}
	var scanned int64
	for _, p := range w.last.Trace {
		scanned += p.Edges
	}
	k := runtime.GOMAXPROCS(0)
	scan, err := probeMS(rec, "edgeio.text_scan", 3, func() error { return scanText(w.text, k) })
	if err != nil {
		return nil, err
	}
	edges := edgeList(w.g)
	frz, err := probeMS(rec, "graph.freeze", 3, func() error { return freeze(w.g.NumNodes(), edges) })
	if err != nil {
		return nil, err
	}
	load := medianMS(w.loads)
	win.layers = map[string]metric{
		"core.passes":         {float64(w.last.Passes), "count"},
		"core.edges_scanned":  {float64(scanned), "count"},
		"core.init_ms":        {medianMS(init), "ms"},
		"core.pass1_ms":       {medianMS(pass1), "ms"},
		"core.pass_rest_ms":   {medianMS(rest), "ms"},
		"edgeio.text_scan_ms": {scan, "ms"},
		"graph.freeze_ms":     {frz, "ms"},
		"graph.load_text_ms":  {load, "ms"},
		"graph.intern_ms":     {load - scan - frz, "ms"},
	}
	return win, nil
}

func (w *peelMem) close() {}

// --- stream-disk ---

// streamDisk re-scans a BSG1 file once per pass. Set-up writes the file;
// each op is Algorithm 1 on BackendStream, checked against BackendPeel.
type streamDisk struct {
	path string
	g    *ds.UndirectedGraph // the generated input; stays resident
	ref  *ds.Solution
	last *ds.Solution
	warm warmup
}

func prepareStreamDisk(e *env) (instance, error) {
	g, err := ds.GenerateChungLu(diskNodes, diskEdges, plExponent, e.seed+1)
	if err != nil {
		return nil, err
	}
	ref, err := ds.Solve(context.Background(), ds.Problem{Graph: g, Eps: peelEps})
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	return &streamDisk{path: filepath.Join(e.dir, "disk.bsg1"), g: g, ref: ref}, nil
}

func (w *streamDisk) setup() (time.Duration, error) {
	start := time.Now()
	if err := ds.WriteUndirectedBinary(w.path, w.g); err != nil {
		return 0, err
	}
	write := time.Since(start)
	lat, _, err := w.op(nil)
	w.warm.record(err)
	return write + lat, nil
}

func (w *streamDisk) op(rec *recorder) (time.Duration, *opTrace, error) {
	sol, lat, tr, err := solveOp(rec, "stream", "pass", ds.Problem{Path: w.path, Backend: ds.BackendStream, Eps: peelEps})
	if err == nil {
		w.last = sol
		err = sameAnswer(sol, w.ref)
	}
	return lat, tr, err
}

func (w *streamDisk) measure(d time.Duration, rec *recorder) (*window, error) {
	win, traces, err := closedLoop(d, rec, w.op)
	if err != nil {
		return nil, err
	}
	w.warm.flush(win)
	if rec == nil {
		return win, nil
	}
	if len(traces) == 0 || w.last == nil {
		return nil, errors.New("stream-disk: no traced op completed")
	}
	var passes []time.Duration
	for _, tr := range traces {
		passes = append(passes, tr.passes...)
	}
	k := runtime.GOMAXPROCS(0)
	decode, err := probeMS(rec, "edgeio.decode", 5, func() error { return decodeBinary(w.path, k) })
	if err != nil {
		return nil, err
	}
	decode1, err := probeMS(rec, "edgeio.decode_1shard", 5, func() error { return decodeBinary(w.path, 1) })
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(w.path)
	if err != nil {
		return nil, err
	}
	pass := medianMS(passes)
	win.layers = map[string]metric{
		"stream.passes":           {float64(w.last.Passes), "count"},
		"stream.scan_mb_per_op":   {float64(w.last.Stats.BytesScanned) / 1e6, "MB"},
		"stream.pass_ms":          {pass, "ms"},
		"stream.count_ms":         {pass - decode, "ms"},
		"edgeio.decode_ms":        {decode, "ms"},
		"edgeio.decode_1shard_ms": {decode1, "ms"},
		"edgeio.bytes_per_edge":   {float64(fi.Size()) / float64(w.g.NumEdges()), "B/edge"},
		"par.decode_speedup":      {decode1 / decode, "x"},
	}
	return win, nil
}

func (w *streamDisk) close() {}

// --- mapreduce ---

// mapReduce runs the peeling rounds on the simulated cluster with a
// spill budget below the edge dataset and a checkpoint every round.
// Set-up loads the graph from BSG1; each op is Algorithm 1 on
// BackendMapReduce, checked against BackendPeel.
type mapReduce struct {
	path  string
	cfg   ds.MRConfig
	g     *ds.UndirectedGraph
	ref   *ds.Solution
	last  *ds.Solution
	loads []time.Duration
	warm  warmup
}

func prepareMapReduce(e *env) (instance, error) {
	g, err := ds.GenerateChungLu(mrNodes, mrEdges, plExponent, e.seed+2)
	if err != nil {
		return nil, err
	}
	w := &mapReduce{path: filepath.Join(e.dir, "mr.bsg1"), cfg: ds.DefaultOptions().MapReduce}
	// Edge records are int32 pairs; a quarter of the dataset stays
	// resident and the rest spills.
	w.cfg.SpillBytes = g.NumEdges() * 8 / 4
	w.cfg.SpillDir = filepath.Join(e.dir, "spill")
	w.cfg.CheckpointEvery = 1
	w.cfg.CheckpointDir = filepath.Join(e.dir, "checkpoint")
	for _, dir := range []string{w.cfg.SpillDir, w.cfg.CheckpointDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return w, ds.WriteUndirectedBinary(w.path, g)
}

func (w *mapReduce) setup() (time.Duration, error) {
	w.g = nil
	quiesce()
	start := time.Now()
	g, _, err := ds.ReadUndirectedFile(w.path, false, 0)
	if err != nil {
		return 0, err
	}
	load := time.Since(start)
	w.loads = append(w.loads, load)
	w.g = g
	if w.ref == nil {
		if w.ref, err = ds.Solve(context.Background(), ds.Problem{Graph: g, Eps: peelEps}); err != nil {
			return 0, fmt.Errorf("reference solve: %w", err)
		}
	}
	lat, _, err := w.op(nil)
	w.warm.record(err)
	return load + lat, nil
}

func (w *mapReduce) solve(rec *recorder, cfg ds.MRConfig) (time.Duration, *opTrace, error) {
	sol, lat, tr, err := solveOp(rec, "mapreduce", "round",
		ds.Problem{Graph: w.g, Backend: ds.BackendMapReduce, Eps: peelEps}, ds.WithMapReduceConfig(cfg))
	if err == nil {
		w.last = sol
		err = sameAnswer(sol, w.ref)
	}
	return lat, tr, err
}

func (w *mapReduce) op(rec *recorder) (time.Duration, *opTrace, error) { return w.solve(rec, w.cfg) }

func (w *mapReduce) measure(d time.Duration, rec *recorder) (*window, error) {
	win, traces, err := closedLoop(d, rec, w.op)
	if err != nil {
		return nil, err
	}
	w.warm.flush(win)
	if rec == nil {
		return win, nil
	}
	if len(traces) == 0 || w.last == nil || w.last.MRFaults == nil {
		return nil, errors.New("mapreduce: no traced op completed")
	}
	var rounds []time.Duration
	for _, tr := range traces {
		rounds = append(rounds, tr.passes...)
	}
	var shuffleB, shuffleR int64
	for _, r := range w.last.MRRounds {
		shuffleB += r.ShuffleBytes
		shuffleR += r.Shuffle
	}
	spilled, ckpt := w.last.Stats.BytesSpilled, w.last.MRFaults.CheckpointBytes

	// Spill and checkpoint cost: the same op with both switched off,
	// interleaved with the configured op.
	var with, without []time.Duration
	for i := 0; i < 3; i++ {
		for _, cfg := range []ds.MRConfig{w.cfg, ds.DefaultOptions().MapReduce} {
			lat, _, err := w.solve(nil, cfg)
			win.attempted++
			if err != nil {
				win.failed++
				fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
			}
			if cfg.SpillBytes > 0 {
				with = append(with, lat)
			} else {
				without = append(without, lat)
			}
		}
	}
	var mapMS, reduceMS []float64
	for i := 0; i < 3; i++ {
		var st mapreduce.Stats
		if _, err := probe(rec, "mapreduce.degree_job", func() (err error) {
			st, err = mapreduce.DegreeJobStats(w.g, false)
			return err
		}); err != nil {
			return nil, err
		}
		mapMS, reduceMS = append(mapMS, ms(st.MapWall)), append(reduceMS, ms(st.ReduceWall))
	}
	k := runtime.GOMAXPROCS(0)
	decode, err := probeMS(rec, "edgeio.decode_mr_input", 3, func() error { return decodeBinary(w.path, k) })
	if err != nil {
		return nil, err
	}
	edges := edgeList(w.g)
	frz, err := probeMS(rec, "graph.freeze_mr_input", 3, func() error { return freeze(w.g.NumNodes(), edges) })
	if err != nil {
		return nil, err
	}
	load := medianMS(w.loads)
	win.layers = map[string]metric{
		"mapreduce.rounds":                 {float64(len(w.last.MRRounds)), "count"},
		"mapreduce.shuffle_mb_per_op":      {float64(shuffleB) / 1e6, "MB"},
		"mapreduce.shuffle_records_per_op": {float64(shuffleR), "count"},
		"mapreduce.spill_mb_per_op":        {float64(spilled) / 1e6, "MB"},
		"mapreduce.checkpoint_mb_per_op":   {float64(ckpt) / 1e6, "MB"},
		"mapreduce.round_ms":               {medianMS(rounds), "ms"},
		"mapreduce.degree_map_ms":          {median(mapMS), "ms"},
		"mapreduce.degree_reduce_ms":       {median(reduceMS), "ms"},
		"mapreduce.spill_ckpt_ms":          {medianMS(with) - medianMS(without), "ms"},
		"graph.load_bsg1_ms":               {load, "ms"},
		"graph.intern_bsg1_ms":             {load - decode - frz, "ms"},
	}
	return win, nil
}

func (w *mapReduce) close() {}
