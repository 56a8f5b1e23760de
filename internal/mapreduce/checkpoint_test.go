package mapreduce

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"densestream/internal/core"
	"densestream/internal/edgeio"
	"densestream/internal/gen"
)

// Checkpoint/restart: a driver killed after round k must resume from
// its manifest and produce a result bit-identical to an uninterrupted
// run — including when the cluster shape changed in between.

// crashCfg returns a config that checkpoints every round into dir and
// crashes after the given round.
func crashCfg(base Config, dir string, after int) Config {
	c := base
	c.CheckpointEvery = 1
	c.CheckpointDir = dir
	c.Failures = &FailurePlan{CrashAfterRound: after}
	return c
}

// resumeCfg returns the matching config that resumes from dir and runs
// to completion.
func resumeCfg(base Config, dir string) Config {
	c := base
	c.CheckpointEvery = 1
	c.CheckpointDir = dir
	return c
}

func checkpointGone(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint manifest still present after successful completion (stat: %v)", err)
	}
}

func TestCheckpointResumeUndirected(t *testing.T) {
	g, err := gen.ChungLu(400, 2500, 2.2, 43)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Mappers: 4, Reducers: 4}
	want, err := Undirected(g, 0.5, base, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Passes < 3 {
		t.Fatalf("test graph peels in %d passes, need >= 3", want.Passes)
	}

	ckdir := t.TempDir()
	_, err = Undirected(g, 0.5, crashCfg(base, ckdir, 2), core.Opts{})
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crashing run returned %v, want ErrSimulatedCrash", err)
	}
	if _, err := os.Stat(filepath.Join(ckdir, manifestName)); err != nil {
		t.Fatalf("no manifest after crash: %v", err)
	}

	got, err := Undirected(g, 0.5, resumeCfg(base, ckdir), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.ResumedFromRound != 2 {
		t.Fatalf("resumed from round %d, want 2", got.Faults.ResumedFromRound)
	}
	if got.Faults.CheckpointsWritten == 0 || got.Faults.CheckpointBytes == 0 {
		t.Fatalf("resumed run wrote no checkpoints: %+v", got.Faults)
	}
	if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
		t.Fatal("resumed run differs from uninterrupted run")
	}
	checkpointGone(t, ckdir)
}

// TestCheckpointResumeMachinesChange kills a 2-machine run and resumes
// it on 4 machines with different worker counts — the autoscaling path.
// The work decomposition is a function of the data alone, so the result
// is still bit-identical.
func TestCheckpointResumeMachinesChange(t *testing.T) {
	g, err := gen.ChungLu(400, 2500, 2.2, 47)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Undirected(g, 0.5, Config{Mappers: 4, Reducers: 4}, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}

	ckdir := t.TempDir()
	spill := t.TempDir()
	small := Config{Mappers: 2, Reducers: 2, Machines: 2, SpillBytes: 1, SpillDir: spill}
	_, err = Undirected(g, 0.5, crashCfg(small, ckdir, 2), core.Opts{})
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crashing run returned %v, want ErrSimulatedCrash", err)
	}

	big := Config{Mappers: 8, Reducers: 8, Machines: 4}
	got, err := Undirected(g, 0.5, resumeCfg(big, ckdir), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.ResumedFromRound != 2 {
		t.Fatalf("resumed from round %d, want 2", got.Faults.ResumedFromRound)
	}
	if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
		t.Fatal("resumed run on a resized cluster differs from uninterrupted run")
	}
	checkpointGone(t, ckdir)
}

func TestCheckpointResumeAtLeastK(t *testing.T) {
	g, err := gen.ChungLu(300, 1800, 2.2, 53)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Mappers: 4, Reducers: 4}
	want, err := AtLeastK(g, 30, 0.5, base, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Passes < 3 {
		t.Fatalf("test graph peels in %d passes, need >= 3", want.Passes)
	}

	ckdir := t.TempDir()
	_, err = AtLeastK(g, 30, 0.5, crashCfg(base, ckdir, 2), core.Opts{})
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crashing run returned %v, want ErrSimulatedCrash", err)
	}
	got, err := AtLeastK(g, 30, 0.5, resumeCfg(base, ckdir), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.ResumedFromRound != 2 {
		t.Fatalf("resumed from round %d, want 2", got.Faults.ResumedFromRound)
	}
	if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
		t.Fatal("resumed AtLeastK run differs from uninterrupted run")
	}
	checkpointGone(t, ckdir)
}

func TestCheckpointResumeDirected(t *testing.T) {
	g, err := gen.ChungLuDirected(300, 1800, 2.2, 59)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Mappers: 4, Reducers: 4}
	want, err := Directed(g, 1, 0.5, base, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Passes < 3 {
		t.Fatalf("test graph peels in %d passes, need >= 3", want.Passes)
	}

	ckdir := t.TempDir()
	_, err = Directed(g, 1, 0.5, crashCfg(base, ckdir, 2), core.Opts{})
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crashing run returned %v, want ErrSimulatedCrash", err)
	}
	got, err := Directed(g, 1, 0.5, resumeCfg(Config{Mappers: 2, Reducers: 8, Machines: 3}, ckdir), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.ResumedFromRound != 2 {
		t.Fatalf("resumed from round %d, want 2", got.Faults.ResumedFromRound)
	}
	if got.Density != want.Density || got.Passes != want.Passes ||
		!reflect.DeepEqual(got.S, want.S) || !reflect.DeepEqual(got.T, want.T) {
		t.Fatal("resumed directed run differs from uninterrupted run")
	}
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("resumed run reports %d rounds, want %d", len(got.Rounds), len(want.Rounds))
	}
	checkpointGone(t, ckdir)
}

// TestCheckpointEveryN checks sparse checkpointing: with CheckpointEvery
// = 2 a crash after round 3 resumes from round 2, replaying round 3.
func TestCheckpointEveryN(t *testing.T) {
	g, err := gen.ChungLu(400, 2500, 2.2, 61)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Mappers: 4, Reducers: 4}
	want, err := Undirected(g, 0.1, base, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Passes < 4 {
		t.Fatalf("test graph peels in %d passes, need >= 4", want.Passes)
	}

	ckdir := t.TempDir()
	cfg := crashCfg(base, ckdir, 3)
	cfg.CheckpointEvery = 2
	_, err = Undirected(g, 0.1, cfg, core.Opts{})
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crashing run returned %v, want ErrSimulatedCrash", err)
	}
	re := resumeCfg(base, ckdir)
	re.CheckpointEvery = 2
	got, err := Undirected(g, 0.1, re, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.ResumedFromRound != 2 {
		t.Fatalf("resumed from round %d, want 2", got.Faults.ResumedFromRound)
	}
	if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
		t.Fatal("resumed run differs from uninterrupted run")
	}
	checkpointGone(t, ckdir)
}

// TestCheckpointJobMismatch: a manifest from a different job (different
// parameters or a different driver) must be rejected, not resumed.
func TestCheckpointJobMismatch(t *testing.T) {
	g, err := gen.ChungLu(400, 2500, 2.2, 43)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Mappers: 4, Reducers: 4}
	ckdir := t.TempDir()
	if _, err := Undirected(g, 0.5, crashCfg(base, ckdir, 2), core.Opts{}); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crashing run returned %v, want ErrSimulatedCrash", err)
	}
	if _, err := Undirected(g, 0.25, resumeCfg(base, ckdir), core.Opts{}); err == nil {
		t.Fatal("resume with a different epsilon accepted the checkpoint")
	}
	if _, err := AtLeastK(g, 30, 0.5, resumeCfg(base, ckdir), core.Opts{}); err == nil {
		t.Fatal("AtLeastK resumed an undirected checkpoint")
	}
	if _, err := Undirected(g, 0.5, resumeCfg(base, ckdir), core.Opts{}); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
}

// TestCheckpointResumeRejectsBadNodeIDs: a partition file rewritten
// with node ids outside the job's node range, but with the record
// count the manifest expects, must fail the resume with an error that
// names the partition instead of panicking in the first round.
func TestCheckpointResumeRejectsBadNodeIDs(t *testing.T) {
	g, err := gen.ChungLu(400, 2500, 2.2, 43)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := gen.ChungLuDirected(300, 1800, 2.2, 59)
	if err != nil {
		t.Fatal(err)
	}
	drivers := []struct {
		name string
		run  func(Config) error
	}{
		{"undirected", func(cfg Config) error { _, err := Undirected(g, 0.5, cfg, core.Opts{}); return err }},
		{"directed", func(cfg Config) error { _, err := Directed(dg, 1, 0.5, cfg, core.Opts{}); return err }},
	}
	base := Config{Mappers: 4, Reducers: 4}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			ckdir := t.TempDir()
			if err := d.run(crashCfg(base, ckdir, 1)); !errors.Is(err, ErrSimulatedCrash) {
				t.Fatalf("crashing run returned %v, want ErrSimulatedCrash", err)
			}
			p := tamperPartition(t, ckdir, edgeio.Edge{U: 1000000, V: 1})
			err := d.run(resumeCfg(base, ckdir))
			if err == nil {
				t.Fatal("resume accepted a partition with out-of-range node ids")
			}
			if want := fmt.Sprintf("partition %d:", p); !strings.Contains(err.Error(), want) {
				t.Fatalf("resume error %q does not name %q", err, want)
			}
		})
	}
}

// tamperPartition overwrites the first non-empty partition file of the
// checkpoint committed in dir with as many copies of e as the manifest
// says the partition holds, and returns the partition's index.
func tamperPartition(t *testing.T, dir string, e edgeio.Edge) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m ckptManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for p, part := range m.Parts {
		if part.File == "" {
			continue
		}
		w, err := edgeio.CreateSpill(filepath.Join(dir, part.File))
		if err != nil {
			t.Fatal(err)
		}
		for range part.Records {
			w.Append(e)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	t.Fatal("checkpoint has no non-empty partition")
	return -1
}
