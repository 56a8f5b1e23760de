package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run from
// the benchmark's side of the call. Spans of one op share Op; a root
// span has Parent -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder started
	End    int64  `json:"endNs"`
}

// recorder keeps the traced run's spans in memory; dump writes them out
// when the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op allocates the id shared by the spans of one op.
func (r *recorder) op() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add records one finished span and returns its id.
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	iv := append([]span(nil), kids...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, k := range iv {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// opSummary is what the trace says about one op.
type opSummary struct {
	root     string        // name of the op's root span
	selfSum  time.Duration // Σ self time over the op's spans
	coverage float64       // share of the root covered by its children
}

// summarize computes self times — a span's duration minus the part its
// children cover — and returns each op's summary plus the total self
// time per span name.
func (r *recorder) summarize() (map[int]opSummary, map[string]time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	ops := make(map[int]opSummary)
	byName := make(map[string]time.Duration)
	for _, s := range r.spans {
		cov := covered(s, kids[s.ID])
		self := time.Duration(s.End - s.Start - cov)
		byName[s.Name] += self
		o := ops[s.Op]
		o.selfSum += self
		if s.Parent < 0 {
			o.root = s.Name
			if d := s.End - s.Start; d > 0 {
				o.coverage = float64(cov) / float64(d)
			}
		}
		ops[s.Op] = o
	}
	return ops, byName
}

// dump writes every span plus the per-name self times to path.
func (r *recorder) dump(path string, prov provenance, selfByName map[string]time.Duration) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	selfMS := make(map[string]float64, len(selfByName))
	for k, v := range selfByName {
		selfMS[k] = ms(v)
	}
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Provenance provenance         `json:"provenance"`
		SelfMS     map[string]float64 `json:"selfMs"`
		Spans      []span             `json:"spans"`
	}{prov, selfMS, r.spans})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
