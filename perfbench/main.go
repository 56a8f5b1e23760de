// Command perfbench is the repository's benchmark. It drives the
// densest-subgraph system through its public entry points — Solve, the
// graph loaders and writers, and the densestd daemon over loopback HTTP —
// on four seeded workloads, checks every answer, and prints one JSON
// result line whose metrics are named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload peel-mem --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that prints the per-layer metrics. --steady runs repeated
// untraced runs and reports how much each metric spreads. README.md
// describes the workloads and which end-to-end metric each per-layer
// metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRuns is how many times each run sets the system up; setup_s is
// the median.
const setupRuns = 3

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env carries what every workload takes from the command line.
type env struct {
	seed     int64
	seconds  time.Duration
	dir      string // scratch directory of this run, inside the checkout
	densestd string // the densestd binary built from this checkout
}

// window is what one measured stretch of a workload produced.
type window struct {
	lat       []time.Duration // every completed op, failed ones included
	attempted int64
	failed    int64
	wall      time.Duration
	cpu       time.Duration // CPU of the process doing the work
	allocB    float64       // Go heap bytes that process allocated
	rssPeakB  float64

	// Traced windows only: the ops that ran traced, the latencies of the
	// interleaved untraced ops, and the workload's per-layer metrics.
	tracedOps []int
	untraced  []time.Duration
	layers    map[string]metric
}

// instance is one workload with its inputs generated.
type instance interface {
	// setup runs the system's load path once, warm-up included, and
	// returns how long that took.
	setup() (time.Duration, error)
	// measure runs the workload for d. Given a recorder, every other op
	// runs traced and the window carries the per-layer metrics.
	measure(d time.Duration, rec *recorder) (*window, error)
	close()
}

// workload names one benchmark workload. prepare generates its inputs
// from the seed; that time is not part of any metric.
type workload struct {
	name    string
	tailPct float64 // the percentile reported as latency_ms_tail
	prepare func(e *env) (instance, error)
}

var workloads = []workload{
	{"peel-mem", 98, preparePeelMem},
	{"stream-disk", 95, prepareStreamDisk},
	{"mapreduce", 90, prepareMapReduce},
	{"serve-mixed", 99, prepareServeMixed},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// provenance records where and how a result was measured.
type provenance struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	GoVersion  string    `json:"goVersion"`
	CPUModel   string    `json:"cpuModel"`
	Commit     string    `json:"commit"`
	Ops        int       `json:"ops"`
	TailPct    float64   `json:"tailPercentile"`
	TailBeyond float64   `json:"samplesBeyondTail"`
	ErrorRatio float64   `json:"errorRatio"`
	SetupS     []float64 `json:"setupSeconds,omitempty"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: peel-mem, stream-disk, mapreduce or serve-mixed")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 30, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		densestd = flag.String("densestd", "", "densestd binary to serve from")
		out      = flag.String("out", ".bench_build", "directory for scratch files and span dumps")
		steady   = flag.Bool("steady", false, "run repeated untraced runs and report each metric's spread")
		runs     = flag.Int("runs", 10, "steady: runs per set and workload")
		only     = flag.String("workloads", "", "steady: comma-separated workloads (default: those in BENCHMARK.json)")
	)
	flag.Parse()

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *steady {
		return runSteady(spec, *runs, *seconds, *only, *densestd, *out)
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", names())
		return 2
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, densestd: *densestd,
		dir: filepath.Join(*out, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)

	prov := provenance{Workload: w.name, Seed: *seed, Seconds: e.seconds.Seconds(), Traced: *trace == 1,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: commit(), TailPct: w.tailPct}
	var res *result
	if *trace == 1 {
		rec := newRecorder()
		res, err = runTraced(e, w, rec, &prov)
		if err == nil {
			_, byName := rec.summarize()
			printJSON("selftime-ms", msMap(byName))
			err = rec.dump(filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed)), prov, byName)
		}
	} else {
		res, err = runPlain(e, w, &prov)
	}
	if err == nil {
		err = spec.check(res.Metrics, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	prov.ErrorRatio = float64(res.Failed) / float64(res.Attempted)
	printJSON("provenance", prov)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed or answered wrong\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runPlain is the untraced run: set up setupRuns times, then measure
// one window and report the end-to-end metrics.
func runPlain(e *env, w *workload, prov *provenance) (*result, error) {
	inst, err := w.prepare(e)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	for i := 0; i < setupRuns; i++ {
		d, err := inst.setup()
		if err != nil {
			return nil, err
		}
		prov.SetupS = append(prov.SetupS, d.Seconds())
	}
	win, err := inst.measure(e.seconds, nil)
	if err != nil {
		return nil, err
	}
	if len(win.lat) == 0 {
		return nil, errors.New("no op completed in the measured window")
	}
	n := float64(len(win.lat))
	lat := durationsMS(win.lat)
	prov.Ops = len(win.lat)
	prov.TailBeyond = n * (1 - w.tailPct/100)
	return &result{
		Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(prov.SetupS), "s"},
			"latency_ms_p50":  {median(lat), "ms"},
			"latency_ms_tail": {percentile(lat, w.tailPct), "ms"},
			"ops_per_s":       {n / win.wall.Seconds(), "1/s"},
			"cpu_ms_per_op":   {ms(win.cpu) / n, "ms"},
			"alloc_mb_per_op": {win.allocB / 1e6 / n, "MB"},
			"rss_peak_mb":     {win.rssPeakB / 1e6, "MB"},
		},
	}, nil
}

// sideWindow is how long the traced run drives each workload other than
// the one it was asked for, to collect that workload's layer metrics.
func sideWindow(w *workload) time.Duration {
	if w.name == "serve-mixed" {
		return 4 * time.Second
	}
	return 2 * time.Second
}

// runTraced is the traced run. The requested workload runs for half the
// window with every other op traced, which yields the trace's own
// validity figures; every other workload then runs briefly so that one
// traced run prints every layer's metrics.
func runTraced(e *env, home *workload, rec *recorder, prov *provenance) (*result, error) {
	res := &result{Metrics: make(map[string]metric)}
	order := []*workload{home}
	for i := range workloads {
		if &workloads[i] != home {
			order = append(order, &workloads[i])
		}
	}
	var homeWin *window
	for _, w := range order {
		inst, err := w.prepare(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		d := sideWindow(w)
		if w == home {
			d = e.seconds / 2
		}
		win, err := tracedWindow(inst, d, rec)
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Attempted += win.attempted
		res.Failed += win.failed
		for k, v := range win.layers {
			res.Metrics[k] = v
		}
		if w == home {
			homeWin = win
		}
	}
	res.Correct = res.Failed == 0

	ops, _ := rec.summarize()
	var self, cover []float64
	for _, id := range homeWin.tracedOps {
		self = append(self, ms(ops[id].selfSum))
		cover = append(cover, ops[id].coverage)
	}
	if len(self) == 0 || len(homeWin.untraced) == 0 {
		return nil, errors.New("the traced window completed no traced and untraced op pair")
	}
	untraced := median(durationsMS(homeWin.untraced))
	res.Metrics["trace.overhead_pct"] = metric{(median(self)/untraced - 1) * 100, "%"}
	res.Metrics["trace.coverage_pct"] = metric{median(cover) * 100, "%"}
	prov.Ops = len(homeWin.lat)
	return res, nil
}

func tracedWindow(inst instance, d time.Duration, rec *recorder) (*window, error) {
	if _, err := inst.setup(); err != nil {
		return nil, err
	}
	return inst.measure(d, rec)
}

func names() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

func printJSON(label string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Printf("%s %s\n", label, data)
}

func msMap(m map[string]time.Duration) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = ms(v)
	}
	return out
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit identifies the measured source: the git commit when the
// checkout is a repository, otherwise a digest of its Go sources.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path)
		_, err = io.Copy(h, f)
		return err
	})
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
