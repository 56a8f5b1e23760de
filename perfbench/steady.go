package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark checks itself
// against: the metric names, units, directions and bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// check reports any difference between the metrics a run produced and
// the list BENCHMARK.json declares for that kind of run.
func (s *spec) check(got map[string]metric, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	var problems []string
	declared := make(map[string]bool, len(want))
	for _, m := range want {
		declared[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, m.Name+" missing")
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !declared[name] {
			problems = append(problems, name+" not declared in BENCHMARK.json")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// runSteady is the steadiness report: for each workload (by default the
// ones BENCHMARK.json lists) it runs two interleaved sets of untraced
// runs, every run in its own process with its own seed, and prints each
// end-to-end metric's median, quartiles, spread (quartile distance over
// median) and how much worse the second set's median is than the
// first's, against the bound BENCHMARK.json fixes for it.
func runSteady(s *spec, runs, seconds int, only, densestd, out string) int {
	const sets = 2
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	list := strings.Split(only, ",")
	if only == "" {
		list = nil
		for _, w := range s.Workloads {
			list = append(list, w.Name)
		}
	}
	// values[workload][set][metric] holds one value per run.
	values := make(map[string][]map[string][]float64)
	for _, w := range list {
		if findWorkload(w) == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", w)
			return 2
		}
		values[w] = make([]map[string][]float64, sets)
		for i := range values[w] {
			values[w][i] = make(map[string][]float64)
		}
	}
	failed := false
	for i := 0; i < runs; i++ {
		for set := 0; set < sets; set++ {
			for _, w := range list {
				seed := int64(1 + i + 1000*set)
				cmd := exec.Command(self, "-densestd", densestd, "-out", out, "--workload", w,
					"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				var res result
				if err == nil {
					lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
					err = json.Unmarshal(lines[len(lines)-1], &res)
				}
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d failed: %v\n", w, seed, err)
					failed = true
					continue
				}
				var parts []string
				for _, m := range s.EndToEnd {
					v := res.Metrics[m.Name].Value
					values[w][set][m.Name] = append(values[w][set][m.Name], v)
					parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, v))
				}
				fmt.Fprintf(os.Stderr, "steady: %s set %d seed %d: %s\n", w, set+1, seed, strings.Join(parts, " "))
			}
		}
	}

	fmt.Printf("%-12s %-16s %6s", "workload", "metric", "bound")
	for set := 0; set < sets; set++ {
		fmt.Printf(" | set %d: %10s %10s %10s %7s", set+1, "median", "q1", "q3", "spread")
	}
	fmt.Printf(" | %7s  verdict\n", "worse")
	for _, w := range list {
		for _, m := range s.EndToEnd {
			verdict := "ok"
			var meds []float64
			fmt.Printf("%-12s %-16s %6.2f", w, m.Name, m.Bound)
			for set := 0; set < sets; set++ {
				xs := values[w][set][m.Name]
				med := median(xs)
				q1, q3 := quartiles(xs)
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / med
				}
				meds = append(meds, med)
				fmt.Printf(" | set %d: %10.4g %10.4g %10.4g %6.1f%%", set+1, med, q1, q3, spread*100)
				if m.Name != "setup_s" {
					switch {
					case spread > m.Bound:
						verdict = "FAIL spread"
					case spread > m.Bound/3 && verdict == "ok":
						verdict = "spread above a third of the bound"
					}
				}
			}
			worse := 0.0
			if meds[0] != 0 {
				worse = (meds[1] - meds[0]) / meds[0]
				if m.Better == "higher" {
					worse = -worse
				}
				if worse > m.Bound {
					verdict = "FAIL drift"
				}
			}
			fmt.Printf(" | %6.1f%%  %s\n", worse*100, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
