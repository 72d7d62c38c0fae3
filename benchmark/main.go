// Command benchmark is the repo's one measurement spine: it trains and
// serves the system's own workloads over an emulated network link, prints
// every metric BENCHMARK.json names with its unit, checks that the outputs
// are correct, and exits non-zero if they are not. README.md has the
// workload and metric tables.
//
//	go run ./benchmark -workload train-wire -seed 1            end-to-end metrics
//	go run ./benchmark -workload train-wire -seed 1 -trace 1   per-layer metrics + out/trace-train-wire.json
//	go run ./benchmark -workload all -repeat 3 -out a.json     a set: median and quartiles per metric
//	go run ./benchmark -compare a.json b.json                  two sets against the bounds
//	go run ./benchmark -smoke                                  every probe on a tiny graph, 3 s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// outDir is where a traced run leaves trace-<workload>.json and -repeat its
// set, relative to the root of the checkout; benchmark/.gitignore names it.
const outDir = "benchmark/out"

// result is the last line a run prints: the contract with whatever drives
// the benchmark.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", 1, "input seed: offsets the dataset seed, the model seed and the request stream")
		seconds = flag.Float64("seconds", nominalSeconds, "length of the measured part of a run; epoch counts and load durations scale with it")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, every probe off; 1: per-layer metrics from a traced run")
		repeat  = flag.Int("repeat", 0, "run the workload(s) this many times on consecutive seeds and write a set to -out")
		outPath = flag.String("out", "", "with -repeat: the file the set is written to (default benchmark/out/set.json)")
		compare = flag.Bool("compare", false, "compare two sets written by -repeat: -compare a.json b.json")
		smoke   = flag.Bool("smoke", false, "run a tiny workload through every probe, traced and untraced")
		asJSON  = flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it")
	)
	flag.Parse()
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}

	switch {
	case *asJSON:
		blob, err := json.MarshalIndent(theManifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(blob))
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two set files"))
		}
		regressed, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *smoke:
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(smokeWorkload, smokeOptions(*seed, traced, outDir))
			if err != nil {
				fatal(err)
			}
			if !report(smokeWorkload.Name, out, traced) {
				os.Exit(1)
			}
		}
	case *repeat > 0:
		path := *outPath
		if path == "" {
			path = filepath.Join(outDir, "set.json")
		}
		if err := runSet(path, selected(*name), *seed, *seconds, *trace, *repeat); err != nil {
			fatal(err)
		}
	case *name == "all":
		// One process per workload, so that peak_rss_mb is the workload's own.
		ok := true
		for _, w := range workloads {
			res, err := runChild(w.Name, *seed, *seconds, *trace, os.Stdout)
			if err != nil {
				fatal(err)
			}
			ok = ok && res.Correct
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		out, err := runWorkload(w.scaled(*seconds), fullOptions(*seed, *trace == 1, outDir))
		if err != nil {
			fatal(err)
		}
		if !report(w.Name, out, *trace == 1) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// selected expands "all".
func selected(name string) []string {
	if name == "all" {
		return workloadNames()
	}
	return []string{name}
}

// report prints a run: every metric by name with its unit, the checks that
// failed, and as the last line the result object. It returns whether the
// run was correct.
func report(workload string, out *outcome, traced bool) bool {
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := defsFor(traced)
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			res.Correct = false
			out.problem("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	fmt.Printf("== %s  trace=%v  checksum=%016x  operations=%d failed=%d\n", workload, traced, out.checksum, out.attempted, out.failed)
	for _, d := range defs {
		fmt.Printf("%-34s %14.4f %s\n", d.Name, out.metrics[d.Name], d.Unit)
	}
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	for _, p := range out.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
	return res.Correct
}

// runChild runs one workload in a process of its own (this binary again),
// copies what it prints to echo, and returns its result line.
func runChild(workload string, seed int64, seconds float64, trace int, echo *os.File) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	blob, err := cmd.Output()
	if echo != nil {
		echo.Write(blob)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, jerr)
	}
	return &res, nil // a failed check exits 1 but still reports
}

// set is what -repeat writes and -compare reads: per workload and metric,
// the value of every run.
type set struct {
	Seconds float64                         `json:"seconds"`
	Trace   int                             `json:"trace"`
	Seeds   []int64                         `json:"seeds"`
	Correct bool                            `json:"correct"`
	Values  map[string]map[string][]float64 `json:"values"`
}

// runSet runs each workload n times, on seeds seed … seed+n−1, alternating
// the workload order from one round to the next so that no workload always
// follows the same neighbour.
func runSet(path string, names []string, seed int64, seconds float64, trace, n int) error {
	s := set{Seconds: seconds, Trace: trace, Correct: true, Values: map[string]map[string][]float64{}}
	for i := 0; i < n; i++ {
		s.Seeds = append(s.Seeds, seed+int64(i))
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, name := range order {
			res, err := runChild(name, seed+int64(i), seconds, trace, nil)
			if err != nil {
				return err
			}
			fmt.Printf("%s seed %d: correct=%v failed=%d/%d\n", name, seed+int64(i), res.Correct, res.Failed, res.Attempted)
			s.Correct = s.Correct && res.Correct
			if s.Values[name] == nil {
				s.Values[name] = map[string][]float64{}
			}
			for metric, v := range res.Metrics {
				s.Values[name][metric] = append(s.Values[name][metric], v.Value)
			}
		}
	}
	for _, name := range names {
		fmt.Printf("== %s, %d runs\n%-34s %12s %12s %12s %8s\n", name, n, "metric", "q1", "median", "q3", "spread")
		for _, metric := range sortedKeys(s.Values[name]) {
			v := s.Values[name][metric]
			q1, q3 := quartiles(v)
			fmt.Printf("%-34s %12.4f %12.4f %12.4f %7.2f%%\n", metric, q1, median(v), q3, 100*spread(v))
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	if !s.Correct {
		return fmt.Errorf("a run failed its checks; set written to %s", path)
	}
	return nil
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
