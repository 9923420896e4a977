// Command bench is the repository's benchmark: one program that initializes
// sampling cubes and serves dashboard traffic over real loopback sockets,
// reports end-to-end metrics (-trace 0) or per-layer metrics (-trace 1) for
// one workload, and checks that what it was served is correct. BENCHMARK.json
// at the repository root declares its workloads and metrics; README.md in
// this directory explains them.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload dash_warm -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -workload all -seed 1      # every workload, both modes
//	bash bench/run.sh -selfcheck -seed 1         # same code twice, gaps vs bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// report is the stamped record of one run, printed as the second-to-last
// line of standard output and written to the output directory.
type report struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        float64           `json:"seconds"`
	Trace          bool              `json:"trace"`
	NumCPU         int               `json:"num_cpu"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	GoVersion      string            `json:"go_version"`
	GitSHA         string            `json:"git_sha"`
	Facts          facts             `json:"facts"`
	OpsAttempted   int               `json:"ops_attempted"`
	OpsFailed      int               `json:"ops_failed"`
	Problems       []string          `json:"problems,omitempty"`
	GeneratorBound bool              `json:"generator_bound"`
	Metrics        map[string]metric `json:"metrics"`
}

// verdict is the last line of standard output, the form the driver reads.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gitSHA names the commit of the checkout the benchmark runs in. A checkout
// without its own .git (the driver's) is "unknown": git would otherwise walk
// up and report whatever repository happens to enclose it.
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run, or \"all\" for every workload in both modes")
		seed      = flag.Int64("seed", 1, "seed every input is derived from")
		seconds   = flag.Float64("seconds", 15, "length of the measured phases, in seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
		outDir    = flag.String("out", "bench/out", "directory for report and trace files")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the gaps with the bounds in BENCHMARK.json")
		spin      = flag.Bool("idle-spin", false, "internal: run as a keep-awake helper (see awake.go)")
	)
	flag.Parse()
	if *spin {
		if err := idleSpin(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := realMain(*name, *seed, *seconds, *trace != 0, *outDir, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds float64, trace bool, outDir string, selfcheck bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	switch {
	case selfcheck:
		return runSelfcheck(seed, seconds, outDir)
	case name == "all":
		return runAll(seed, seconds, outDir)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	stopHelpers, err := keepAwake()
	if err != nil {
		return err
	}
	defer stopHelpers()
	var res *result
	var tr *tracer
	if trace {
		tr = newTracer()
		res, err = runTraced(w, seed, seconds, fullScale, tr)
	} else {
		res, err = runEndToEnd(w, seed, seconds, fullScale)
	}
	if err != nil {
		return err
	}
	rep := report{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitSHA: gitSHA(),
		Facts: res.facts, OpsAttempted: res.attempted, OpsFailed: res.failed, Problems: res.problems,
		GeneratorBound: res.generatorBound, Metrics: res.metrics,
	}
	return emit(rep, tr, outDir)
}

// emit prints every metric as "name value unit", then the stamped report,
// then the verdict, and writes the report (and the spans of a traced run)
// under outDir.
func emit(rep report, tr *tracer, outDir string) error {
	names := make([]string, 0, len(rep.Metrics))
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no finite value (%v)", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %v %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Printf("ops_attempted %d count\nops_failed %d count\n", rep.OpsAttempted, rep.OpsFailed)
	for _, p := range rep.Problems {
		fmt.Printf("problem: %s\n", p)
	}
	if rep.GeneratorBound {
		fmt.Println("generator-bound: sends ran more than 1 ms behind schedule at p99; latencies describe the generator")
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	suffix := rep.Workload
	if rep.Trace {
		if err := tr.write(filepath.Join(outDir, "trace-"+rep.Workload+".json"), rep.Workload, rep.Seed); err != nil {
			return err
		}
		suffix += "-trace"
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report-"+suffix+".json"), append(line, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	last, err := json.Marshal(verdict{
		Correct: rep.OpsFailed == 0, Attempted: rep.OpsAttempted, Failed: rep.OpsFailed, Metrics: rep.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}
