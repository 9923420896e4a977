package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// child runs one workload in a fresh process — peak memory and the Go heap's
// history belong to a process, so runs must not share one — and returns its
// output and its stamped report.
func child(w *workload, seed int64, seconds float64, trace int, outDir string) ([]byte, *report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, nil, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return out, nil, fmt.Errorf("%s (trace %d): no report in the output", w.name, trace)
	}
	var rep report
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil {
		return out, nil, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
	}
	return out, &rep, nil
}

// runAll prints every end-to-end and per-layer metric of every workload.
func runAll(seed int64, seconds float64, outDir string) error {
	failed := 0
	for _, w := range workloads() {
		for trace := 0; trace <= 1; trace++ {
			out, rep, err := child(w, seed, seconds, trace, outDir)
			if err != nil {
				return err
			}
			fmt.Printf("== %s, -trace %d\n%s", w.name, trace, out)
			failed += rep.OpsFailed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runSelfcheck runs every workload twice on the same code and seed and
// compares the two: each end-to-end metric's relative gap against its bound
// in BENCHMARK.json, and the exact counts against each other.
func runSelfcheck(seed int64, seconds float64, outDir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var bad []string
	for _, w := range workloads() {
		var reps [2]*report
		for i := range reps {
			if _, reps[i], err = child(w, seed, seconds, 0, outDir); err != nil {
				return err
			}
			if reps[i].OpsFailed > 0 {
				bad = append(bad, fmt.Sprintf("%s: %d operations failed: %s", w.name, reps[i].OpsFailed, strings.Join(reps[i].Problems, "; ")))
			}
		}
		fmt.Printf("== %s\n", w.name)
		for _, m := range bf.EndToEnd {
			a, b := reps[0].Metrics[m.Name].Value, reps[1].Metrics[m.Name].Value
			gap := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if gap > m.Bound {
				verdict = "EXCEEDS BOUND"
				bad = append(bad, fmt.Sprintf("%s %s: gap %.3f exceeds bound %.3f", w.name, m.Name, gap, m.Bound))
			}
			fmt.Printf("%-16s %14.6g %14.6g  gap %6.3f  bound %5.3f  %s\n", m.Name, a, b, gap, m.Bound, verdict)
		}
		if reps[0].Facts != reps[1].Facts {
			bad = append(bad, fmt.Sprintf("%s: exact counts differ: %+v vs %+v", w.name, reps[0].Facts, reps[1].Facts))
		}
		fmt.Printf("%-16s %+v\n", "exact counts", reps[0].Facts)
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("self-check failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("self-check passed: every gap is within its bound and every exact count repeats")
	return nil
}
