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

// The steadiness mode answers "do two sets of runs of the same build
// agree?": it runs set A (seeds 1..5) and set B (seeds 101..105) of
// untraced runs, alternating which set goes first, and prints per workload
// and metric each set's median, quartiles and spread (quartile distance
// over median), the spread of both sets pooled, the gap between the
// medians in the metric's worse direction, and the metric's bound from
// BENCHMARK.json, followed by each run's value.
//
// Every metric is held to the same rule. It fails when a set's spread or
// the gap exceeds the bound, or when the share of failed operations is not
// the same in every run; it is marked "wide" when a spread exceeds a third
// of the bound, the margin the benchmark is tuned to keep, and "ok" below.

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyRuns is the number of runs in each set: ten runs per workload in
// all, the count the benchmark's acceptance takes its quartiles over.
const steadyRuns = 5

func runSteady(secs int, build string) error {
	spec := benchSpec{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	for _, w := range []string{"labflow1", "service", "ingest"} {
		var sets [2]map[string][]float64
		var failed [2][]string
		shares := map[[2]int64]bool{} // failed/attempted, reduced
		sameShare := true
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for i := 0; i < steadyRuns; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, s := range order {
				seed := int64(1 + i + 100*s)
				res, err := runOnce(exe, build, w, seed, secs)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: outputs incorrect", w, seed)
				}
				failed[s] = append(failed[s], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
				g := max(gcd(res.Failed, res.Attempted), 1)
				shares[[2]int64{res.Failed / g, res.Attempted / g}] = true
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "steady: %s set %c seed %d done\n", w, 'A'+s, seed)
			}
		}
		if len(shares) > 1 {
			sameShare, ok = false, false
		}
		fmt.Printf("\n%s (%d runs per set, %ds each; failed/attempted A %v B %v; same failed share in every run: %v)\n",
			w, steadyRuns, secs, failed[0], failed[1], sameShare)
		fmt.Printf("  %-24s %14s %8s %14s %8s %8s %8s %6s  %s\n", "metric", "median A", "spread", "median B", "spread", "all", "gap", "bound", "verdict")
		names := make([]string, 0, len(sets[0]))
		for k := range sets[0] {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			better, bound := "", -1.0
			for _, e := range spec.EndToEnd {
				if e.Name == name {
					better, bound = e.Better, e.Bound
				}
			}
			ma, spreadA := spreadOf(sets[0][name])
			mb, spreadB := spreadOf(sets[1][name])
			_, spreadAll := spreadOf(append(append([]float64(nil), sets[0][name]...), sets[1][name]...))
			gap := (mb - ma) / ma
			if better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			switch {
			case bound < 0:
				verdict = "no bound"
			case len(sets[0][name]) != steadyRuns || len(sets[1][name]) != steadyRuns:
				verdict, ok = "MISSING", false
			case spreadA > bound || spreadB > bound:
				verdict, ok = "SPREAD", false
			case gap > bound:
				verdict, ok = "GAP", false
			case spreadA > bound/3 || spreadB > bound/3:
				verdict = "wide"
			}
			fmt.Printf("  %-24s %14.4f %7.2f%% %14.4f %7.2f%% %7.2f%% %7.2f%% %6.3f  %s\n",
				name, ma, 100*spreadA, mb, 100*spreadB, 100*spreadAll, 100*gap, bound, verdict)
			fmt.Printf("      A %.4g\n      B %.4g\n", sets[0][name], sets[1][name])
		}
	}
	if !ok {
		return fmt.Errorf("some metric is not steady within its bound")
	}
	return nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// spreadOf returns the median and the quartile distance over the median.
func spreadOf(vals []float64) (med, spread float64) {
	q1, med, q3 := quartiles(vals)
	return med, (q3 - q1) / med
}

func runOnce(exe, build, workload string, seed int64, secs int) (*result, error) {
	cmd := exec.Command(exe, "-build", build, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(secs), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
