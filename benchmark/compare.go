package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// compare reads two sets of runs (files written with -out) and, for every
// end-to-end metric on every workload, says whether B's median is worse
// than A's by more than the bound BENCHMARK.json fixes:
//
//	within      not worse by more than the bound
//	worse       worse by more than the bound
//	unresolved  either side's quartile spread is wider than the bound, or a
//	            side has runs without a value, so the runs cannot tell
//
// and whether the two sets failed the same share of operations. It is the
// check a review runs on every later performance claim.

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

type verdict string

const (
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares b against a for one metric. worseBy is the share of a's
// median by which b's is worse (negative: better).
func judge(a, b []float64, m specMetric) (medA, spreadA, medB, spreadB, worseBy float64, v verdict) {
	medA, spreadA = quartileSpread(a)
	medB, spreadB = quartileSpread(b)
	worseBy = div(medB-medA, medA)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case spreadA > m.Bound || spreadB > m.Bound:
		v = unresolved
	case worseBy > m.Bound:
		v = worse
	default:
		v = within
	}
	return
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's definition: metrics, directions, bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	var sets [2][]record
	for i := range sets {
		if sets[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
			return 2
		}
	}

	bad := 0
	fmt.Fprintf(stdout, "%-13s %-13s %5s %14s %7s %14s %7s %9s %6s  %s\n",
		"workload", "metric", "runs", "A median", "spread", "B median", "spread", "worse by", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			// A run that should carry the metric and does not — the file is
			// empty, or a renamed counter turned the value null — leaves the
			// pair unjudged, and that must not read as "no regression".
			var vals [2][]float64
			var noValue [2]int
			for i, set := range sets {
				for _, rec := range set {
					if rec.Workload != wl.Name || rec.Trace == traceModeNames[traceOn] {
						continue // a traced run has no end-to-end metrics
					}
					if mv := rec.Metrics[m.Name]; mv.Value != nil {
						vals[i] = append(vals[i], *mv.Value)
					} else {
						noValue[i]++
					}
				}
			}
			runs := fmt.Sprintf("%d/%d", len(vals[0]), len(vals[1]))
			if len(vals[0]) == 0 || len(vals[1]) == 0 || noValue[0]+noValue[1] > 0 {
				bad++
				fmt.Fprintf(stdout, "%-13s %-13s %5s  %s: runs without a value: A %d, B %d\n",
					wl.Name, m.Name, runs, unresolved, noValue[0], noValue[1])
				continue
			}
			medA, spA, medB, spB, by, v := judge(vals[0], vals[1], m)
			if v != within {
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-13s %5s %14.4f %6.1f%% %14.4f %6.1f%% %+8.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, runs, medA, 100*spA, medB, 100*spB, 100*by, 100*m.Bound, v)
		}
	}
	fmt.Fprintf(stdout, "\n%-13s %22s %22s\n", "workload", "A failed/attempted", "B failed/attempted")
	for _, wl := range sp.Workloads {
		var failed, attempted [2]int
		for i, set := range sets {
			for _, rec := range set {
				if rec.Workload == wl.Name {
					failed[i] += rec.Failed
					attempted[i] += rec.Attempted
				}
			}
		}
		note := ""
		switch {
		case attempted[0] == 0 || attempted[1] == 0:
			note = "  " + string(unresolved) + ": a side attempted nothing"
			bad++
		case float64(failed[0])/float64(attempted[0]) != float64(failed[1])/float64(attempted[1]):
			note = "  failed shares differ"
			bad++
		}
		fmt.Fprintf(stdout, "%-13s %10d/%-11d %10d/%-11d%s\n", wl.Name, failed[0], attempted[0], failed[1], attempted[1], note)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d rows are `worse`, `unresolved` or differ in failed share\n", bad)
		return 1
	}
	return 0
}
