// lstore-perfcheck guards against allocation regressions in CI: it parses
// `go test -bench` output, compares each benchmark against a committed
// baseline, and fails on any allocs/op more than the tolerance above it.
//
// Allocation counts are deterministic across machines; wall-clock ns/op is
// not (repeated runs of one binary on a shared 2-core host spread up to 2×),
// so ns/op and its drift from the baseline are printed for information and
// never judged.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchtime=50x ./... | \
//	    go run ./cmd/lstore-perfcheck -baseline PERF_BASELINE.json
//	... | go run ./cmd/lstore-perfcheck -baseline PERF_BASELINE.json -update
//
// -update regenerates the baseline from the input instead of comparing;
// -out writes the parsed results as JSON for trend tooling.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark's parsed metrics. AllocsOp is -1 when the
// benchmark did not report allocations.
type benchResult struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// gomaxprocsSuffix strips the `-8` CPU suffix so baselines transfer between
// hosts with different core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output. A benchmark line is
// `BenchmarkX[-8]  100  1234 ns/op [custom metrics...] [56 B/op  7 allocs/op]`
// — value/unit pairs after the iteration count, in any order.
func parse(r io.Reader) (map[string]benchResult, error) {
	out := map[string]benchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // not an iteration count: some other Benchmark-prefixed line
		}
		res := benchResult{NsOp: -1, AllocsOp: -1}
		for i := 3; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil {
				break
			}
			switch f[i] {
			case "ns/op":
				res.NsOp = v
			case "allocs/op":
				res.AllocsOp = int64(v)
			}
		}
		if res.NsOp < 0 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
		// Same benchmark from multiple -cpu runs or packages: keep the fastest
		// (comparing best-vs-best is the least noisy trend signal).
		if prev, ok := out[name]; !ok || res.NsOp < prev.NsOp {
			out[name] = res
		}
	}
	return out, sc.Err()
}

func main() {
	var (
		baseline  = flag.String("baseline", "PERF_BASELINE.json", "committed baseline to compare against")
		update    = flag.Bool("update", false, "rewrite the baseline from the input instead of comparing")
		tolerance = flag.Float64("tolerance", 20, "allowed allocs/op regression in percent")
		out       = flag.String("out", "", "also write parsed results as JSON to this path")
	)
	flag.Parse()

	input := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		input = f
	} else if flag.NArg() > 1 {
		fatal(fmt.Errorf("perfcheck: at most one input file"))
	}

	got, err := parse(input)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("perfcheck: no benchmark lines in input"))
	}
	if *out != "" {
		if err := writeJSON(*out, got); err != nil {
			fatal(err)
		}
	}
	if *update {
		if err := writeJSON(*baseline, got); err != nil {
			fatal(err)
		}
		fmt.Printf("perfcheck: baseline %s updated with %d benchmarks\n", *baseline, len(got))
		return
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		fatal(fmt.Errorf("perfcheck: %w (run with -update to create the baseline)", err))
	}
	base := map[string]benchResult{}
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("perfcheck: baseline %s: %w", *baseline, err))
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	limit := 1 + *tolerance/100
	failures, missing := 0, 0
	for _, name := range names {
		want := base[name]
		cur, ok := got[name]
		if !ok {
			// A benchmark that vanished is a silent loss of coverage.
			fmt.Printf("::warning::perfcheck: baseline benchmark %s missing from input\n", name)
			missing++
			continue
		}
		if want.AllocsOp >= 0 && cur.AllocsOp >= 0 &&
			float64(cur.AllocsOp) > float64(want.AllocsOp)*limit {
			fmt.Printf("FAIL %s: %d allocs/op, baseline %d (+%.0f%% > %.0f%% tolerance)\n",
				name, cur.AllocsOp, want.AllocsOp,
				100*(float64(cur.AllocsOp)/float64(want.AllocsOp)-1), *tolerance)
			failures++
			continue
		}
		fmt.Printf("ok   %s: %s, %.0f ns/op (baseline %.0f, %+.0f%%)\n",
			name, allocs(cur), cur.NsOp, want.NsOp, 100*(cur.NsOp/want.NsOp-1))
	}
	fmt.Printf("perfcheck: %d compared, %d failed, %d missing\n",
		len(base)-missing, failures, missing)
	if failures > 0 {
		os.Exit(1)
	}
}

func allocs(r benchResult) string {
	if r.AllocsOp < 0 {
		return "allocs not reported"
	}
	return strconv.FormatInt(r.AllocsOp, 10) + " allocs/op"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
