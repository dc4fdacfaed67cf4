// Command benchmark is this repository's benchmark: four HTAP workloads on
// one table shape, measured end to end and layer by layer from outside the
// engine. It drives only what users drive — the root lstore package and the
// internal/server HTTP wire — loads, runs, checks every answer, and prints
// every metric by name and unit. See README.md and ../BENCHMARK.json.
//
//	benchmark [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1|both]
//	benchmark compare A.jsonl B.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultRows is the table size: 2^19 rows of 10 Int64 columns. The issue
// asked for 2^20; three set-ups per run at that size do not fit the
// driver's time cap (see README.md, "Sizes").
const defaultRows = 1 << 19

// usageError is a bad command line: exit code 2, like the flag package's.
type usageError struct{ error }

func benchMain(args []string, stdout, stderr io.Writer) int {
	correct, err := bench(args, stdout, stderr)
	switch {
	case errors.As(err, new(usageError)):
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	case errors.Is(err, flag.ErrHelp):
		return 2
	case err != nil:
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	case !correct:
		return 1
	}
	return 0
}

// bench runs the workloads the flags select and reports whether every
// answer was correct and no operation failed.
func bench(args []string, stdout, stderr io.Writer) (correct bool, err error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	workload := fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for the generated table and request streams")
	seconds := fs.Float64("seconds", 8, "length of the measured window")
	trace := fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced window; both")
	fs.Int64Var(&cfg.rows, "rows", defaultRows, "table rows (a power of two)")
	fs.StringVar(&cfg.dir, "dir", "", "scratch directory for WAL, spill and checkpoint files (default: a new temporary directory); removed on exit")
	fs.StringVar(&cfg.traceFile, "trace-file", "trace.jsonl", "where a traced run writes its spans")
	outPath := fs.String("out", "", "append one JSON record per run to this file (the input of `benchmark compare`)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	mode := slices.Index(traceModeNames[:], *trace)
	if mode < 0 {
		return false, usageError{fmt.Errorf("-trace %q: want 0, 1 or both", *trace)}
	}
	cfg.trace = traceMode(mode)
	if *seconds <= 0 {
		return false, usageError{fmt.Errorf("-seconds must be positive")}
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	selected := workloads[:0:0]
	for _, wl := range workloads {
		if *workload == "all" || *workload == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		return false, usageError{fmt.Errorf("unknown workload %q (have %s)", *workload, workloadNames())}
	}
	g, err := newGen(cfg.seed, cfg.rows)
	if err != nil {
		return false, usageError{err}
	}

	if cfg.dir != "" {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return false, err
		}
	}
	if cfg.dir, err = os.MkdirTemp(cfg.dir, "lstore-benchmark-"); err != nil {
		return false, err
	}
	defer os.RemoveAll(cfg.dir)
	env := stampEnv(cfg)
	if env.FsyncProbeUS, err = fsyncProbe(cfg.dir); err != nil {
		return false, fmt.Errorf("fsync probe: %w", err)
	}

	var traceOut *bufio.Writer
	if cfg.trace != traceOff {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return false, err
		}
		traceOut = bufio.NewWriterSize(f, 1<<20)
		defer func() {
			ferr := traceOut.Flush()
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil && err == nil {
				correct, err = false, fmt.Errorf("write %s: %w", cfg.traceFile, ferr)
			}
		}()
	}

	correct = true
	for _, wl := range selected {
		cfg.workload = wl.name
		rec, err := runWorkload(cfg, g, wl.run, env, stdout, traceOut)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.name, err)
		}
		correct = correct && rec.Correct
		if *outPath != "" {
			if err := appendRecord(*outPath, rec); err != nil {
				return false, err
			}
		}
		// The contract line: the last line of a run's output.
		line, err := json.Marshal(rec.result)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return correct, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// metricJSON is one metric in the output; a null value is a counter the
// engine no longer exposes under the name the benchmark knows.
type metricJSON struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// result is the contract line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// record is what -out keeps of a run: the contract line plus what is needed
// to read it later.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    string  `json:"trace"`
	Env      envInfo `json:"env"`
	result
	Problems []string `json:"problems,omitempty"`
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runWorkload runs one workload once and prints its report.
func runWorkload(cfg config, g *gen, body func(*run) error, env envInfo, out io.Writer, traceOut io.Writer) (*record, error) {
	dir, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{cfg: cfg, g: g, tc: &traceCtl{}, dir: dir, miss: missing{}, logs: map[string][]span{}}
	if err := body(r); err != nil {
		return nil, err
	}

	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(),
		Trace: traceModeNames[cfg.trace], Env: env, Problems: r.problems,
	}
	rec.Attempted, rec.Failed = r.checks, r.checksFailed
	for _, w := range r.windows {
		for ro := range w.ops {
			rec.Attempted += w.ops[ro].attempted + w.direct[ro].attempted
			rec.Failed += w.ops[ro].failed + w.direct[ro].failed
		}
	}
	rec.Correct = rec.Failed == 0
	rec.Metrics = map[string]metricJSON{}

	fmt.Fprintf(out, "\n== %s  seed=%d rows=%d window=%.2fs trace=%s ==\n", cfg.workload, cfg.seed, cfg.rows, cfg.window.Seconds(), rec.Trace)
	env.print(out)
	add := func(title string, defs []metricDef, v values) {
		printValues(out, title, defs, v)
		for _, d := range defs {
			rec.Metrics[d.name] = metricJSON{Value: v[d.name], Unit: d.unit}
		}
	}
	if cfg.trace != traceOn {
		add("end-to-end (untraced window)", endToEnd, r.endToEndValues())
	}
	if cfg.trace != traceOff {
		add("per-layer (traced window; 0 = layer idle or not visible from outside on this workload)", perLayer, r.layerValues())
		if err := writeTrace(traceOut, cfg.workload, r.logs); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	r.printDiagnostics(out)
	fmt.Fprintf(out, "  attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	return rec, nil
}

// ---------------------------------------------------------------------------
// Environment stamp: enough to read the numbers as this sandbox's.

type envInfo struct {
	GitSHA       string  `json:"git_sha"`
	GitDirty     bool    `json:"git_dirty"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	ScratchFS    string  `json:"scratch_fs"`
	Rows         int64   `json:"rows"`
	WarmUpSecs   float64 `json:"warmup_seconds"`
	WindowSecs   float64 `json:"window_seconds"`
	FsyncProbeUS float64 `json:"fsync_probe_us"`
}

func stampEnv(cfg config) envInfo {
	e := envInfo{
		GitSHA: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", ScratchFS: fsName(cfg.dir), Rows: cfg.rows,
		WarmUpSecs: (cfg.window / 4).Seconds(), WindowSecs: cfg.window.Seconds(),
	}
	// `go build` stamps the revision when it runs inside a git checkout; a
	// plain source tree (the acceptance driver's) has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.GitSHA = s.Value
			case "vcs.modified":
				e.GitDirty = s.Value == "true"
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func (e envInfo) print(out io.Writer) {
	dirty := ""
	if e.GitDirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(out, "env: git=%s%s %s nproc=%d GOMAXPROCS=%d cpu=%q scratch_fs=%s fsync_probe_us=%.1f warm-up=%.2fs\n",
		e.GitSHA, dirty, e.GoVersion, e.NProc, e.GOMAXPROCS, e.CPUModel, e.ScratchFS, e.FsyncProbeUS, e.WarmUpSecs)
}

func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
