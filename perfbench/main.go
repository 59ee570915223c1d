// Command perfbench is the repository benchmark. It runs one workload
// against the public engine API (mcdbr) or the in-process HTTP service
// (internal/server), checks that every result is correct, and prints the
// metrics named in BENCHMARK.json as the last line of standard output:
//
//	go run . --workload mc-grouped --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics, measured with no
// tracing. With --trace 1 the same workload runs again through the
// exported entry points of each layer, with spans recorded around every
// call, and the line holds the per-layer metrics; the spans are written to
// --trace-out when the run ends.
//
// Workloads:
//
//	mc-grouped  closed loop, fixed-N grouped Monte Carlo through PreparedQuery.Run
//	tail-tpch   closed loop, App. D DOMAIN ... QUANTILE tail sampling (E1 shape)
//	serve-mix   open loop, Poisson arrivals over loopback HTTP to internal/server
//
// Inputs are generated from --seed only. A failed output check makes the
// run exit with status 1 after printing its result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"runtime"
	"strings"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// short shrinks set-up repetitions and probe sizes for the package's
	// own tests; the measured metrics keep their names and units.
	short bool
	// workers is the engine, server and client parallelism (nproc).
	workers int
}

// workloadDef names a workload, says why it is in the benchmark, and runs
// it.
type workloadDef struct {
	name string
	why  string
	run  func(cfg config) (*outcome, error)
}

// workloads lists every workload; each why matches BENCHMARK.json.
var workloads = []workloadDef{
	{"mc-grouped", "Closed loop, fixed-N grouped, HAVING and filtered Monte Carlo via PreparedQuery.Run: TS-seed materialization and AggEval dominate, plan and prefix caches hit; on-time limit 250 ms", runMCGrouped},
	{"tail-tpch", "Closed loop, the App. D TPC-H-like DOMAIN QUANTILE tail query in E1 shape at scalediv 1000, N=300, l=50: Gibbs rejection sampling and plan re-runs dominate; on-time limit 1500 ms", runTailTPCH},
	{"serve-mix", "Open loop, Poisson HTTP mix over 256 skewed texts plus adaptive, tail and DDL requests: admission, parsing, planning on cache misses and encoding; on-time limit 250 ms", runServeMix},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int
	// mismatches describes failed output checks, at most a few each.
	mismatches []string
	metrics    map[string]metric
	// errorFrac is failed / attempted, printed on the summary line; it is
	// not a BENCHMARK.json metric because it is 0 on a correct build.
	errorFrac float64
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mc-grouped, tail-tpch or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	traceOut := fs.String("trace-out", "", "span file written by --trace 1 (default .bench_build/perfbench-trace-<workload>.jsonl)")
	short := fs.Bool("short", false, "fewer set-up repetitions and smaller probes (tests only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	cfg := config{
		workload: w.name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceOut: *traceOut,
		short:    *short,
		workers:  runtime.NumCPU(),
	}
	if cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/perfbench-trace-%s.jsonl", w.name)
	}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	header := map[string]any{
		"workload":    w.name,
		"why":         w.why,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"error_frac":  out.errorFrac,
		"environment": environment(),
	}
	if len(out.mismatches) > 0 {
		header["mismatches"] = out.mismatches
	}
	if err := writeJSONLine(stdout, header); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{
		Correct:   len(out.mismatches) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed; output checks: %s\n",
			w.name, out.failed, out.attempted, strings.Join(out.mismatches, "; "))
		return 1
	}
	return 0
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// environment describes the machine and build a run measured.
func environment() map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"commit":     commit(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out revision: PERFBENCH_COMMIT when the caller
// sets it, else git's HEAD when the tree is a repository, else "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	out, err := osexec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
