// Command perfbench is the repository benchmark. It drives the DAMPI verifier
// through its public entry points on four workloads, checks every verdict,
// and prints one JSON result line: end-to-end metrics with -trace 0, or
// per-layer metrics from a separate traced run with -trace 1. README.md in
// this directory describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	duration time.Duration // how long the measured phase runs
	trace    bool
	outDir   string // scratch files (stores, span dumps) live under it
	toy      bool   // toy sizes, for the benchmark's own tests
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes the run that produced a result: the host, the code, the
// inputs, and the sample counts and in-run spread behind each median. It is
// printed on the line before the result.
type record struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	FailedFrac float64 `json:"failed_frac"`
	// Samples maps a metric to its sample count and in-run quartiles.
	Samples map[string]summary `json:"samples,omitempty"`
	// Failures lists what went wrong with each failed operation.
	Failures []string `json:"failures,omitempty"`
	// Spans is the file the traced run's spans were written to.
	Spans string `json:"spans,omitempty"`
}

// tally counts checked operations and keeps the reason for each failure.
type tally struct {
	attempted int
	failures  []string
}

// check counts one operation, failed when err is non-nil.
func (t *tally) check(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// add counts u's operations and failures into t.
func (t *tally) add(u *tally) {
	t.attempted += u.attempted
	t.failures = append(t.failures, u.failures...)
}

// outcome is what one workload run reports.
type outcome struct {
	tally
	metrics map[string]metric
	samples map[string]summary
	spans   string
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for scratch files and span dumps")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("-seconds must be >= 1 and -trace 0 or 1")
	}
	o.duration = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	out, err := run(o)
	if err != nil {
		fatalf("%v", err)
	}
	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    len(out.failures),
		Metrics:   out.metrics,
	}
	rec := record{
		Workload:   o.workload,
		Seed:       o.seed,
		Trace:      o.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		FailedFrac: failedFrac(res),
		Samples:    out.samples,
		Failures:   out.failures,
		Spans:      out.spans,
	}
	printJSON(rec)
	printJSON(res)
}

// run executes one workload in the mode o asks for.
func run(o options) (*outcome, error) {
	w, ok := benchWorkloads(o.toy)[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if o.trace {
		return w.layers(o)
	}
	m, err := w.measure(o)
	if err != nil {
		return nil, err
	}
	return &outcome{tally: m.tally, metrics: m.endToEnd(), samples: m.samples()}, nil
}

// failedFrac is failed operations over attempted ones.
func failedFrac(r result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// commit names the checked-out revision when the tree is a git work tree,
// read straight from .git so no git binary is needed.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

func workloadNames() []string {
	var names []string
	for n := range benchWorkloads(false) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
