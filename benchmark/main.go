// Command benchmark is the repository's one end-to-end benchmark: it
// builds a database from a seed, starts internal/server in-process on a
// loopback listener with `maybms serve` defaults, drives it through the
// real client package, checks every answer, and prints every metric as
// `workload metric value unit`. BENCHMARK.json at the repository root
// names the workloads, the metrics and their regression bounds; see
// README.md beside this file for what each one means.
//
//	go run . -seed 2009                    # all five workloads, both passes
//	go run . -workload short_rpc -trace 1  # one workload, per-layer metrics
//	go run . -repeat 3 -out out/a.json     # quartiles, for -compare
//	go run . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (default: all five, each in its own process)")
	seed := fs.Int64("seed", 2009, "seed of every generated input")
	secs := fs.Float64("seconds", 0, "length of the measurement window (default: run_seconds of BENCHMARK.json; 1 with -smoke)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters and the traced probe")
	clients := fs.Int("clients", min(2, runtime.NumCPU()), "closed-loop client sessions")
	smoke := fs.Bool("smoke", false, "tiny tables and 1 s windows: proves the plumbing, measures nothing")
	repeat := fs.Int("repeat", 1, "run the suite this many times and store quartiles")
	out := fs.String("out", "out/results.json", "where the suite writes its results")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		return fail(fmt.Errorf("%d clients on %d processors: the clients would queue on the CPU rather than on the server", *clients, runtime.NumCPU()))
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *secs,
		trace: *traceFlag != 0, clients: *clients, smoke: *smoke, sz: fullSizes, outDir: "out",
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.smoke {
		cfg.sz = smokeSizes
		if *secs == 0 {
			cfg.seconds = 1
		}
	}

	if cfg.workload == "" {
		return suite(spec, cfg, *repeat, *out, stdout, stderr)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	printResult(res, stdout, stderr)
	if res.Undersampled {
		fmt.Fprintf(stderr, "benchmark: %s undersampled: %d operations in the window, want at least %d\n",
			res.Workload, res.Attempted, cfg.sz.minOps)
		return 3
	}
	return 0
}

// wireResult is the last line a single-workload run prints: the form
// the driver of BENCHMARK.json reads.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints one line per metric, the wrong answers if any, and
// the JSON summary as the last line of standard output.
func printResult(res *result, stdout, stderr io.Writer) {
	wr := wireResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]wireMetric{}}
	for _, m := range res.Metrics {
		fmt.Fprintf(stdout, "%s %s %s %s\n", res.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		wr.Metrics[m.Name] = wireMetric{Value: m.Value, Unit: m.Unit}
	}
	fmt.Fprintf(stdout, "%s error_rate %s ratio\n", res.Workload,
		strconv.FormatFloat(ratio(float64(res.Failed), float64(res.Attempted)), 'g', -1, 64))
	fmt.Fprintf(stdout, "%s samples %d count\n", res.Workload, res.Attempted)
	if res.Trace {
		fmt.Fprintf(stdout, "%s probe_operations %d count\n", res.Workload, res.Probed)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", res.Workload, f)
	}
	buf, _ := json.Marshal(wr) // plain numbers, strings and bools: cannot fail
	fmt.Fprintf(stdout, "%s\n", buf)
}

// child runs one workload in its own process, so its peak memory and
// collector state are its own, and returns the JSON summary it printed.
func child(cfg config, workload string, trace int, stdout, stderr io.Writer) (*wireResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", fmt.Sprint(trace), "-clients", fmt.Sprint(cfg.clients),
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	outBuf, err := cmd.Output()
	lines := splitLines(outBuf)
	if len(lines) == 0 {
		return nil, fmt.Errorf("%s: no output (%v)", workload, err)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var wr wireResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &wr); jerr != nil {
		return nil, fmt.Errorf("%s: %v (%v)", workload, jerr, err)
	}
	return &wr, err
}

// splitLines returns the non-empty output lines of a run.
func splitLines(b []byte) []string {
	return strings.FieldsFunc(string(b), func(r rune) bool { return r == '\n' })
}
