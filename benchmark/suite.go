package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// envStamp records where and how a result file was measured; two files
// are comparable only when their stamps agree on machine and settings.
type envStamp struct {
	NProc             int     `json:"nproc"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	EngineParallelism int     `json:"engine_parallelism"`
	GoVersion         string  `json:"go_version"`
	GitCommit         string  `json:"git_commit"`
	Seed              int64   `json:"seed"`
	WindowSeconds     float64 `json:"window_seconds"`
	WarmupSeconds     float64 `json:"warmup_seconds"`
	Clients           int     `json:"clients"`
	Smoke             bool    `json:"smoke"`
	Repeat            int     `json:"repeat"`
	Time              string  `json:"time"`
}

// series is one metric over the suite's repeats.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

type workloadResult struct {
	EndToEnd map[string]*series `json:"end_to_end"`
	PerLayer map[string]*series `json:"per_layer"`
	// Samples is the operation count of each untraced window.
	Samples      []int   `json:"samples"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	ErrorRate    float64 `json:"error_rate"`
	Undersampled bool    `json:"undersampled"`
}

type resultsFile struct {
	Env       envStamp                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func addValue(m map[string]*series, name string, v wireMetric) {
	s := m[name]
	if s == nil {
		s = &series{Unit: v.Unit}
		m[name] = s
	}
	s.Values = append(s.Values, v.Value)
	s.Q1, s.Median, s.Q3 = quartiles(s.Values)
}

// suite runs every workload of BENCHMARK.json, each pass in its own
// process, repeat times over, and writes the collected results.
func suite(spec *benchSpec, cfg config, repeat int, outPath string, stdout, stderr io.Writer) int {
	if repeat < 1 {
		repeat = 1
	}
	file := resultsFile{
		Env: envStamp{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			// `maybms serve` leaves the engine at its default degree.
			EngineParallelism: runtime.GOMAXPROCS(0),
			GoVersion:         runtime.Version(), GitCommit: gitCommit(),
			Seed: cfg.seed, WindowSeconds: cfg.seconds, WarmupSeconds: cfg.sz.warmup.Seconds(),
			Clients: cfg.clients, Smoke: cfg.smoke, Repeat: repeat,
			Time: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadResult{},
	}
	code := 0
	for r := 0; r < repeat; r++ {
		for _, w := range spec.Workloads {
			wr := file.Workloads[w.Name]
			if wr == nil {
				wr = &workloadResult{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
				file.Workloads[w.Name] = wr
			}
			for trace, into := range []map[string]*series{wr.EndToEnd, wr.PerLayer} {
				res, err := child(cfg, w.Name, trace, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s (trace %d): %v\n", w.Name, trace, err)
					code = 1
				}
				if res == nil {
					continue
				}
				for name, v := range res.Metrics {
					addValue(into, name, v)
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				if trace == 0 {
					wr.Samples = append(wr.Samples, res.Attempted)
				}
				if !res.Correct {
					code = 1
				}
			}
			wr.ErrorRate = ratio(float64(wr.Failed), float64(wr.Attempted))
			for _, n := range wr.Samples {
				if n < cfg.sz.minOps {
					wr.Undersampled = true
					code = 1
				}
			}
		}
	}
	buf, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(outPath), 0o755); err == nil {
			err = os.WriteFile(outPath, append(buf, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	return code
}

func readResults(path string) (*resultsFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// verdict decides one workload × metric pairing: `unresolved` when A's
// own quartile spread is wider than the bound, `worse` when B's median
// is worse than A's by more than the bound, else `ok`.
func verdict(ms metricSpec, a, b *series) string {
	if a.Median == 0 {
		return "unresolved"
	}
	if (a.Q3-a.Q1)/a.Median > ms.Bound {
		return "unresolved"
	}
	r := b.Median / a.Median
	if ms.Better == "higher" && r < 1-ms.Bound || ms.Better != "higher" && r > 1+ms.Bound {
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per workload × end-to-end metric: both
// medians, their ratio (base: A), the bound, and the verdict. The exit
// code is 1 when any row is worse or B answered wrongly more often.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return compareResults(spec, a, b, stdout)
}

func compareResults(spec *benchSpec, a, b *resultsFile, stdout io.Writer) int {
	if a.Env.NProc != b.Env.NProc || a.Env.WindowSeconds != b.Env.WindowSeconds || a.Env.Clients != b.Env.Clients || a.Env.Smoke != b.Env.Smoke {
		fmt.Fprintf(stdout, "warning: the two files were measured under different settings (nproc %d/%d, window %gs/%gs, clients %d/%d)\n",
			a.Env.NProc, b.Env.NProc, a.Env.WindowSeconds, b.Env.WindowSeconds, a.Env.Clients, b.Env.Clients)
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-18s %12s %12s %10s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(stdout, "%-12s missing from one file\n", w.Name)
			code = 1
			continue
		}
		for _, ms := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[ms.Name], wb.EndToEnd[ms.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(stdout, "%-12s %-18s missing from one file\n", w.Name, ms.Name)
				code = 1
				continue
			}
			v := verdict(ms, sa, sb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-18s %12.4f %12.4f %9.3fx %5.0f%%  %s\n",
				w.Name, ms.Name, sa.Median, sb.Median, ratio(sb.Median, sa.Median), 100*ms.Bound, v)
		}
		v := "ok"
		if wb.ErrorRate > wa.ErrorRate {
			v, code = "worse", 1
		}
		fmt.Fprintf(stdout, "%-12s %-18s %12.4g %12.4g %10s %6s  %s\n", w.Name, "error_rate", wa.ErrorRate, wb.ErrorRate, "", "any", v)
	}
	return code
}
