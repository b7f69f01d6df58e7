package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

func smokeConfig(workload string, seed int64) config {
	return config{workload: workload, seed: seed, seconds: 1, clients: 1, smoke: true, sz: smokeSizes, outDir: "out"}
}

// generatedHash sets a workload up and fingerprints what it would send.
func generatedHash(t *testing.T, workload string, seed int64) uint64 {
	t.Helper()
	w := findWorkload(workload)
	e, err := setUp(smokeConfig(workload, seed), w)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := w.prepare(e); err != nil {
		t.Fatal(err)
	}
	return e.sqlHash()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := generatedHash(t, w.name, 7), generatedHash(t, w.name, 7), generatedHash(t, w.name, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated two different statement sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same statement sequence", w.name)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The expected values are statistics.quantiles(values, n=4) from Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{2, 4, 4, 5, 9, 11, 12}, 4, 5, 11},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSliceThroughput(t *testing.T) {
	// Slices of 1 s with 2, 4, 6, 8 and 100 correct completions: the
	// median slice has 6. Failed and late operations do not count.
	var s []sample
	for slice, n := range []int{2, 4, 6, 8, 100} {
		for i := 0; i < n; i++ {
			s = append(s, sample{done: seconds(float64(slice) + 0.5), ok: true})
		}
	}
	s = append(s, sample{done: seconds(2.5), ok: false}, sample{done: seconds(5.5), ok: true})
	if got := sliceThroughput(s, seconds(5), 5); !near(got, 6) {
		t.Errorf("sliceThroughput = %v, want 6", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", StartNs: 90, EndNs: 120, Parent: 0}, // reaches 20 past its parent
		{Name: "leaf", StartNs: 12, EndNs: 20, Parent: 1},
		{Name: "leaf", StartNs: 20, EndNs: 25, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"request": 100 - (50 + 10), // [10,60] merged, plus [90,100]
		"a":       30 - 13,
		"b":       30,
		"c":       30,
		"leaf":    13,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader("# comment\nmaybms_x 3\nmaybms_h_sum{endpoint=\"query\"} 0.25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["maybms_x"] != 3 || m[`maybms_h_sum{endpoint="query"}`] != 0.25 {
		t.Errorf("parsed %v", m)
	}
	if _, err := parseMetrics(strings.NewReader("maybms_x notanumber\n")); err == nil {
		t.Error("a malformed sample was accepted")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_ops_s", Better: "higher", Bound: 0.1}
	tight := &series{Q1: 9.9, Median: 10, Q3: 10.1}
	wide := &series{Q1: 8, Median: 10, Q3: 12}
	for _, c := range []struct {
		ms   metricSpec
		a    *series
		b    float64
		want string
	}{
		{lower, tight, 10.5, "ok"},
		{lower, tight, 11.5, "worse"},
		{lower, tight, 5, "ok"},
		{higher, tight, 9.5, "ok"},
		{higher, tight, 8.5, "worse"},
		{lower, wide, 20, "unresolved"},
	} {
		if got := verdict(c.ms, c.a, &series{Median: c.b}); got != c.want {
			t.Errorf("%s: A median %v, B median %v: %s, want %s", c.ms.Name, c.a.Median, c.b, got, c.want)
		}
	}
}

func TestSpecListsTheHarnessMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, listed []metricSpec, units [][2]string) {
		if len(listed) != len(units) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the harness reports %d", len(listed), kind, len(units))
			return
		}
		for i, ms := range listed {
			if ms.Name != units[i][0] || ms.Unit != units[i][1] {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, ms.Name, ms.Unit, units[i][0], units[i][1])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndUnits)
	same("per_layer", spec.PerLayer, perLayerUnits)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the harness %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs all five workloads in smoke mode, both passes, and
// checks that every metric BENCHMARK.json names is printed exactly once
// per workload with a finite value, as a line and in the JSON summary.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, listed := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.Name, "-smoke", "-clients", "1", "-trace", strconv.Itoa(trace)}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := splitLines(stdout.Bytes())
			seen := map[string]int{}
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 4 || f[0] != w.Name {
					t.Errorf("%s: malformed metric line %q", w.Name, l)
					continue
				}
				if v, err := strconv.ParseFloat(f[2], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s has value %q", w.Name, f[1], f[2])
				}
				seen[f[1]]++
			}
			var wr wireResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &wr); err != nil {
				t.Fatalf("%s: last line is not the JSON summary: %v", w.Name, err)
			}
			if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d: %s", w.Name, trace, wr.Correct, wr.Attempted, wr.Failed, stderr.String())
			}
			if len(wr.Metrics) != len(listed) {
				t.Errorf("%s trace %d: summary has %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(wr.Metrics), len(listed))
			}
			for _, ms := range listed {
				if seen[ms.Name] != 1 {
					t.Errorf("%s trace %d: %s printed %d times", w.Name, trace, ms.Name, seen[ms.Name])
				}
				if m, ok := wr.Metrics[ms.Name]; !ok || m.Unit != ms.Unit {
					t.Errorf("%s trace %d: summary lacks %s [%s]", w.Name, trace, ms.Name, ms.Unit)
				}
			}
		}
	}
}
