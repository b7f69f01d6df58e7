package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the contract this harness is run
// and compared under: the measurement window, the workload and metric
// names, and the regression bound of each end-to-end metric.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent (the harness runs from benchmark/, the file sits at the root).
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		buf, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(buf, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %v", err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// sizes fixes how much data and work each workload gets. The full sizes
// are chosen so every workload completes well over 400 operations in
// the 15 s window on two cores; smoke sizes only prove the plumbing.
type sizes struct {
	confGroups, confNodes, confEdges int
	scanRows                         int
	kvRows, cfgRows                  int
	rwKeys                           int
	rwCheckpointBytes                int64
	warmup                           time.Duration
	probeOps                         int
	probeBudget                      time.Duration
	minOps                           int
}

var fullSizes = sizes{
	confGroups: 64, confNodes: 10, confEdges: 16,
	scanRows: 32000,
	kvRows:   10000, cfgRows: 256,
	rwKeys: 4096, rwCheckpointBytes: 64 << 10,
	warmup:   3 * time.Second,
	probeOps: 200, probeBudget: 4 * time.Second,
	minOps: 400,
}

var smokeSizes = sizes{
	confGroups: 8, confNodes: 8, confEdges: 10,
	scanRows: 4096,
	kvRows:   1000, cfgRows: 64,
	rwKeys: 256, rwCheckpointBytes: 4 << 10,
	warmup:   200 * time.Millisecond,
	probeOps: 10, probeBudget: time.Second,
	minOps: 10,
}
