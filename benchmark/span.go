package main

import (
	"sort"
	"time"

	"maybms/internal/exec/trace"
)

// span is one timed call into a layer during the traced probe. Spans of
// one operation share OpID; Parent is the index of the enclosing span in
// the recorder (-1 for the root `request`).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	// Ops is the engine's own per-operator tree of the statement the
	// span executed (source B), attached to exec.pipeline spans.
	Ops *trace.OpSnap `json:"ops,omitempty"`
}

// recorder keeps the probe's spans in memory; they are written out once,
// when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, which is also the parent
// handle for its children.
func (r *recorder) begin(name string, parent, opID int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, OpID: opID, StartNs: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].EndNs = time.Since(r.t0).Nanoseconds() }

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part of its interval that its direct
// children cover. Overlapping children are merged before subtracting, so
// an interval two children share is taken off once, and a child reaching
// outside its parent only counts for the part inside.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += (s.EndNs - s.StartNs) - covered(kids[i], s.StartNs, s.EndNs)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// opClass maps an engine operator name to the exec.* metric it feeds;
// "" for operators that are not reported on their own (projections,
// renames, limits and the optimizer's order-restoring helpers).
func opClass(op string) string {
	switch op {
	case "Scan":
		return "scan"
	case "Filter":
		return "filter"
	case "HashJoin", "Product", "SemiJoinIn":
		return "join"
	case "Aggregate", "Distinct", "Possible":
		return "agg"
	case "Sort":
		return "sort"
	}
	return ""
}

// opSelf adds each operator's self time (its inclusive time minus its
// children's, floored at zero) to byClass, and returns the rows the
// tree's scans emitted.
func opSelf(o trace.OpSnap, byClass map[string]int64) (scanRows int64) {
	self := o.TimeNanos + o.CloseNanos
	for _, c := range o.Children {
		self -= c.TimeNanos + c.CloseNanos
		scanRows += opSelf(c, byClass)
	}
	if self < 0 {
		self = 0
	}
	if cl := opClass(o.Op); cl != "" {
		byClass[cl] += self
	}
	if o.Op == "Scan" {
		scanRows += o.Rows
	}
	return scanRows
}
