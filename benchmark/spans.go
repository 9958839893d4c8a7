package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanKind names one boundary the benchmark times: a call from this
// package into a layer's public function, or the rep and case that
// contain such calls.
type spanKind int

const (
	spRep spanKind = iota
	spCase
	spBuild
	spRun
	spLoadRun
	spRunAsm
	spAssemble
	spRewrite
	spSchedule
	spSnapshot
	spInvariants
	spAnalyze
	numSpanKinds
)

var spanInfo = [numSpanKinds]struct{ name, layer string }{
	spRep:        {"rep", "benchmark"},
	spCase:       {"case", "benchmark"},
	spBuild:      {"core.Build", "core"},
	spRun:        {"workloads.Run", "sim"},
	spLoadRun:    {"load.Run", "load"},
	spRunAsm:     {"workloads.RunAsm", "isa"},
	spAssemble:   {"isa.Assemble", "isa"},
	spRewrite:    {"rewriter.Rewrite", "rewriter"},
	spSchedule:   {"load.BuildSchedule", "load"},
	spSnapshot:   {"SnapshotShared", "core"},
	spInvariants: {"CheckInvariants", "core"},
	spAnalyze:    {"analyze.Read", "trace"},
}

// span is one timed interval. Start and end are nanoseconds since the
// recorder was created; parent is an index into the recorder's spans, -1
// for a root.
type span struct {
	kind       spanKind
	label      string
	rep        int
	parent     int
	start, end time.Duration
}

// recorder keeps the spans of the current rep in memory. The timed reps
// reuse one slice, rep after rep, so recording allocates nothing once it
// has grown; the traced pass keeps its spans and writes them at exit.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
	rep    int
	// measureAlloc, set for the traced pass, accumulates in buildAlloc the
	// heap bytes allocated inside core.Build spans.
	measureAlloc bool
	allocMark    uint64
	buildAlloc   uint64
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// startRep drops the previous rep's spans and numbers the next one.
func (r *recorder) startRep(id int) {
	r.spans, r.open, r.rep = r.spans[:0], r.open[:0], id
}

func (r *recorder) begin(k spanKind, label string) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, len(r.spans))
	if r.measureAlloc && k == spBuild {
		r.allocMark = heapAllocBytes()
	}
	r.spans = append(r.spans, span{kind: k, label: label, rep: r.rep, parent: parent, start: time.Since(r.origin)})
}

func (r *recorder) end() {
	n := len(r.open) - 1
	s := &r.spans[r.open[n]]
	s.end = time.Since(r.origin)
	if r.measureAlloc && s.kind == spBuild {
		r.buildAlloc += heapAllocBytes() - r.allocMark
	}
	r.open = r.open[:n]
}

// seconds sums the durations of the current rep's spans of one kind.
func (r *recorder) seconds(k spanKind) float64 {
	var d time.Duration
	for i := range r.spans {
		if r.spans[i].kind == k {
			d += r.spans[i].end - r.spans[i].start
		}
	}
	return d.Seconds()
}

func (r *recorder) count(k spanKind) int {
	n := 0
	for i := range r.spans {
		if r.spans[i].kind == k {
			n++
		}
	}
	return n
}

// selfTimes returns each span's duration minus the part its children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		d := spans[i].end - spans[i].start
		self[i] += d
		if p := spans[i].parent; p >= 0 {
			self[p] -= d
		}
	}
	return self
}

// spanRecord is the JSONL form of a span.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Label   string `json:"label,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// writeSpans writes spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		rec := spanRecord{
			ID: i, Parent: s.parent, Rep: s.rep,
			Name: spanInfo[s.kind].name, Layer: spanInfo[s.kind].layer, Label: s.label,
			StartNS: int64(s.start), EndNS: int64(s.end), SelfNS: int64(self[i]),
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
