package main

import (
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

// Span is one timed interval of the benchmark's own work: run → workload →
// repetition → cell, and workload → probe. Spans of one run share a trace
// id; Parent is the id of the span that caused this one (0 for the root).
type Span struct {
	TraceID string `json:"trace_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Seconds is the span's duration.
func (s Span) Seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// recorder holds a process's spans in memory; they are written out once,
// when the benchmark ends. It is used from one goroutine (the engine
// delivers progress events on the caller's).
type recorder struct {
	spans []Span
}

// start opens a span under parent and returns its id.
func (r *recorder) start(name string, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, StartNS: wallNS()})
	return id
}

// end closes the span.
func (r *recorder) end(id int) { r.spans[id-1].EndNS = wallNS() }

// get returns a recorded span.
func (r *recorder) get(id int) Span { return r.spans[id-1] }

func wallNS() int64 { return clock.Walltime().UnixNano() }

// mergeSpans builds a run's trace from its child processes' spans: one root
// "run" span covering them all, every child's ids shifted past the previous
// child's and its root re-parented to the run span, and the run's trace id
// stamped on every span.
func mergeSpans(traceID string, children [][]Span) []Span {
	root := Span{TraceID: traceID, ID: 1, Name: "run"}
	out := []Span{root}
	for _, spans := range children {
		offset := len(out)
		for _, s := range spans {
			s.TraceID = traceID
			s.ID += offset
			if s.Parent == 0 {
				s.Parent = root.ID
			} else {
				s.Parent += offset
			}
			if out[0].StartNS == 0 || s.StartNS < out[0].StartNS {
				out[0].StartNS = s.StartNS
			}
			if s.EndNS > out[0].EndNS {
				out[0].EndNS = s.EndNS
			}
			out = append(out, s)
		}
	}
	return out
}

// newTraceID names a run: its start instant is unique enough on one box and
// sorts ledgers by time.
func newTraceID(start time.Time) string { return start.UTC().Format("20060102T150405.000000000Z") }
