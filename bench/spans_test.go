package main

import "testing"

func TestRecorderParents(t *testing.T) {
	r := &recorder{}
	root := r.start("workload:w", 0)
	rep := r.start("repetition:traced", root)
	cell := r.start("cell:s/c", rep)
	r.end(cell)
	r.end(rep)
	probe := r.start("probe:p", root)
	r.end(probe)
	r.end(root)

	if got := r.get(cell); got.Parent != rep || got.Name != "cell:s/c" {
		t.Errorf("cell span = %+v, want parent %d", got, rep)
	}
	if got := r.get(probe).Parent; got != root {
		t.Errorf("probe parent = %d, want %d", got, root)
	}
	for _, s := range r.spans {
		if s.EndNS < s.StartNS || s.Seconds() < 0 {
			t.Errorf("span %q ends before it starts: %+v", s.Name, s)
		}
	}
}

func TestMergeSpansOneTraceResolvableParents(t *testing.T) {
	child := func(name string) []Span {
		r := &recorder{}
		root := r.start("workload:"+name, 0)
		r.end(r.start("cell:"+name, root))
		r.end(root)
		return r.spans
	}
	merged := mergeSpans("run-1", [][]Span{child("a"), nil, child("b")})
	if len(merged) != 5 {
		t.Fatalf("merged %d spans, want run + 2x2", len(merged))
	}
	byID := map[int]Span{}
	for _, s := range merged {
		if s.TraceID != "run-1" {
			t.Errorf("span %q carries trace id %q", s.Name, s.TraceID)
		}
		if _, dup := byID[s.ID]; dup {
			t.Errorf("duplicate span id %d", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range merged {
		if s.Name == "run" {
			if s.Parent != 0 {
				t.Errorf("run span has parent %d", s.Parent)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %q: parent %d does not resolve", s.Name, s.Parent)
		}
		if s.Name == "cell:b" && p.Name != "workload:b" {
			t.Errorf("cell:b is under %q", p.Name)
		}
		if s.Name == "workload:b" && p.Name != "run" {
			t.Errorf("workload:b is under %q", p.Name)
		}
	}
	if run := merged[0]; run.StartNS > merged[1].StartNS || run.EndNS < merged[len(merged)-1].EndNS {
		t.Errorf("run span %+v does not cover its children", run)
	}
}
