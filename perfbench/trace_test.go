package main

import (
	"testing"
	"time"
)

// TestSelfTimeOfNestedSpans checks the self-time arithmetic: a span's
// children cover their union once, a child reaching past its parent counts
// only inside it, and grandchildren come off their own parent only.
func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "gen.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sim.b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 1, Name: "spec.c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "agg.d", Start: 20, End: 30},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"gen":  100 - 50 - 10, // [10,60] and [90,100] covered
		"sim":  (30 - 10) + 30,
		"spec": 30,
		"agg":  10,
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("self time of %s = %d, want %d", l, got[l], ns)
		}
	}
	shares := selfShares(spans)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *Tracer
	if id := tr.Add(1, 0, "x.y", time.Now(), time.Now()); id != 0 || tr.Spans() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
	tr = NewTracer()
	root := tr.NewID()
	tr.Add(root, root, "sim.run", time.Now(), time.Now())
	tr.AddID(root, root, 0, "gen.op", time.Now(), time.Now())
	if s := tr.Spans(); len(s) != 2 || s[0].Parent != root || s[1].ID != root {
		t.Fatalf("spans = %+v", s)
	}
}
