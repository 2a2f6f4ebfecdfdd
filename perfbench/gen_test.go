package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"nochatter/internal/service"
	"nochatter/internal/spec"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// draws returns everything the generators make from one seed.
func draws(t *testing.T, seed int64) map[string]string {
	t.Helper()
	out := map[string]string{}
	tpl, err := sweepTemplate(newRNG(seed, streamSweep))
	if err != nil {
		t.Fatal(err)
	}
	out["sweep"] = mustJSON(t, stampSweep(tpl, 3))
	cat, err := catalogue(seed, catalogueSize)
	if err != nil {
		t.Fatal(err)
	}
	out["catalogue"] = mustJSON(t, cat)
	var misses []spec.ScenarioSpec
	g := newMissGen(seed)
	for i := 0; i < 50; i++ {
		sp, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		misses = append(misses, sp)
	}
	out["misses"] = mustJSON(t, misses)
	out["plan"] = mustJSON(t, planRequests(newRNG(seed, streamPlan), 500, catalogueSize, missEvery))
	fleet, err := newFleetGen(seed).sweep(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	out["fleet"] = mustJSON(t, fleet)
	return out
}

// TestGeneratorsAreSeeded checks that one seed always draws the same
// inputs and another seed draws different ones.
func TestGeneratorsAreSeeded(t *testing.T) {
	a, b, c := draws(t, 7), draws(t, 7), draws(t, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different inputs")
	}
	for k := range a {
		if a[k] == c[k] {
			t.Errorf("seeds 7 and 8 drew identical %s", k)
		}
	}
}

func keys(t *testing.T, specs []spec.ScenarioSpec) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, sp := range specs {
		k, err := service.SpecKey(sp)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = true
	}
	return out
}

// TestMissesShareNothingWithCatalogues checks that miss specs are fresh:
// distinct from each other and from the catalogue of their own seed and
// of another seed, by content key.
func TestMissesShareNothingWithCatalogues(t *testing.T) {
	var misses []spec.ScenarioSpec
	g := newMissGen(2)
	for i := 0; i < 500; i++ {
		sp, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		misses = append(misses, sp)
	}
	mk := keys(t, misses)
	if len(mk) != len(misses) {
		t.Fatalf("%d misses have only %d distinct keys", len(misses), len(mk))
	}
	for _, seed := range []int64{1, 2} {
		cat, err := catalogue(seed, catalogueSize)
		if err != nil {
			t.Fatal(err)
		}
		ck := keys(t, cat)
		if len(ck) != catalogueSize {
			t.Fatalf("catalogue of seed %d has %d distinct keys, want %d", seed, len(ck), catalogueSize)
		}
		for k := range ck {
			if mk[k] {
				t.Fatalf("a miss of seed 2 shares a key with the catalogue of seed %d", seed)
			}
		}
	}
}

func TestPlanMissShare(t *testing.T) {
	plan := planRequests(newRNG(1, streamPlan), 20000, catalogueSize, missEvery)
	for i, rq := range plan {
		if miss := i%missEvery == missEvery-1; miss != (rq.Hot < 0) {
			t.Fatalf("request %d: miss %v, want every %dth a miss", i, rq.Hot < 0, missEvery)
		}
		if rq.Hot >= catalogueSize {
			t.Fatalf("catalogue index %d out of range", rq.Hot)
		}
	}
}

// TestOpenLoopCountsStallsAgainstLaterRequests checks open-loop timing: a
// request stalled on the only connection makes the requests due behind it
// go out late, their lateness is reported, and their latency counts from
// when they were due.
func TestOpenLoopCountsStallsAgainstLaterRequests(t *testing.T) {
	const interval = 20 * time.Millisecond
	const stall = 150 * time.Millisecond
	samples, _ := openLoop(6, 1, interval, func(i int) error {
		if i == 1 {
			time.Sleep(stall)
		}
		return nil
	})
	if late := samples[0].Late(); late > 15*time.Millisecond {
		t.Errorf("request 0 went out %v late on an idle loop", late)
	}
	// Request 2 was due at 40ms but the connection was busy until ~170ms.
	if late := samples[2].Late(); late < stall-2*interval-10*time.Millisecond {
		t.Errorf("request 2 behind the stall reported only %v late", late)
	}
	for i, s := range samples {
		if s.Due != time.Duration(i)*interval {
			t.Errorf("request %d due at %v, want %v", i, s.Due, time.Duration(i)*interval)
		}
		if s.Latency() < s.Late() || s.Latency() != s.End-s.Due {
			t.Errorf("request %d latency %v not measured from its due time", i, s.Latency())
		}
	}
	// The schedule does not move: the last request is still due at 5
	// intervals, so it too is counted late.
	if samples[5].Late() <= 0 {
		t.Errorf("request 5 was not late after the stall: %+v", samples[5])
	}
}
