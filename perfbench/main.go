// Command perfbench is the repository's benchmark: it runs one seeded
// workload against the public functions of the engine, spec, agg,
// service, sched, cluster and journal layers, checks every output for
// correctness, and prints every end-to-end metric with its unit. A traced
// run records a span around each call into a layer and prints the
// per-layer metrics instead, with the tracing overhead. See README.md for
// the workloads and the layer → end-to-end map.
//
// Usage (from the repository root, through the build script):
//
//	bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full record — host, seed and
// per-metric samples — is written under the output directory, with the
// spans of a traced run beside it. The command exits 1 when any output is
// wrong, after printing its result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// env is what a workload run is given: the seed that makes its inputs and
// a scratch directory it owns.
type env struct {
	seed int64
	tmp  string
}

// measured is one metric of a run, with the samples it was computed from
// when it is a statistic of many.
type measured struct {
	Value   float64
	Unit    string
	Samples []float64
	Note    string
}

// phase is the outcome of one timed stretch of a workload.
type phase struct {
	attempted, failed int
	e2e               map[string]measured
	layer             map[string]measured
	spans             []Span
	detail            map[string]any
}

func newPhase() *phase {
	return &phase{e2e: map[string]measured{}, layer: map[string]measured{}, detail: map[string]any{}}
}

// check counts one checked operation, failed unless ok.
func (p *phase) check(ok bool) {
	p.attempted++
	if !ok {
		p.failed++
	}
}

// workload is one of the benchmark's seeded workloads. run measures one
// stretch of budget's worth of work; tr is nil for an untraced stretch. A
// workload value keeps state across the untraced and traced stretches of
// one process, so the second draws fresh inputs.
//
// The work of a stretch is fixed by its budget at the workload's nominal
// rate (operations per second on a 2-core Xeon host), not by a deadline:
// every run of a given length measures the same operations, so counts,
// memory and latencies compare like for like across runs and commits, and
// a faster program finishes sooner instead of doing more.
type workload interface {
	run(e *env, budget time.Duration, tr *Tracer) (*phase, error)
	// mainMetric names the end-to-end metric whose traced/untraced ratio
	// is the tracing overhead.
	mainMetric() string
}

var workloads = map[string]func() workload{
	"sweep-local":   func() workload { return &sweepLocal{} },
	"serve-mixed":   func() workload { return &serveMixed{} },
	"fleet-journal": func() workload { return &fleetJournal{} },
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: sweep-local, serve-mixed or fleet-journal")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Float64("seconds", 10, "how long the run measures, as work at the workloads' nominal rates")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		tmp     = flag.String("tmp", ".bench_build/tmp", "scratch directory (journals); removed per run")
		out     = flag.String("out", ".bench_out", "directory for result records and spans")
		compare = flag.Bool("compare", false, "compare two result files (arguments) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes two result files")
			return 2
		}
		if err := runCompare(os.Stdout, def, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have sweep-local, serve-mixed, fleet-journal)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(mustDir(*tmp), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	steal0, total0 := cpuTicks()
	rec, err := measure(mk(), &env{seed: *seed, tmp: dir}, *name, time.Duration(*seconds*float64(time.Second)), *trace == 1, def)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal1, total1 := cpuTicks()
	rec.StealShare = ratio(float64(steal1-steal0), float64(total1-total0))
	if err := rec.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec.print(os.Stdout)
	if !rec.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checked operations failed\n", rec.Failed, rec.Attempted)
		return 1
	}
	return 0
}

// ops returns how many operations budget is worth at rate per second,
// and at least least.
func ops(budget time.Duration, rate float64, least int) int {
	return max(least, int(budget.Seconds()*rate+0.5))
}

// mustDir creates dir if needed and returns it; MkdirTemp reports the
// error when it cannot.
func mustDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// measure runs a workload and assembles its record. Untraced, one stretch
// of the whole budget gives the end-to-end metrics. Traced, an untraced
// half and a traced half run back to back; the traced half gives the
// per-layer metrics, and the ratio of the two halves' main metric is the
// tracing overhead.
func measure(w workload, e *env, name string, budget time.Duration, traced bool, def *definition) (*record, error) {
	rec := newRecord(name, e.seed, budget, traced)
	if !traced {
		p, err := w.run(e, budget, nil)
		if err != nil {
			return nil, err
		}
		rec.absorb(p, p.e2e)
		return rec, rec.complete(def.EndToEnd, false)
	}
	plain, err := w.run(e, budget/2, nil)
	if err != nil {
		return nil, err
	}
	tr := NewTracer()
	p, err := w.run(e, budget/2, tr)
	if err != nil {
		return nil, err
	}
	m := w.mainMetric()
	a, b := plain.e2e[m], p.e2e[m]
	over := ratio(b.Value, a.Value)
	if def.better(m) == "higher" {
		over = ratio(a.Value, b.Value)
	}
	p.layer["obs.trace_overhead"] = measured{Value: over, Unit: "ratio",
		Note: fmt.Sprintf("%s traced %.6g / untraced %.6g", m, b.Value, a.Value)}
	for l, v := range selfShares(p.spans) {
		p.layer[l+".self_share"] = measured{Value: v, Unit: "ratio"}
	}
	rec.absorb(plain, nil)
	rec.absorb(p, p.layer)
	rec.Detail["untraced"] = plain.detail
	rec.Detail["self_time_ms"] = selfMillis(p.spans)
	rec.spans = p.spans
	return rec, rec.complete(def.PerLayer, true)
}

// selfMillis returns each layer's summed self time in milliseconds.
func selfMillis(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for l, ns := range selfTimes(spans) {
		out[l] = float64(ns) / 1e6
	}
	return out
}

// selfShares returns each layer's share of the summed self time of all
// spans — where the traced operations' time went, layer by layer. The
// shares sum to 1 even where spans overlap (parallel runs, concurrent
// chunks).
func selfShares(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	var total int64
	for _, ns := range self {
		total += ns
	}
	out := map[string]float64{}
	for l, ns := range self {
		out[l] = ratio(float64(ns), float64(total))
	}
	return out
}

// definition is the part of BENCHMARK.json the command reads: the metric
// names, units, directions and bounds.
type definition struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDefinition(path string) (*definition, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d definition
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics defined", path)
	}
	return &d, nil
}

func (d *definition) better(name string) string {
	for _, m := range append(append([]metricDef(nil), d.EndToEnd...), d.PerLayer...) {
		if m.Name == name {
			return m.Better
		}
	}
	return "lower"
}

// complete checks that the record carries exactly the defined metrics,
// each in its defined unit. With zeroMissing, a metric no layer measured
// on this workload — a layer the workload never calls — is reported as 0.
func (r *record) complete(defs []metricDef, zeroMissing bool) error {
	want := map[string]bool{}
	var missing []string
	for _, d := range defs {
		want[d.Name] = true
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok && zeroMissing:
			r.Metrics[d.Name] = recMetric{Value: 0, Unit: d.Unit, Note: "this layer does no work on this workload"}
		case !ok:
			missing = append(missing, d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s measured in %s, defined in %s", d.Name, m.Unit, d.Unit)
		}
	}
	for n := range r.Metrics {
		if !want[n] {
			delete(r.Metrics, n)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}
