package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// sweepLocal is the paper-reproduction path: what gathersim -sweep does,
// agg.Summarize of a sweep on a sim.Runner at parallelism nproc, with
// compilation inside the timed region and every graph shape new to the
// sequence memo. One operation is one sweep.
type sweepLocal struct {
	stamp int64                   // last graph stamp handed out
	seen  map[spec.GraphSpec]bool // shapes compiled so far in the process
}

func (w *sweepLocal) mainMetric() string { return "specs_per_s" }

const (
	// sweepRate is the nominal rate, sweeps per second.
	sweepRate = 10
	// sweepTemplates is how many distinct sweeps the fixture draws; runs
	// cycle through them, each pass under fresh graph stamps.
	sweepTemplates = 16
	// setupRepeats is how often a run sets its fixture up after one
	// untimed warm-up; setup_s is the median. A set-up takes about 15 ms,
	// in which a single GC cycle or page-fault burst shows, so it takes
	// many to give a median that holds from run to run.
	setupRepeats = 15
)

// newSweepFixture draws the run's sweep templates and passes each through
// its JSON sweep-definition form, as gathersim reads a sweep file.
func newSweepFixture(seed int64) ([][]spec.ScenarioSpec, error) {
	rng := newRNG(seed, streamSweep)
	out := make([][]spec.ScenarioSpec, sweepTemplates)
	for i := range out {
		specs, err := sweepTemplate(rng)
		if err != nil {
			return nil, err
		}
		buf, err := json.Marshal(spec.SweepDef{Explicit: specs})
		if err != nil {
			return nil, err
		}
		def, err := spec.ParseSweepDef(buf)
		if err != nil {
			return nil, err
		}
		if out[i], err = def.Specs(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepIter is one measured sweep, kept for the correctness check.
type sweepIter struct {
	tpl   int
	stamp int64
	canon []byte
}

// sweepTrace collects what a traced sweep measures besides its spans.
type sweepTrace struct {
	compileCold, compileWarm []float64 // µs
	runMS                    []float64
	runNS, stepped, rounds   []int64 // per spec, index-aligned
	steps                    []bool  // per spec: stepped every round
	observeNS                int64
	mergeUS, canonUS         []float64
	foldWall                 time.Duration
	compileWall              time.Duration
}

func (w *sweepLocal) run(e *env, budget time.Duration, tr *Tracer) (*phase, error) {
	p := newPhase()
	if w.seen == nil {
		w.seen = make(map[spec.GraphSpec]bool)
	}
	var setups []float64
	var tpls [][]spec.ScenarioSpec
	var runner *sim.Runner
	for i := 0; i <= setupRepeats; i++ {
		t := time.Now()
		var err error
		if tpls, err = newSweepFixture(e.seed); err != nil {
			return nil, err
		}
		runner = sim.NewRunner(sim.WithParallelism(runtime.NumCPU()))
		if i > 0 {
			setups = append(setups, time.Since(t).Seconds())
		}
	}

	var iters []sweepIter
	var walls []float64
	specsDone := 0
	var elapsed time.Duration
	var tc sweepTrace
	for n := ops(budget, sweepRate, 3); len(iters) < n; {
		tpl := len(iters) % len(tpls)
		w.stamp++
		specs := stampSweep(tpls[tpl], w.stamp)
		t0 := time.Now()
		var sum *agg.Summary
		var err error
		if tr == nil {
			sum, err = agg.Summarize(runner, specs)
		} else {
			sum, err = w.tracedSummarize(tr, &tc, runner, specs)
		}
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		var canon []byte
		us := timeUS(func() { canon, err = sum.CanonicalJSON() })
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tc.canonUS = append(tc.canonUS, us)
		}
		iters = append(iters, sweepIter{tpl: tpl, stamp: w.stamp, canon: canon})
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		specsDone += len(specs)
		elapsed += wall
	}
	rss := peakRSSMB()

	p.e2e["setup_s"] = medianOf(setups, "s")
	perSweep := make([]float64, len(walls))
	for i, ms := range walls {
		perSweep[i] = float64(len(tpls[iters[i].tpl])) / (ms / 1000)
	}
	p.e2e["specs_per_s"] = measured{Value: float64(specsDone) / elapsed.Seconds(), Unit: "1/s", Samples: perSweep,
		Note: fmt.Sprintf("%d specs in %d sweeps", specsDone, len(iters))}
	latencyMetrics(p, walls)
	p.e2e["peak_rss_mb"] = measured{Value: rss, Unit: "MB"}
	p.detail["sweeps"] = len(iters)
	p.detail["specs_per_sweep"] = len(tpls[0])

	if tr != nil {
		w.layerMetrics(p, &tc, tpls, elapsed)
		p.spans = tr.Spans()
	}
	w.verify(p, tpls, iters)
	return p, nil
}

// latencyMetrics sets p50_ms and tail_ms from per-operation latencies.
func latencyMetrics(p *phase, ms []float64) {
	p.e2e["p50_ms"] = medianOf(ms, "ms")
	p.e2e["tail_ms"] = tailOf(ms, "ms")
}

// tracedSummarize is agg.Summarize (spec.CompileAll, then
// agg.SummarizeScenarios' fold) taken apart so each call into a layer is
// a span: spec.compile per spec, sim.run and agg.observe per result inside
// the sim.FoldBatch pool, agg.merge per worker summary, under one
// gen.sweep root.
func (w *sweepLocal) tracedSummarize(tr *Tracer, tc *sweepTrace, runner *sim.Runner, specs []spec.ScenarioSpec) (*agg.Summary, error) {
	root := tr.NewID()
	t0 := time.Now()
	ids := make([]uint64, len(specs))
	scs := make([]sim.Scenario, len(specs))
	for i, sp := range specs {
		ids[i] = tr.NewID()
		t := time.Now()
		sc, err := sp.Compile()
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		scs[i] = sc
		tr.Add(ids[i], root, "spec.compile", t, end)
		us := float64(end.Sub(t).Nanoseconds()) / 1e3
		if w.seen[sp.Graph] {
			tc.compileWarm = append(tc.compileWarm, us)
		} else {
			w.seen[sp.Graph] = true
			tc.compileCold = append(tc.compileCold, us)
		}
	}
	tf := time.Now()
	tc.compileWall += tf.Sub(t0)
	runNS := make([]int64, len(specs))
	stepped := make([]int64, len(specs))
	rounds := make([]int64, len(specs))
	observe := make([]int64, len(specs))
	sum := sim.FoldBatch(runner, scs, agg.NewSummary, func(acc *agg.Summary, br sim.BatchResult) {
		end := time.Now()
		i := br.Index
		tr.Add(ids[i], root, "sim.run", end.Add(-br.Wall), end)
		t := time.Now()
		acc.Observe(agg.KeyOf(specs[i]), br.Result, br.Err, br.Wall)
		oe := time.Now()
		tr.Add(ids[i], root, "agg.observe", t, oe)
		runNS[i], observe[i] = br.Wall.Nanoseconds(), oe.Sub(t).Nanoseconds()
		if br.Result != nil {
			stepped[i], rounds[i] = int64(br.Result.SteppedRounds), int64(br.Result.Rounds)
		}
	}, func(dst, src *agg.Summary) { // FoldBatch merges on the caller's goroutine
		t := time.Now()
		dst.Merge(src)
		end := time.Now()
		tr.Add(root, root, "agg.merge", t, end)
		tc.mergeUS = append(tc.mergeUS, float64(end.Sub(t).Nanoseconds())/1e3)
	})
	end := time.Now()
	tc.foldWall += end.Sub(tf)
	tr.AddID(root, root, 0, "gen.sweep", t0, end)
	for i, sp := range specs {
		tc.runMS = append(tc.runMS, float64(runNS[i])/1e6)
		tc.observeNS += observe[i]
		tc.runNS = append(tc.runNS, runNS[i])
		tc.stepped = append(tc.stepped, stepped[i])
		tc.rounds = append(tc.rounds, rounds[i])
		tc.steps = append(tc.steps, everyRound(sp))
	}
	return sum, nil
}

// everyRound reports whether a spec's engine steps every round: the
// randomized walk moves each round, so nothing can be fast-forwarded.
func everyRound(sp spec.ScenarioSpec) bool {
	return len(sp.Agents) > 0 && sp.Agents[0].Algorithm.Name == "randomized"
}

// engineMetrics sets the sim layer's per-spec metrics from index-aligned
// per-spec run times and round counts.
func engineMetrics(p *phase, runMS []float64, runNS, stepped, rounds []int64, steps []bool) {
	p.layer["sim.run_ms_p50"] = medianOf(runMS, "ms")
	p.layer["sim.run_ms_p99"] = tailOf(runMS, "ms")
	var ns, st [2]int64 // [fast-forwarding, every-round]
	var allStepped, allRounds int64
	for i := range runNS {
		c := 0
		if steps[i] {
			c = 1
		}
		ns[c] += runNS[i]
		st[c] += stepped[i]
		allStepped += stepped[i]
		allRounds += rounds[i]
	}
	p.layer["sim.ns_per_stepped_round.ff"] = measured{Value: ratio(float64(ns[0]), float64(st[0])), Unit: "ns"}
	p.layer["sim.ns_per_stepped_round.step"] = measured{Value: ratio(float64(ns[1]), float64(st[1])), Unit: "ns"}
	p.layer["sim.stepped_ratio"] = measured{Value: ratio(float64(allStepped), float64(allRounds)), Unit: "ratio",
		Note: fmt.Sprintf("%d stepped of %d rounds", allStepped, allRounds)}
}

// allocMetrics runs specs one at a time and sets the engine's allocations
// per spec from runtime.MemStats deltas.
func allocMetrics(p *phase, specs []spec.ScenarioSpec) error {
	scs, err := spec.CompileAll(specs)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, sc := range scs {
		if _, err := sim.Run(sc); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(scs))
	p.layer["sim.allocs_per_spec"] = measured{Value: float64(after.Mallocs-before.Mallocs) / n, Unit: "count"}
	p.layer["sim.alloc_kb_per_spec"] = measured{Value: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n, Unit: "KB"}
	return nil
}

// specKeyMetric times service.SpecKey on each of the workload's specs.
func specKeyMetric(p *phase, specs []spec.ScenarioSpec) error {
	var us []float64
	for _, sp := range specs {
		t := time.Now()
		if _, err := service.SpecKey(sp); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	p.layer["service.speckey_us_p50"] = medianOf(us, "us")
	return nil
}

func (w *sweepLocal) layerMetrics(p *phase, tc *sweepTrace, tpls [][]spec.ScenarioSpec, elapsed time.Duration) {
	engineMetrics(p, tc.runMS, tc.runNS, tc.stepped, tc.rounds, tc.steps)
	var busy int64
	for _, ns := range tc.runNS {
		busy += ns
	}
	par := float64(runtime.NumCPU())
	p.layer["sim.pool_busy_share"] = measured{Value: ratio(float64(busy), float64(tc.foldWall.Nanoseconds())*par), Unit: "ratio"}
	p.layer["spec.compile_us_p50"] = medianOf(tc.compileWarm, "us")
	p.layer["spec.compile_cold_us_p50"] = medianOf(tc.compileCold, "us")
	hits, all := len(tc.compileWarm), len(tc.compileWarm)+len(tc.compileCold)
	p.layer["spec.memo_hit_ratio"] = measured{Value: ratio(float64(hits), float64(all)), Unit: "ratio",
		Note: fmt.Sprintf("%d of %d compiles found their shape compiled before", hits, all)}
	p.layer["spec.compile_share"] = measured{Value: ratio(float64(tc.compileWall.Nanoseconds()), float64(tc.compileWall.Nanoseconds()+busy)), Unit: "ratio"}
	p.layer["agg.fold_share"] = measured{Value: ratio(float64(tc.observeNS), float64(busy)), Unit: "ratio"}
	p.layer["agg.merge_us_p50"] = medianOf(tc.mergeUS, "us")
	p.layer["agg.canonical_us_p50"] = medianOf(tc.canonUS, "us")
	// Single-threaded costs on one more fresh sweep, outside the timed
	// region.
	w.stamp++
	specs := stampSweep(tpls[0], w.stamp)
	if err := allocMetrics(p, specs); err != nil {
		p.check(false)
	}
	if err := specKeyMetric(p, specs); err != nil {
		p.check(false)
	}
}

// verify recomputes every measured sweep outside the timed region as a
// parallelism-1 fold and checks its canonical summary byte for byte, and
// that every known-bound and gossip run gathered with one leader. The
// folds run concurrently, one per CPU, each on its own single-worker
// runner.
func (w *sweepLocal) verify(p *phase, tpls [][]spec.ScenarioSpec, iters []sweepIter) {
	type verdict struct{ ok, runs, bad int }
	out := make([]verdict, len(iters))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			one := sim.NewRunner(sim.WithParallelism(1))
			for i := range next {
				specs := stampSweep(tpls[iters[i].tpl], iters[i].stamp)
				scs, err := spec.CompileAll(specs)
				if err != nil {
					out[i] = verdict{runs: len(specs), bad: len(specs)}
					continue
				}
				v := verdict{runs: len(specs)}
				sum := sim.FoldBatch(one, scs, agg.NewSummary, func(acc *agg.Summary, br sim.BatchResult) {
					acc.Observe(agg.KeyOf(specs[br.Index]), br.Result, br.Err, br.Wall)
					if !runOK(specs[br.Index], br.Result, br.Err) {
						v.bad++
					}
				}, (*agg.Summary).Merge)
				canon, err := sum.CanonicalJSON()
				if err == nil && bytes.Equal(canon, iters[i].canon) {
					v.ok = 1
				}
				out[i] = v
			}
		}()
	}
	for i := range iters {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, v := range out {
		p.check(v.ok == 1)
		for r := 0; r < v.runs; r++ {
			p.check(r >= v.bad)
		}
	}
}

// runOK checks one run of the workload's algorithms: it must not fail,
// and a known-bound or gossip run must gather every agent in one round at
// one node with one leader, a member of the team.
func runOK(sp spec.ScenarioSpec, res *sim.RunResult, err error) bool {
	if err != nil || res == nil {
		return false
	}
	if everyRound(sp) {
		return true
	}
	leaders := res.Leaders()
	if !res.AllHaltedTogether() || len(leaders) != 1 {
		return false
	}
	for _, ag := range sp.Agents {
		if ag.Label == leaders[0] {
			return true
		}
	}
	return false
}
