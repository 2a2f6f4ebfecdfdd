package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Runner executes scenarios with shared defaults, sequentially via Run or as
// a parallel batch via RunBatch. Construct it with NewRunner and functional
// options; the zero Runner is valid and equivalent to plain Run with
// GOMAXPROCS-wide batches.
type Runner struct {
	maxRounds   int
	onRound     func(RoundView)
	parallelism int
}

// Option configures a Runner.
type Option func(*Runner)

// WithMaxRounds sets the default round budget applied to every scenario that
// does not set its own MaxRounds.
func WithMaxRounds(n int) Option {
	return func(r *Runner) { r.maxRounds = n }
}

// WithOnRound sets a default per-round hook applied to every scenario that
// does not set its own OnRound. The hook forces per-round stepping (see
// Scenario.OnRound). With parallelism > 1 it is invoked concurrently from
// different scenarios, so a stateful hook must either synchronize or be set
// per scenario instead.
func WithOnRound(f func(RoundView)) Option {
	return func(r *Runner) { r.onRound = f }
}

// WithParallelism sets the number of scenarios RunBatch and FoldBatch
// execute concurrently. Values < 1 select GOMAXPROCS. Parallelism never affects
// results: scenarios are independent and each run is deterministic.
func WithParallelism(p int) Option {
	return func(r *Runner) { r.parallelism = p }
}

// NewRunner returns a Runner with the given options applied.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{}
	for _, o := range opts {
		o(r)
	}
	return r
}

// apply fills the runner's defaults into a scenario.
func (r *Runner) apply(sc Scenario) Scenario {
	if sc.MaxRounds == 0 && r.maxRounds != 0 {
		sc.MaxRounds = r.maxRounds
	}
	if sc.OnRound == nil && r.onRound != nil {
		sc.OnRound = r.onRound
	}
	return sc
}

// Run executes one scenario under the runner's defaults.
func (r *Runner) Run(sc Scenario) (*RunResult, error) {
	return Run(r.apply(sc))
}

// BatchResult is the outcome of one scenario of a batch, in input order.
type BatchResult struct {
	Index  int
	Result *RunResult
	Err    error

	// Wall is the measured wall time of this scenario's run. Unlike every
	// other field it is not deterministic; internal/agg keeps it out of the
	// canonical summary encoding for that reason.
	Wall time.Duration
}

// runTimed executes one scenario and measures its wall time.
func (r *Runner) runTimed(i int, sc Scenario) BatchResult {
	//lint:allow detrand Wall is reporting-only: agg excludes it from canonical encodings (DESIGN.md §9)
	start := time.Now()
	res, err := r.Run(sc)
	//lint:allow detrand same wall-time measurement as above; never hashed or merged canonically
	return BatchResult{Index: i, Result: res, Err: err, Wall: time.Since(start)}
}

// Workers resolves a parallelism setting for n independent tasks: p < 1
// selects GOMAXPROCS, and the result never exceeds n.
func Workers(n, p int) int {
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	return min(p, n)
}

// ForEach calls do(w, i) exactly once for every index i in [0, n), on at
// most workers goroutines, and returns once every call has returned. The
// worker id w lies in [0, max(workers, 1)) and is never used by two calls
// at once, so callers keep per-worker state in a slice without a lock.
// Indices are handed out in increasing order as workers free up; with
// workers <= 1 every call runs inline on the calling goroutine. This is the
// one bounded index pool of the module: RunBatch, FoldBatch and the
// service's job executor are thin adapters over it.
func ForEach(n, workers int, do func(w, i int)) {
	workers = min(workers, n)
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			do(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// RunBatch executes all scenarios on a worker pool and returns one result
// per scenario, in input order. Each scenario runs to completion
// independently; an error in one does not stop the others.
func (r *Runner) RunBatch(scs []Scenario) []BatchResult {
	out := make([]BatchResult, len(scs))
	ForEach(len(scs), Workers(len(scs), r.parallelism), func(_, i int) {
		out[i] = r.runTimed(i, scs[i])
	})
	return out
}

// RunBatch executes scenarios on a worker pool with the given options; see
// Runner.RunBatch.
func RunBatch(scs []Scenario, opts ...Option) []BatchResult {
	return NewRunner(opts...).RunBatch(scs)
}

// FoldBatch executes all scenarios on r's worker pool and folds every result
// into an accumulator WITHOUT ever materializing the result set: each worker
// folds the runs it executes into its own accumulator (newA, fold), and the
// per-worker accumulators are merged left-to-right in worker order (merge)
// once all runs complete. One million-scenario sweep therefore costs O(p)
// accumulators of memory, not O(n) results — the fold-as-you-stream path
// internal/agg builds its streaming summaries on.
//
// Workers fold results in completion order, so fold and merge must be
// commutative and associative for the outcome to be independent of
// scheduling. Every agg reducer satisfies this (integer adds, min/max,
// histogram-bucket adds), which is what makes a summary bit-identical
// across parallelism degrees.
func FoldBatch[A any](r *Runner, scs []Scenario, newA func() A, fold func(A, BatchResult), merge func(dst, src A)) A {
	p := Workers(len(scs), r.parallelism)
	accs := make([]A, max(p, 1))
	for w := range accs {
		accs[w] = newA()
	}
	ForEach(len(scs), p, func(w, i int) {
		fold(accs[w], r.runTimed(i, scs[i]))
	})
	for _, acc := range accs[1:] {
		merge(accs[0], acc)
	}
	return accs[0]
}
