package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/cluster"
	"nochatter/internal/journal"
	"nochatter/internal/obs"
	"nochatter/internal/sched"
	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// fleetJournal is what gatherd -workers a,b -journal dir deploys, in one
// process over loopback HTTP: a coordinator service distributing
// summary-only sweeps to two worker services of parallelism 1, with its
// chunks journaled. A sequence of seed-distinct sweeps goes through
// POST /v1/sweeps?summary=only and GET /v1/jobs/{id}/summary; then the
// coordinator restarts from its journal several times, each time
// resubmitting one journaled sweep that must resolve entirely from
// journaled chunks. One operation is one sweep.
type fleetJournal struct {
	gen   *fleetGen
	sweep int // sweeps drawn so far
	dirs  int // journal directories made so far
}

func (w *fleetJournal) mainMetric() string { return "p50_ms" }

const (
	fleetWorkers    = 2
	fleetSweepSpecs = 240
	fleetSetups     = 5
	// fleetFixture is how many sweeps each set-up draws; a run that
	// outlasts its fixtures draws more outside the timed region.
	fleetFixture  = 16
	fleetRestarts = 5
	// fleetRate is the nominal rate, sweeps per second.
	fleetRate = 5
)

// fleet is one running deployment.
type fleet struct {
	workers []*service.Service
	wbases  []string
	wstops  []func()

	dir    string
	jnl    *journal.Journal
	coord  *cluster.Coordinator
	csvc   *service.Service
	cbase  string
	cstop  func()
	client *http.Client
	// openDur is how long the last journal.Open took.
	openDur time.Duration

	ft *fleetTrace // nil when untraced
}

// fleetTrace is the traced stretch's instrumentation: a timing
// RoundTripper per worker client, a ChunkStore wrapper around the journal,
// and an executor wrapper on each worker service.
type fleetTrace struct {
	tr  *Tracer
	cur atomic.Uint64 // the running sweep's root span

	mu        sync.Mutex
	chunk     []*chunkSpan // per worker: the chunk in flight
	chunkMS   []float64
	submitUS  []float64
	waitMS    []float64
	chunkByte []float64
	busy      []int64 // per worker: executor time, ns
	putChunk  []float64
	putPlan   []float64
	getChunk  []float64
	canons    [][]byte // the running sweep's journaled chunk summaries
	exec      serveTrace
}

type chunkSpan struct {
	trace, id uint64
	start     time.Time
	bytes     int64
}

func (w *fleetJournal) run(e *env, budget time.Duration, tr *Tracer) (*phase, error) {
	p := newPhase()
	if w.gen == nil {
		w.gen = newFleetGen(e.seed)
	}
	var ft *fleetTrace
	if tr != nil {
		ft = &fleetTrace{tr: tr, chunk: make([]*chunkSpan, fleetWorkers), busy: make([]int64, fleetWorkers),
			exec: serveTrace{links: map[string][2]uint64{}, seen: map[spec.GraphSpec]bool{}}}
	}
	// Set-up: draw sweep fixtures, open a journal, start the fleet.
	var setups []float64
	var f *fleet
	var fixture []fleetSweep
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			p.check(f.close() == nil)
		}
		t := time.Now()
		fx, err := w.draw(fleetFixture)
		if err != nil {
			return nil, err
		}
		fixture = append(fixture, fx...)
		w.dirs++
		if f, err = startFleet(filepath.Join(e.tmp, fmt.Sprintf("journal-%d", w.dirs)), ft); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	p, err := w.measure(p, f, fixture, budget, tr, ft, setups)
	return p, errors.Join(err, f.close())
}

// measure runs the sweeps and the restarts on a started fleet.
func (w *fleetJournal) measure(p *phase, f *fleet, fixture []fleetSweep, budget time.Duration, tr *Tracer, ft *fleetTrace, setups []float64) (*phase, error) {
	type done struct {
		specs []spec.ScenarioSpec
		canon []byte
	}
	var sweeps []done
	var walls, planUS, mergeUS, canonUS []float64
	specsDone := 0
	var elapsed time.Duration
	for i, n := 0, ops(budget, fleetRate, fleetRestarts); i < n; i++ {
		if len(fixture) == 0 {
			var err error
			if fixture, err = w.draw(fleetFixture); err != nil {
				return nil, err
			}
		}
		specs, body := fixture[0].specs, fixture[0].body
		fixture = fixture[1:]
		var root uint64
		if ft != nil {
			root = tr.NewID()
			ft.cur.Store(root)
			ft.mu.Lock()
			ft.canons = nil
			ft.mu.Unlock()
		}
		t0 := time.Now()
		canon, err := f.summarize(body)
		end := time.Now()
		p.check(err == nil)
		if err != nil {
			continue
		}
		if ft != nil {
			tr.AddID(root, root, 0, "gen.sweep", t0, end)
			planUS = append(planUS, timeUS(func() { sched.Planner{}.PlanSpecs(specs, fleetWorkers) }))
			m, c := ft.mergeChunks()
			mergeUS, canonUS = append(mergeUS, m...), append(canonUS, c)
		}
		sweeps = append(sweeps, done{specs: specs, canon: canon})
		walls = append(walls, float64(end.Sub(t0))/float64(time.Millisecond))
		specsDone += len(specs)
		elapsed += end.Sub(t0)
	}
	rss := peakRSSMB()
	stats := f.coord.Stats()
	records := f.jnl.Records()
	syncStart := time.Now()
	if err := f.jnl.Sync(); err != nil {
		return nil, err
	}
	syncMS := float64(time.Since(syncStart).Nanoseconds()) / 1e6
	jobWall := &obs.Histogram{}
	for _, ws := range f.workers {
		jobWall.Merge(ws.Registry().Histogram("job_wall_ms"))
	}

	if len(sweeps) == 0 {
		return nil, fmt.Errorf("fleet-journal: every sweep failed")
	}
	// Restarts: each resubmits a journaled sweep, spread over the run.
	var resumeMS, openMS []float64
	for r := 0; r < fleetRestarts; r++ {
		d := sweeps[r*len(sweeps)/fleetRestarts]
		body, err := json.Marshal(spec.SweepDef{Explicit: d.specs})
		if err != nil {
			return nil, err
		}
		p.check(f.stopCoordinator() == nil)
		var root uint64
		if ft != nil {
			root = tr.NewID()
			ft.cur.Store(root)
		}
		t0 := time.Now()
		if err := f.startCoordinator(); err != nil {
			return nil, err
		}
		canon, err := f.summarize(body)
		end := time.Now()
		if ft != nil {
			tr.Add(root, root, "journal.open", t0, t0.Add(f.openDur))
			tr.AddID(root, root, 0, "gen.resume", t0, end)
		}
		resumeMS = append(resumeMS, float64(end.Sub(t0).Nanoseconds())/1e6)
		openMS = append(openMS, float64(f.openDur.Nanoseconds())/1e6)
		p.check(err == nil && bytes.Equal(canon, d.canon))
		plan := sched.Planner{}.PlanSpecs(d.specs, fleetWorkers)
		p.check(f.chunksSkipped() == len(plan))
	}

	p.e2e["setup_s"] = medianOf(setups, "s")
	perSweep := make([]float64, len(walls))
	for i, ms := range walls {
		perSweep[i] = fleetSweepSpecs / (ms / 1000)
	}
	// The median over sweeps of equal size keeps one sweep slowed by the
	// host from moving the figure.
	p.e2e["specs_per_s"] = measured{Value: median(perSweep), Unit: "1/s", Samples: perSweep,
		Note: fmt.Sprintf("%d specs in %d sweeps over %d workers in %.2fs", specsDone, len(walls), fleetWorkers, elapsed.Seconds())}
	latencyMetrics(p, walls)
	p.e2e["peak_rss_mb"] = measured{Value: rss, Unit: "MB"}
	p.detail["sweeps"] = len(walls)
	p.detail["resume_ms"] = describe(resumeMS)

	if ft != nil {
		ft.layerMetrics(p, walls, stats, jobWall)
		p.layer["sched.plan_us"] = medianOf(planUS, "us")
		p.layer["agg.merge_us_p50"] = medianOf(mergeUS, "us")
		p.layer["agg.canonical_us_p50"] = medianOf(canonUS, "us")
		p.layer["journal.open_ms"] = medianOf(openMS, "ms")
		p.layer["journal.records"] = measured{Value: float64(records), Unit: "count"}
		if fi, err := os.Stat(f.jnl.Path()); err == nil {
			p.layer["journal.bytes"] = measured{Value: float64(fi.Size()), Unit: "bytes"}
		}
		p.layer["journal.sync_ms"] = measured{Value: syncMS, Unit: "ms"}
		p.layer["gen.resume_ms_p50"] = medianOf(resumeMS, "ms")
		var all []spec.ScenarioSpec
		for _, d := range sweeps[:min(len(sweeps), 4)] {
			all = append(all, d.specs...)
		}
		if err := specKeyMetric(p, all); err != nil {
			p.check(false)
		}
		if err := allocMetrics(p, all[:min(len(all), 200)]); err != nil {
			p.check(false)
		}
		p.spans = tr.Spans()
	}

	// Every sweep's merged canonical summary must equal a local fold.
	runner := sim.NewRunner(sim.WithParallelism(runtime.NumCPU()))
	for _, d := range sweeps {
		sum, err := agg.Summarize(runner, d.specs)
		ok := err == nil
		if ok {
			local, err := sum.CanonicalJSON()
			ok = err == nil && bytes.Equal(local, d.canon)
		}
		p.check(ok)
	}
	return p, nil
}

// fleetSweep is one drawn sweep and its POST body.
type fleetSweep struct {
	specs []spec.ScenarioSpec
	body  []byte
}

// draw draws the next n sweeps of the run.
func (w *fleetJournal) draw(n int) ([]fleetSweep, error) {
	out := make([]fleetSweep, n)
	for i := range out {
		specs, err := w.gen.sweep(w.sweep, fleetSweepSpecs)
		if err != nil {
			return nil, err
		}
		w.sweep++
		body, err := json.Marshal(spec.SweepDef{Explicit: specs})
		if err != nil {
			return nil, err
		}
		out[i] = fleetSweep{specs: specs, body: body}
	}
	return out, nil
}

func timeUS(fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t).Nanoseconds()) / 1e3
}

// startFleet starts the workers and the coordinator with a journal in dir.
func startFleet(dir string, ft *fleetTrace) (*fleet, error) {
	f := &fleet{dir: dir, ft: ft, client: newClient(1)}
	for i := 0; i < fleetWorkers; i++ {
		svc := service.New(service.Config{Parallelism: 1})
		if ft != nil {
			svc.SetExecutor(ft.executor(i))
		}
		base, stop, err := startServer(svc.Handler())
		if err != nil {
			svc.Close()
			return nil, errors.Join(err, f.close())
		}
		f.workers, f.wbases, f.wstops = append(f.workers, svc), append(f.wbases, base), append(f.wstops, stop)
	}
	if err := f.startCoordinator(); err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

// startCoordinator opens the journal and starts a fresh coordinator
// service on it, wired as gatherd wires -workers and -journal, resuming
// whatever the journal holds.
func (f *fleet) startCoordinator() error {
	t := time.Now()
	jnl, err := journal.Open(f.dir)
	f.openDur = time.Since(t)
	if err != nil {
		return err
	}
	ws := make([]*cluster.Worker, len(f.wbases))
	for i, base := range f.wbases {
		var opts []cluster.WorkerOption
		if f.ft != nil {
			opts = append(opts, cluster.WithHTTPClient(&http.Client{Transport: &timedTransport{ft: f.ft, worker: i, base: http.DefaultTransport}}))
		}
		ws[i] = cluster.NewWorker(base, opts...)
	}
	coord := cluster.NewCoordinator(ws...)
	svc := service.New(service.Config{})
	coord.SetObs(svc.Registry(), svc.Tracer())
	svc.SetDistributor(coord.SummarizeSpecs)
	svc.SetSchedulerStats(coord.Stats)
	jnl.SetObs(svc.Registry())
	var store cluster.ChunkStore = jnl
	if f.ft != nil {
		store = &timedStore{ft: f.ft, next: jnl}
	}
	coord.SetChunkStore(store)
	svc.SetJournal(jnl)
	if _, err := svc.ResumeJournal(); err != nil {
		svc.Close()
		return errors.Join(err, jnl.Close())
	}
	base, stop, err := startServer(svc.Handler())
	if err != nil {
		svc.Close()
		return errors.Join(err, jnl.Close())
	}
	f.jnl, f.coord, f.csvc, f.cbase, f.cstop = jnl, coord, svc, base, stop
	return nil
}

// stopCoordinator stops the coordinator service and closes its journal,
// reporting the journal's close (flush and fsync) error.
func (f *fleet) stopCoordinator() error {
	if f.csvc == nil {
		return nil
	}
	f.cstop()
	closeClient(f.client)
	f.csvc.Close()
	f.csvc = nil
	return f.jnl.Close()
}

// close stops the whole fleet.
func (f *fleet) close() error {
	err := f.stopCoordinator()
	for i, stop := range f.wstops {
		stop()
		f.workers[i].Close()
	}
	f.wstops = nil
	return err
}

// summarize submits a sweep document as a summary-only job and returns
// the job's canonical summary.
func (f *fleet) summarize(def []byte) ([]byte, error) {
	resp, err := f.client.Post(f.cbase+"/v1/sweeps?summary=only", "application/json", bytes.NewReader(def))
	if err != nil {
		return nil, err
	}
	var acc service.SweepAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
	}
	resp, err = f.client.Get(f.cbase + "/v1/jobs/" + acc.JobID + "/summary?canonical=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("summary: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf))
	}
	return buf, nil
}

// chunksSkipped reads the coordinator's chunks_skipped counter from
// GET /metrics.
func (f *fleet) chunksSkipped() int {
	resp, err := f.client.Get(f.cbase + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var m map[string]any
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return -1
	}
	n, ok := m["chunks_skipped"].(float64)
	if !ok {
		return -1
	}
	return int(n)
}

// timedTransport times one worker client's requests: a chunk runs from
// its submission (POST /v1/sweeps) to the end of its summary's body.
type timedTransport struct {
	ft     *fleetTrace
	worker int
	base   http.RoundTripper
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft := t.ft
	submit := req.Method == http.MethodPost && strings.HasPrefix(req.URL.Path, "/v1/sweeps")
	wait := req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/summary")
	begin := time.Now()
	ft.mu.Lock()
	c := ft.chunk[t.worker]
	if submit {
		id := ft.tr.NewID()
		c = &chunkSpan{trace: id, id: id, start: begin, bytes: max(req.ContentLength, 0)}
		ft.chunk[t.worker] = c
	}
	ft.mu.Unlock()
	resp, err := t.base.RoundTrip(req)
	if err != nil || c == nil || !(submit || wait) {
		return resp, err
	}
	name := "cluster.submit"
	if wait {
		name = "cluster.summary_wait"
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64, end time.Time) {
		ft.tr.Add(c.trace, c.id, name, begin, end)
		ft.mu.Lock()
		defer ft.mu.Unlock()
		c.bytes += n
		if submit {
			ft.submitUS = append(ft.submitUS, float64(end.Sub(begin).Nanoseconds())/1e3)
			return
		}
		ft.waitMS = append(ft.waitMS, float64(end.Sub(begin).Nanoseconds())/1e6)
		ft.chunkMS = append(ft.chunkMS, float64(end.Sub(c.start).Nanoseconds())/1e6)
		ft.chunkByte = append(ft.chunkByte, float64(c.bytes))
		ft.tr.AddID(c.id, c.trace, ft.cur.Load(), "cluster.chunk", c.start, end)
		ft.chunk[t.worker] = nil
	}}
	return resp, nil
}

// timedBody counts a response body's bytes and reports when it closes.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64, end time.Time)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n, time.Now()) })
	return err
}

// timedStore is the coordinator's ChunkStore with a span around each
// call into the journal.
type timedStore struct {
	ft   *fleetTrace
	next cluster.ChunkStore
}

func (s *timedStore) GetChunk(key string) ([]byte, bool) {
	t := time.Now()
	buf, ok := s.next.GetChunk(key)
	s.ft.record("journal.get_chunk", t, &s.ft.getChunk)
	return buf, ok
}

func (s *timedStore) PutChunk(job, key string, canonical []byte) {
	t := time.Now()
	s.next.PutChunk(job, key, canonical)
	s.ft.record("journal.put_chunk", t, &s.ft.putChunk)
	s.ft.mu.Lock()
	s.ft.canons = append(s.ft.canons, canonical)
	s.ft.mu.Unlock()
}

func (s *timedStore) PutPlan(job string, keys []string) {
	t := time.Now()
	s.next.PutPlan(job, keys)
	s.ft.record("journal.put_plan", t, &s.ft.putPlan)
}

// record adds a span under the running sweep and its duration in µs.
func (ft *fleetTrace) record(name string, t time.Time, into *[]float64) {
	end := time.Now()
	root := ft.cur.Load()
	ft.tr.Add(root, root, name, t, end)
	ft.mu.Lock()
	*into = append(*into, float64(end.Sub(t).Nanoseconds())/1e3)
	ft.mu.Unlock()
}

// executor is a worker's compile-and-run path with spans under the
// worker's chunk in flight, adding to the worker's busy time.
func (ft *fleetTrace) executor(worker int) func(spec.ScenarioSpec) (*sim.RunResult, error) {
	return func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		ft.mu.Lock()
		c := ft.chunk[worker]
		ft.mu.Unlock()
		var trace, parent uint64
		if c != nil {
			trace, parent = c.trace, c.id
		}
		ft.exec.link(sp.Name, trace, parent)
		t := time.Now()
		res, err := ft.exec.executor(ft.tr)(sp)
		ft.mu.Lock()
		ft.busy[worker] += time.Since(t).Nanoseconds()
		ft.mu.Unlock()
		return res, err
	}
}

// mergeChunks times agg.Summary.Merge and CanonicalJSON on the running
// sweep's chunk summaries, as the coordinator merges them.
func (ft *fleetTrace) mergeChunks() (mergeUS []float64, canonUS float64) {
	ft.mu.Lock()
	canons := ft.canons
	ft.mu.Unlock()
	total := agg.NewSummary()
	for _, c := range canons {
		s := agg.NewSummary()
		if json.Unmarshal(c, s) != nil {
			continue
		}
		mergeUS = append(mergeUS, timeUS(func() { total.Merge(s) }))
	}
	return mergeUS, timeUS(func() { _, _ = total.CanonicalJSON() })
}

func (ft *fleetTrace) layerMetrics(p *phase, walls []float64, stats sched.FleetStats, jobWall *obs.Histogram) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.exec.layerMetrics(p)
	p.layer["service.job_wall_ms_p50"] = measured{Value: jobWall.Quantile(0.5), Unit: "ms"}
	p.layer["sched.chunks"] = measured{Value: float64(stats.Chunks), Unit: "count"}
	var stolen, retried, failed int64
	for _, ws := range stats.Workers {
		stolen, retried, failed = stolen+ws.Stolen, retried+ws.Retried, failed+ws.Failed
	}
	p.layer["sched.stolen"] = measured{Value: float64(stolen), Unit: "count"}
	p.layer["sched.retried"] = measured{Value: float64(retried), Unit: "count"}
	p.layer["sched.failed"] = measured{Value: float64(failed), Unit: "count"}
	lo, hi, sum := ft.busy[0], ft.busy[0], int64(0)
	for _, b := range ft.busy {
		lo, hi, sum = min(lo, b), max(hi, b), sum+b
	}
	p.layer["sched.busy_imbalance"] = measured{Value: ratio(float64(hi), float64(lo)), Unit: "ratio"}
	wallNS := 0.0
	for _, ms := range walls {
		wallNS += ms * 1e6
	}
	p.layer["cluster.overhead_share"] = measured{Value: 1 - ratio(float64(sum), wallNS*fleetWorkers), Unit: "ratio"}
	p.layer["cluster.chunk_ms_p50"] = medianOf(ft.chunkMS, "ms")
	p.layer["cluster.chunk_ms_p99"] = tailOf(ft.chunkMS, "ms")
	p.layer["cluster.submit_us_p50"] = medianOf(ft.submitUS, "us")
	p.layer["cluster.summary_wait_ms_p50"] = medianOf(ft.waitMS, "ms")
	p.layer["cluster.bytes_per_chunk"] = measured{Value: mean(ft.chunkByte), Unit: "bytes"}
	p.layer["journal.put_chunk_us_p50"] = medianOf(ft.putChunk, "us")
	p.layer["journal.put_chunk_us_p99"] = tailOf(ft.putChunk, "us")
	p.layer["journal.put_plan_us"] = medianOf(ft.putPlan, "us")
	p.layer["journal.get_chunk_us_p50"] = medianOf(ft.getChunk, "us")
}
