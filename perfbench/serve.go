package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// serveMixed is POST /v1/run traffic over loopback HTTP against an
// in-process service.New(Config{}): Zipf popularity over a pre-warmed hot
// catalogue, plus a fixed share of seed-fresh specs that must miss. An
// open-loop phase at serveRate gives the latency metrics; a closed-loop
// phase on nproc connections gives capacity. One operation is one
// request.
type serveMixed struct {
	cat     []spec.ScenarioSpec
	bodies  [][]byte // catalogue request bodies
	hitBody [][]byte // expected response body of a catalogue hit
	coldBdy [][]byte // expected response body of a catalogue miss (warm-up)
	misses  *missGen
	plan    *rand.Rand
}

func (w *serveMixed) mainMetric() string { return "p50_ms" }

const (
	// serveRate is the open-loop request rate, per second.
	serveRate = 800
	// catalogueSize is the hot catalogue, far below the default
	// 1024-entry result cache.
	catalogueSize = 128
	// missEvery spaces the seed-fresh misses: every tenth request.
	missEvery = 10
	// segmentRequests is how many requests one service instance serves.
	// Its misses (every tenth, 400) plus the catalogue stay far below the
	// cache's 1024 entries, so no hot entry is ever evicted and every
	// catalogue request is a hit by construction.
	segmentRequests = 4000
	// openShare is the share of the budget the open-loop phase gets, four
	// service instances' worth at a 20-second budget; the capacity phase
	// runs capacityRate segments per second of the rest, twelve at that
	// budget, because a segment's rate alone varies by a sixth on a
	// shared 2-core host. Each costs about 1.5 s with its set-up and the
	// check of its misses, so more would stretch the whole run.
	openShare    = 0.9
	capacityRate = 6
)

// spanHeader carries a request's trace, client span and the id its
// handler span takes, so server-side spans join the client's trace.
const spanHeader = "X-Perfbench-Span"

// segment is one service instance with its traffic plan.
type segment struct {
	svc    *service.Service
	base   string
	stop   func()
	client *http.Client
	plan   []request
	miss   []spec.ScenarioSpec // the segment's miss specs, in plan order
	mbody  [][]byte
}

// servedRun is what the workload keeps of one request for the checks and
// the per-layer metrics.
type servedRun struct {
	body                []byte // misses only: the response, checked after the run
	trace, client, hand uint64
}

func (w *serveMixed) fixture(e *env) error {
	if w.cat != nil {
		return nil
	}
	cat, err := catalogue(e.seed, catalogueSize)
	if err != nil {
		return err
	}
	w.cat, w.misses, w.plan = cat, newMissGen(e.seed), newRNG(e.seed, streamPlan)
	for _, sp := range cat {
		body, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		hit, cold, err := expectedBodies(sp)
		if err != nil {
			return err
		}
		w.bodies, w.hitBody, w.coldBdy = append(w.bodies, body), append(w.hitBody, hit), append(w.coldBdy, cold)
	}
	return nil
}

// expectedBodies returns the exact /v1/run response bodies a spec must
// get, served from the cache and freshly run: the RunResponse of its
// content key and its in-process spec.Run result.
func expectedBodies(sp spec.ScenarioSpec) (hit, cold []byte, err error) {
	key, err := service.SpecKey(sp)
	if err != nil {
		return nil, nil, err
	}
	res, err := sp.Run()
	if err != nil {
		return nil, nil, err
	}
	enc := func(cached bool) ([]byte, error) {
		var buf bytes.Buffer
		err := json.NewEncoder(&buf).Encode(service.RunResponse{Key: key, Cached: cached, Result: res})
		return buf.Bytes(), err
	}
	if hit, err = enc(true); err != nil {
		return nil, nil, err
	}
	cold, err = enc(false)
	return hit, cold, err
}

// serveTrace collects the traced stretch's server-side measurements.
type serveTrace struct {
	mu                     sync.Mutex
	links                  map[string][2]uint64 // miss spec name → trace, handler span
	compileUS              []float64
	cold                   []bool
	runMS                  []float64
	runNS, stepped, rounds []int64
	steps                  []bool
	seen                   map[spec.GraphSpec]bool
	compileNS, engineNS    int64
}

// startServer serves h on a fresh loopback port; stop shuts it down and
// waits for it.
func startServer(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}, nil
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// closeClient drops the client's idle connections.
func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// spanned wraps a handler so each request records a span named name,
// joined to the client's trace through spanHeader.
func spanned(tr *Tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		// Requests without the header (warm-up, capacity phase) are set-up
		// or untraced traffic.
		if trace, parent, id := parseSpanHeader(r.Header.Get(spanHeader)); id != 0 {
			tr.AddID(id, trace, parent, name, t, time.Now())
		}
	})
}

func spanHeaderValue(trace, parent, id uint64) string {
	return fmt.Sprintf("%d-%d-%d", trace, parent, id)
}

func parseSpanHeader(v string) (trace, parent, id uint64) {
	parts := strings.Split(v, "-")
	if len(parts) != 3 {
		return 0, 0, 0
	}
	trace, _ = strconv.ParseUint(parts[0], 10, 64)
	parent, _ = strconv.ParseUint(parts[1], 10, 64)
	id, _ = strconv.ParseUint(parts[2], 10, 64)
	return trace, parent, id
}

// newSegment starts a fresh service, warms the catalogue into its cache
// and draws the segment's traffic. Everything here is set-up.
func (w *serveMixed) newSegment(p *phase, tr *Tracer, st *serveTrace) (*segment, error) {
	svc := service.New(service.Config{})
	var h http.Handler = svc.Handler()
	if tr != nil {
		svc.SetExecutor(st.executor(tr))
		h = spanned(tr, "service.handler", h)
	}
	base, stop, err := startServer(h)
	if err != nil {
		svc.Close()
		return nil, err
	}
	sg := &segment{svc: svc, base: base, stop: stop, client: newClient(runtime.NumCPU())}
	// Warm the catalogue: each first request is a miss.
	var wg sync.WaitGroup
	ok := make([]bool, len(w.cat))
	next := make(chan int)
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body, err := post(sg.client, base+"/v1/run", w.bodies[i], "")
				ok[i] = err == nil && bytes.Equal(body, w.coldBdy[i])
			}
		}()
	}
	for i := range w.cat {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, v := range ok {
		p.check(v)
	}
	sg.plan = planRequests(w.plan, segmentRequests, len(w.cat), missEvery)
	for _, rq := range sg.plan {
		if rq.Hot >= 0 {
			continue
		}
		sp, err := w.misses.next()
		if err != nil {
			sg.close()
			return nil, err
		}
		body, err := json.Marshal(sp)
		if err != nil {
			sg.close()
			return nil, err
		}
		sg.miss, sg.mbody = append(sg.miss, sp), append(sg.mbody, body)
	}
	return sg, nil
}

func (sg *segment) close() {
	sg.stop()
	closeClient(sg.client)
	sg.svc.Close()
}

// post sends one request and returns the body of a 200 answer.
func post(c *http.Client, url string, body []byte, header string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(spanHeader, header)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// drive sends the segment's plan through loop and checks every hit
// inline against its expected body; misses keep their bodies for the
// check after the run.
func (w *serveMixed) drive(p *phase, tr *Tracer, st *serveTrace, sg *segment, loop func(send func(i int) error) ([]sample, time.Time)) ([]sample, []servedRun, time.Time) {
	runs := make([]servedRun, len(sg.plan))
	missIdx := make([]int, len(sg.plan))
	m := 0
	for i, rq := range sg.plan {
		if rq.Hot < 0 {
			missIdx[i] = m
			m++
		}
	}
	hitOK := make([]bool, len(sg.plan))
	samples, t0 := loop(func(i int) error {
		rq := sg.plan[i]
		body := w.bodies[max(rq.Hot, 0)]
		if rq.Hot < 0 {
			body = sg.mbody[missIdx[i]]
		}
		header := ""
		if tr != nil {
			r := &runs[i]
			r.trace, r.hand = tr.NewID(), tr.NewID()
			r.client = r.trace
			header = spanHeaderValue(r.trace, r.client, r.hand)
			if rq.Hot < 0 {
				st.link(sg.miss[missIdx[i]].Name, r.trace, r.hand)
			}
		}
		got, err := post(sg.client, sg.base+"/v1/run", body, header)
		if err != nil {
			return err
		}
		if rq.Hot >= 0 {
			hitOK[i] = bytes.Equal(got, w.hitBody[rq.Hot])
		} else {
			runs[i].body = got
		}
		return nil
	})
	// Hits are checked here; a miss that got no answer fails here, the
	// others are checked against spec.Run after the run (verifyMisses).
	for i, rq := range sg.plan {
		if rq.Hot >= 0 || samples[i].Err != nil {
			p.check(samples[i].Err == nil && hitOK[i])
		}
	}
	return samples, runs, t0
}

// checkMetrics reads GET /metrics and checks that the cache counted
// exactly the planned mix: every catalogue request a hit, every warm-up
// and fresh spec a miss, nothing coalesced.
func (w *serveMixed) checkMetrics(p *phase, sg *segment, served int) map[string]any {
	resp, err := sg.client.Get(sg.base + "/metrics")
	if err != nil {
		p.check(false)
		return nil
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		p.check(false)
		return nil
	}
	hits := 0
	for _, rq := range sg.plan[:served] {
		if rq.Hot >= 0 {
			hits++
		}
	}
	num := func(k string) float64 { f, _ := m[k].(float64); return f }
	p.check(int(num("cache_hits")) == hits && int(num("cache_misses")) == served-hits+len(w.cat) && num("coalesced") == 0)
	return m
}

func (w *serveMixed) run(e *env, budget time.Duration, tr *Tracer) (*phase, error) {
	p := newPhase()
	var setups []float64
	var st *serveTrace
	if tr != nil {
		st = &serveTrace{links: map[string][2]uint64{}, seen: map[spec.GraphSpec]bool{}}
	}
	newSeg := func() (*segment, error) {
		t := time.Now()
		if err := w.fixture(e); err != nil {
			return nil, err
		}
		sg, err := w.newSegment(p, tr, st)
		if err == nil {
			setups = append(setups, time.Since(t).Seconds())
		}
		return sg, err
	}
	conns := runtime.NumCPU()
	interval := time.Second / serveRate
	segDur := time.Duration(segmentRequests) * interval
	openSegs := ops(time.Duration(float64(budget)*openShare), float64(time.Second)/float64(segDur), 1)
	capSegs := ops(time.Duration(float64(budget)*(1-openShare)), capacityRate, 2)

	var lat, late, hitLat, missLat []float64
	var segLat [][]float64             // open-loop latencies by service instance
	var hitH, missH, hitWire []float64 // traced: handler and wire time by kind
	var pending []pendingMiss
	var metricsDoc map[string]any
	sent, failed := 0, 0
	for s := 0; s < openSegs; s++ {
		sg, err := newSeg()
		if err != nil {
			return nil, err
		}
		samples, runs, t0 := w.drive(p, tr, st, sg, func(send func(int) error) ([]sample, time.Time) {
			return openLoop(len(sg.plan), conns, interval, send)
		})
		metricsDoc = w.checkMetrics(p, sg, len(sg.plan))
		sg.close()
		segLat = append(segLat, nil)
		for i, s := range samples {
			sent++
			if s.Err != nil {
				failed++
				continue
			}
			ms := float64(s.Latency()) / float64(time.Millisecond)
			lat = append(lat, ms)
			segLat[len(segLat)-1] = append(segLat[len(segLat)-1], ms)
			late = append(late, float64(s.Late())/float64(time.Millisecond))
			if sg.plan[i].Hot >= 0 {
				hitLat = append(hitLat, ms)
			} else {
				missLat = append(missLat, ms)
			}
		}
		pending = append(pending, missesOf(sg, runs)...)
		if tr != nil {
			h, m, wr := w.traceRequests(tr, sg, samples, runs, t0)
			hitH, missH, hitWire = append(hitH, h...), append(missH, m...), append(hitWire, wr...)
		}
	}
	var capSamples []float64
	capReqs, capWall := 0, time.Duration(0)
	for len(capSamples) < capSegs {
		sg, err := newSeg()
		if err != nil {
			return nil, err
		}
		var wall time.Duration
		samples, runs, _ := w.drive(p, nil, st, sg, func(send func(int) error) ([]sample, time.Time) {
			s, t0, wl := closedLoop(len(sg.plan), conns, send)
			wall = wl
			return s, t0
		})
		w.checkMetrics(p, sg, len(sg.plan))
		sg.close()
		capSamples = append(capSamples, float64(len(samples))/wall.Seconds())
		capReqs += len(samples)
		capWall += wall
		pending = append(pending, missesOf(sg, runs)...)
	}
	rss := peakRSSMB()

	p.e2e["setup_s"] = medianOf(setups, "s")
	// The median over service instances, each a fixed 4000 requests,
	// keeps one instance slowed by the host from moving the figure.
	p.e2e["specs_per_s"] = measured{Value: median(capSamples), Unit: "1/s", Samples: capSamples,
		Note: fmt.Sprintf("closed loop, %d connections, %d requests in %.2fs", conns, capReqs, capWall.Seconds())}
	latencyMetrics(p, lat)
	// The p99 of the whole open loop is one stall away from doubling on a
	// shared host; like capacity, the tail is the median over service
	// instances, each a fixed 4000 requests, of the instance's p99.
	p.e2e["tail_ms"] = windowTailOf(segLat, "ms")
	p.e2e["peak_rss_mb"] = measured{Value: rss, Unit: "MB"}
	p.detail["open_loop_rate"] = serveRate
	p.detail["open_loop_requests"] = sent

	if tr != nil {
		p.layer["gen.late_ms_p99"] = tailOf(late, "ms")
		p.layer["gen.sent"] = measured{Value: float64(sent), Unit: "count"}
		p.layer["gen.failed"] = measured{Value: float64(failed), Unit: "count"}
		for kind, xs := range map[string][]float64{"hit": hitLat, "miss": missLat} {
			p.layer["gen."+kind+"_ms_p50"] = medianOf(xs, "ms")
			p.layer["gen."+kind+"_ms_p99"] = tailOf(xs, "ms")
		}
		p.layer["service.handler_us_p50.hit"] = medianOf(hitH, "us")
		p.layer["service.handler_us_p99.hit"] = tailOf(hitH, "us")
		p.layer["service.wire_us_p50.hit"] = medianOf(hitWire, "us")
		p.layer["service.handler_ms_p50.miss"] = medianOf(missH, "ms")
		if metricsDoc != nil {
			f, _ := metricsDoc["cache_hit_rate"].(float64)
			c, _ := metricsDoc["coalesced"].(float64)
			p.layer["service.cache_hit_ratio"] = measured{Value: f, Unit: "ratio", Note: "GET /metrics cache_hit_rate, warm-up included"}
			p.layer["service.coalesced"] = measured{Value: c, Unit: "count"}
		}
		st.layerMetrics(p)
		specs := append(append([]spec.ScenarioSpec(nil), w.cat...), pendingSpecs(pending)...)
		if err := specKeyMetric(p, specs); err != nil {
			p.check(false)
		}
		if err := allocMetrics(p, pendingSpecs(pending[:min(len(pending), 100)])); err != nil {
			p.check(false)
		}
		p.spans = tr.Spans()
	}
	verifyMisses(p, pending)
	return p, nil
}

// pendingMiss is an answered miss waiting for its check.
type pendingMiss struct {
	sp   spec.ScenarioSpec
	body []byte
}

func missesOf(sg *segment, runs []servedRun) []pendingMiss {
	var out []pendingMiss
	m := 0
	for i, rq := range sg.plan {
		if rq.Hot >= 0 {
			continue
		}
		if runs[i].body != nil {
			out = append(out, pendingMiss{sp: sg.miss[m], body: runs[i].body})
		}
		m++
	}
	return out
}

func pendingSpecs(ps []pendingMiss) []spec.ScenarioSpec {
	out := make([]spec.ScenarioSpec, len(ps))
	for i, pm := range ps {
		out[i] = pm.sp
	}
	return out
}

// verifyMisses checks each miss response against its spec's spec.Run
// result, marked uncached, outside the timed region.
func verifyMisses(p *phase, ps []pendingMiss) {
	ok := make([]bool, len(ps))
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, cold, err := expectedBodies(ps[i].sp)
				ok[i] = err == nil && bytes.Equal(cold, ps[i].body)
			}
		}()
	}
	for i := range ps {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, v := range ok {
		p.check(v)
	}
}

// traceRequests records each request's client spans — gen.request from its
// due time to its answer, gen.late from due to sent — and returns the
// handler time of hits and misses and the wire time of hits (round trip
// minus handler).
func (w *serveMixed) traceRequests(tr *Tracer, sg *segment, samples []sample, runs []servedRun, t0 time.Time) (hitH, missH, hitWire []float64) {
	hand := map[uint64]int64{}
	for _, s := range tr.Spans() {
		if s.Name == "service.handler" {
			hand[s.ID] = s.Dur()
		}
	}
	for i, s := range samples {
		r := runs[i]
		tr.AddID(r.client, r.trace, 0, "gen.request", t0.Add(s.Due), t0.Add(s.End))
		tr.Add(r.trace, r.client, "gen.late", t0.Add(s.Due), t0.Add(s.Start))
		hd, ok := hand[r.hand]
		if s.Err != nil || !ok {
			continue
		}
		if sg.plan[i].Hot >= 0 {
			hitH = append(hitH, float64(hd)/1e3)
			hitWire = append(hitWire, float64((s.End-s.Start).Nanoseconds()-hd)/1e3)
		} else {
			missH = append(missH, float64(hd)/1e6)
		}
	}
	return hitH, missH, hitWire
}

func (st *serveTrace) link(name string, trace, hand uint64) {
	st.mu.Lock()
	st.links[name] = [2]uint64{trace, hand}
	st.mu.Unlock()
}

// executor is the service's compile-and-run path (spec.Compile, then
// sim.Run) with a span around each call, joined to the request whose
// spec it runs.
func (st *serveTrace) executor(tr *Tracer) func(spec.ScenarioSpec) (*sim.RunResult, error) {
	return func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		t := time.Now()
		sc, err := sp.Compile()
		tc := time.Now()
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sc)
		end := time.Now()
		st.mu.Lock()
		defer st.mu.Unlock()
		l, ok := st.links[sp.Name]
		if !ok {
			return res, err // warm-up: set-up, not traced
		}
		id := tr.NewID()
		tr.Add(l[0], id, "spec.compile", t, tc)
		tr.Add(l[0], id, "sim.run", tc, end)
		tr.AddID(id, l[0], l[1], "service.execute", t, end)
		st.compileUS = append(st.compileUS, float64(tc.Sub(t).Nanoseconds())/1e3)
		st.cold = append(st.cold, !st.seen[sp.Graph])
		st.seen[sp.Graph] = true
		st.compileNS += tc.Sub(t).Nanoseconds()
		st.engineNS += end.Sub(tc).Nanoseconds()
		st.runMS = append(st.runMS, float64(end.Sub(tc).Nanoseconds())/1e6)
		st.runNS = append(st.runNS, end.Sub(tc).Nanoseconds())
		var stepped, rounds int64
		if res != nil {
			stepped, rounds = int64(res.SteppedRounds), int64(res.Rounds)
		}
		st.stepped, st.rounds = append(st.stepped, stepped), append(st.rounds, rounds)
		st.steps = append(st.steps, everyRound(sp))
		return res, err
	}
}

// layerMetrics sets the sim and spec metrics of executed specs.
func (st *serveTrace) layerMetrics(p *phase) {
	st.mu.Lock()
	defer st.mu.Unlock()
	engineMetrics(p, st.runMS, st.runNS, st.stepped, st.rounds, st.steps)
	var warm, cold []float64
	for i, us := range st.compileUS {
		if st.cold[i] {
			cold = append(cold, us)
		} else {
			warm = append(warm, us)
		}
	}
	p.layer["spec.compile_us_p50"] = medianOf(warm, "us")
	p.layer["spec.compile_cold_us_p50"] = medianOf(cold, "us")
	p.layer["spec.memo_hit_ratio"] = measured{Value: ratio(float64(len(warm)), float64(len(st.compileUS))), Unit: "ratio"}
	p.layer["spec.compile_share"] = measured{Value: ratio(float64(st.compileNS), float64(st.compileNS+st.engineNS)), Unit: "ratio"}
}
