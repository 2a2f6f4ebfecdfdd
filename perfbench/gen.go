package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// The gen layer: the benchmark's own seeded input generators and load
// loops. Every generator draws from a PCG stream keyed by (seed, stream),
// so the same seed yields the same specs on any host, and streams never
// share draws.

// Stream keys: one per generator, so adding draws to one generator never
// shifts another's inputs.
const (
	streamSweep = iota + 1
	streamCatalogue
	streamMiss
	streamPlan
	streamFleet
)

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// sweepFamilies are the graph families of the sweep-local mix.
var sweepFamilies = []string{"ring", "grid", "gnp", "tree", "barbell", "lollipop"}

// sweepSizes returns a family's size parameters in the sweep-local mix:
// node counts, or clique sizes for barbell and lollipop (a clique plus its
// tail). Every sweep has the same shape axes; the seed draws labels, wakes,
// messages and random graphs, so sweeps differ in content but not in kind.
func sweepSizes(family string) []int {
	if family == "barbell" || family == "lollipop" {
		return []int{3, 5}
	}
	return []int{5, 8}
}

// randomFamily reports whether a family's graph depends on GraphSpec.Seed.
func randomFamily(family string) bool { return family == "gnp" || family == "tree" }

// distinctLabels draws k distinct labels from [lo, hi).
func distinctLabels(rng *rand.Rand, k, lo, hi int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		l := lo + rng.IntN(hi-lo)
		dup := false
		for _, o := range out {
			dup = dup || o == l
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out
}

// adversarialWakes draws a wake schedule for k agents: the first wakes at
// round 0 (some agent must) and every other one, by a coin flip, either at
// round 0 too or only when an agent visits its node. Scheduled later wake
// rounds are left out: the engine wakes a scheduled agent at its round
// only, never on an earlier visit, and on 4- and 5-node graphs a run whose
// late agent wakes after the early agent's first exploration (a ring of 4
// with wake 151, say) never gathers and runs out its max rounds.
func adversarialWakes(rng *rand.Rand, k int) []int {
	w := make([]int, k)
	for j := 1; j < k; j++ {
		if rng.IntN(2) == 0 {
			w[j] = sim.DormantUntilVisited
		}
	}
	return w
}

// bits draws a binary gossip message of 1 to 4 digits.
func bits(rng *rand.Rand) string {
	var b strings.Builder
	for i := 1 + rng.IntN(4); i > 0; i-- {
		b.WriteByte('0' + byte(rng.IntN(2)))
	}
	return b.String()
}

// team builds a k-agent spec on gs: spread starts, the given labels and
// wakes, and per-agent algorithms from algo.
func team(name string, gs spec.GraphSpec, labels, wakes []int, algo func(j int) spec.AlgorithmSpec) (spec.ScenarioSpec, error) {
	starts, err := spec.SpreadStarts(gs, len(labels))
	if err != nil {
		return spec.ScenarioSpec{}, err
	}
	agents := make([]spec.AgentSpec, len(labels))
	for j := range labels {
		agents[j] = spec.AgentSpec{Label: labels[j], Start: starts[j], Wake: wakes[j], Algorithm: algo(j)}
	}
	return spec.ScenarioSpec{Name: name, Graph: gs, Agents: agents}, nil
}

// specFor builds one spec of the given kind ("known", "gossip" or
// "randomized") with k agents on gs, labels drawn from [lo, hi).
func specFor(rng *rand.Rand, name, kind string, gs spec.GraphSpec, k, lo, hi int) (spec.ScenarioSpec, error) {
	labels := distinctLabels(rng, k, lo, hi)
	wakes := adversarialWakes(rng, k)
	switch kind {
	case "known":
		return team(name, gs, labels, wakes, func(int) spec.AlgorithmSpec { return spec.Known() })
	case "gossip":
		msgs := make([]string, k)
		for j := range msgs {
			msgs[j] = bits(rng)
		}
		return team(name, gs, labels, wakes, func(j int) spec.AlgorithmSpec { return spec.Gossip(msgs[j]) })
	case "randomized":
		seeds := []uint64{rng.Uint64() >> 1, rng.Uint64() >> 1}
		// The randomized rendezvous needs both agents awake: it models the
		// two-agent open problem, not the adversarial-wake setting.
		return team(name, gs, labels, make([]int, k), func(j int) spec.AlgorithmSpec { return spec.Randomized(seeds[j], 0) })
	}
	return spec.ScenarioSpec{}, fmt.Errorf("unknown spec kind %q", kind)
}

// sweepTemplate draws the sweep-local mix: for each family, two sizes,
// each with known-bound gathering at k = 2, 3 and 4 under adversarial
// wakes, one gossip pair and one randomized pair — 60 specs. Graph seeds
// are left for stampSweep.
func sweepTemplate(rng *rand.Rand) ([]spec.ScenarioSpec, error) {
	var out []spec.ScenarioSpec
	for _, fam := range sweepFamilies {
		for _, n := range sweepSizes(fam) {
			gs := spec.GraphSpec{Family: fam, N: n}
			for _, v := range []struct {
				kind string
				k    int
			}{{"known", 2}, {"known", 3}, {"known", 4}, {"gossip", 2}, {"randomized", 2}} {
				name := fmt.Sprintf("%s-n%d-k%d-%s", fam, gs.N, v.k, v.kind)
				sp, err := specFor(rng, name, v.kind, gs, v.k, 1, 16)
				if err != nil {
					return nil, err
				}
				out = append(out, sp)
			}
		}
	}
	return out, nil
}

// stampSweep returns a copy of a sweep template whose every graph is new
// to the process: random families get a fresh graph seed derived from the
// stamp, deterministic families carry the stamp as a graph seed their
// builders ignore. Either way each shape misses the spec layer's sequence
// memo, which is the state a fresh gathersim invocation starts in.
func stampSweep(tpl []spec.ScenarioSpec, stamp int64) []spec.ScenarioSpec {
	out := make([]spec.ScenarioSpec, len(tpl))
	for i, sp := range tpl {
		sp.Agents = append([]spec.AgentSpec(nil), sp.Agents...)
		if randomFamily(sp.Graph.Family) {
			sp.Graph.Seed = stamp*1000 + int64(i)
		} else {
			sp.Graph.Seed = stamp
		}
		out[i] = sp
	}
	return out
}

// servedFamilies are the graph families of the served mix.
var servedFamilies = []string{"ring", "grid", "gnp", "tree", "barbell", "path"}

// missSeedBase starts the graph seeds that make served misses fresh.
// Catalogue graphs carry seeds below 1<<30 (or none), so a miss never
// shares a content key with any catalogue, whatever the seeds.
const missSeedBase = 1 << 40

// servedSpec draws one small-graph spec of the served mix: known-bound
// gathering at k = 2 or 3 most of the time, sometimes gossip or the
// randomized pair, on graphs of 4 to 6 nodes.
func servedSpec(rng *rand.Rand, name string) (spec.ScenarioSpec, error) {
	fam := servedFamilies[rng.IntN(len(servedFamilies))]
	n := 4 + rng.IntN(3)
	if fam == "barbell" {
		n = 3
	}
	gs := spec.GraphSpec{Family: fam, N: n}
	if randomFamily(fam) {
		gs.Seed = rng.Int64N(1 << 30)
	}
	switch r := rng.IntN(10); {
	case r < 6:
		return specFor(rng, name, "known", gs, 2+r/4, 1, 16)
	case r < 8:
		return specFor(rng, name, "gossip", gs, 2, 1, 16)
	default:
		return specFor(rng, name, "randomized", gs, 2, 1, 16)
	}
}

// catalogue draws the hot catalogue of n served specs with distinct
// content keys.
func catalogue(seed int64, n int) ([]spec.ScenarioSpec, error) {
	rng := newRNG(seed, streamCatalogue)
	seen := make(map[string]bool)
	var out []spec.ScenarioSpec
	for len(out) < n {
		sp, err := servedSpec(rng, fmt.Sprintf("hot-%d", len(out)))
		if err != nil {
			return nil, err
		}
		key, err := service.SpecKey(sp)
		if err != nil {
			return nil, err
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, sp)
		}
	}
	return out, nil
}

// missGen draws seed-fresh served specs: each carries a graph seed no
// earlier spec of the generator and no catalogue spec has — a fresh
// random graph, or a seed a deterministic family's builder ignores — so
// each is a guaranteed cache miss.
type missGen struct {
	rng *rand.Rand
	n   int64
}

func newMissGen(seed int64) *missGen { return &missGen{rng: newRNG(seed, streamMiss)} }

func (g *missGen) next() (spec.ScenarioSpec, error) {
	sp, err := servedSpec(g.rng, fmt.Sprintf("miss-%d", g.n))
	sp.Graph.Seed = missSeedBase + g.n
	g.n++
	return sp, err
}

// request is one planned request of the served mix: a catalogue index, or
// a miss (Hot < 0).
type request struct{ Hot int }

// planRequests draws n requests: every missEvery-th a fresh miss, the
// others a catalogue spec chosen by Zipf popularity (exponent 1.1) over a
// seeded ranking of the catalogue. Evenly spaced misses keep the open
// loop's tail a measure of what a miss costs: with misses drawn at random,
// how often two land close enough to queue behind each other on nproc
// connections sets the p99, which then varies from draw to draw.
func planRequests(rng *rand.Rand, n, catalogueSize, missEvery int) []request {
	rank := rng.Perm(catalogueSize)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(catalogueSize-1))
	out := make([]request, n)
	for i := range out {
		if i%missEvery == missEvery-1 {
			out[i] = request{Hot: -1}
		} else {
			out[i] = request{Hot: rank[zipf.Uint64()]}
		}
	}
	return out
}

// fleetGen draws fleet sweeps of cheap specs: mostly randomized
// rendezvous pairs, with one in five a known-bound pair on a tiny graph.
// Every spec of a run carries its own graph seed (which the deterministic
// families' builders ignore), so no two sweeps share a chunk and no worker
// serves a spec from its result cache.
type fleetGen struct {
	rng *rand.Rand
	n   int64
}

func newFleetGen(seed int64) *fleetGen { return &fleetGen{rng: newRNG(seed, streamFleet)} }

// sweep draws sweep number s of n specs.
func (g *fleetGen) sweep(s, n int) ([]spec.ScenarioSpec, error) {
	fams := []string{"ring", "path", "star", "complete"}
	out := make([]spec.ScenarioSpec, n)
	for i := range out {
		fam := fams[g.rng.IntN(len(fams))]
		kind, size := "randomized", 6+g.rng.IntN(7)
		if i%5 == 4 {
			kind, size = "known", 3+g.rng.IntN(2)
		}
		g.n++
		gs := spec.GraphSpec{Family: fam, N: size, Seed: g.n}
		sp, err := specFor(g.rng, fmt.Sprintf("f%d-%d", s, i), kind, gs, 2, 1, 16)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// sample is one request of a load loop, as offsets from the loop's start:
// when it was due, when it was sent and when its answer arrived.
type sample struct {
	Due, Start, End time.Duration
	Err             error
}

// Latency is the request's time from when it was due — so a stall that
// delays later requests counts against them too.
func (s sample) Latency() time.Duration { return s.End - s.Due }

// Late is how long after its due time the request was sent.
func (s sample) Late() time.Duration { return s.Start - s.Due }

// openLoop sends n requests on a fixed schedule, request i due at
// i·interval after the start, from conns senders: each sender takes the
// next unsent request, waits for its due time and sends it. A sender held
// up by a slow answer does not push the schedule back: the requests it
// could not send on time go out late, and their latency still counts from
// their due time.
func openLoop(n, conns int, interval time.Duration, send func(i int) error) ([]sample, time.Time) {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if d := due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				start := time.Since(t0)
				err := send(i)
				out[i] = sample{Due: due, Start: start, End: time.Since(t0), Err: err}
			}
		}()
	}
	wg.Wait()
	return out, t0
}

// closedLoop sends n requests from conns senders, each sending its next
// request as soon as the previous one is answered, and returns the samples
// (due = sent), the loop's start and its wall time.
func closedLoop(n, conns int, send func(i int) error) ([]sample, time.Time, time.Duration) {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				start := time.Since(t0)
				err := send(i)
				out[i] = sample{Due: start, Start: start, End: time.Since(t0), Err: err}
			}
		}()
	}
	wg.Wait()
	return out, t0, time.Since(t0)
}
