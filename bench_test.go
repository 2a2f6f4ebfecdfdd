// Benchmarks regenerating every experiment of the reproduction (E1..E10,
// one per claim — see DESIGN.md §5) plus micro-benchmarks of the hot paths.
// Run with: go test -bench=. -benchmem
package nochatter_test

import (
	"testing"

	"nochatter"
	"nochatter/internal/experiments"
)

// benchExperiment wraps one experiment as a benchmark: each iteration
// regenerates the full table at quick scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var run func(experiments.Scale) (interface{ Len() int }, error)
	for _, ex := range experiments.All() {
		if ex.ID == id {
			exRun := ex.Run
			run = func(s experiments.Scale) (interface{ Len() int }, error) {
				return exRun(s)
			}
		}
	}
	if run == nil {
		b.Fatalf("no experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if table.Len() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1_KnownBoundCorrectness(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2_TimeVsN(b *testing.B)                  { benchExperiment(b, "E2") }
func BenchmarkE3_TimeVsLabelLength(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4_TimeVsTeamSize(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE5_CommunicateCost(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6_ChatterOverhead(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7_GossipVsMessageLen(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8_UnknownBound(b *testing.B)             { benchExperiment(b, "E8") }
func BenchmarkE9_LeaderElection(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10_TZRendezvous(b *testing.B)            { benchExperiment(b, "E10") }
func BenchmarkE11_RandomizedRendezvous(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkA1_TZBlockLayoutAblation(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2_SequenceStrategyAblation(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkEngineRoundThroughput measures the per-round engine cost when
// nothing can be fast-forwarded: four agents each take a port every round,
// so every round is stepped and every agent is handed off to once per round.
// One op is one simulated round; ns/handoff isolates the agent↔engine
// switch (one resume of a program plus its next instruction).
func BenchmarkEngineRoundThroughput(b *testing.B) {
	g := nochatter.Ring(8)
	rounds := b.N
	prog := func(a *nochatter.API) nochatter.Report {
		for i := 0; i < rounds; i++ {
			a.TakePort(0)
		}
		return nochatter.Report{}
	}
	team := []nochatter.AgentSpec{
		{Label: 1, Start: 0, WakeRound: 0, Program: prog},
		{Label: 2, Start: 2, WakeRound: 0, Program: prog},
		{Label: 3, Start: 4, WakeRound: 0, Program: prog},
		{Label: 4, Start: 6, WakeRound: 0, Program: prog},
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := nochatter.Run(nochatter.Scenario{Graph: g, Agents: team, MaxRounds: rounds + 8})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.SteppedRounds != rounds+1 {
		b.Fatalf("stepped %d rounds, want %d: the workload was fast-forwarded", res.SteppedRounds, rounds+1)
	}
	// Each agent is resumed once per move and once more to halt.
	handoffs := len(team) * (rounds + 1)
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(res.SteppedRounds), "ns/stepped-round")
	b.ReportMetric(ns/float64(handoffs), "ns/handoff")
}

// BenchmarkSequenceBuild measures universal-sequence construction, the
// per-run setup cost.
func BenchmarkSequenceBuild(b *testing.B) {
	graphs := []*nochatter.Graph{
		nochatter.Ring(16), nochatter.Grid(4, 4), nochatter.GNP(16, 0.3, 7),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := nochatter.BuildSequence(graphs[i%len(graphs)])
		if s.EffectiveLen() == 0 {
			b.Fatal("empty sequence")
		}
	}
}

// BenchmarkGatherRing8 measures one end-to-end gathering on an 8-ring.
func BenchmarkGatherRing8(b *testing.B) {
	g := nochatter.Ring(8)
	seq := nochatter.BuildSequence(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := nochatter.Run(nochatter.Scenario{
			Graph: g,
			Agents: []nochatter.AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: nochatter.GatherKnownUpperBound(seq)},
				{Label: 2, Start: 4, WakeRound: 0, Program: nochatter.GatherKnownUpperBound(seq)},
			},
		})
		if err != nil || !res.AllHaltedTogether() {
			b.Fatalf("gather failed: %v", err)
		}
	}
}

// BenchmarkGatherRing16 measures a wait-heavy end-to-end gathering: a
// 16-ring with two-digit labels, where the paper's D_k waiting phases
// dominate the schedule. This is the headline case for the event-driven
// engine's round skipping (see BENCH_PR1.json for the recorded trajectory).
func BenchmarkGatherRing16(b *testing.B) {
	g := nochatter.Ring(16)
	seq := nochatter.BuildSequence(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nochatter.Run(nochatter.Scenario{
			Graph: g,
			Agents: []nochatter.AgentSpec{
				{Label: 21, Start: 0, WakeRound: 0, Program: nochatter.GatherKnownUpperBound(seq)},
				{Label: 35, Start: 8, WakeRound: 0, Program: nochatter.GatherKnownUpperBound(seq)},
			},
		})
		if err != nil || !res.AllHaltedTogether() {
			b.Fatalf("gather failed: %v", err)
		}
	}
}

// BenchmarkBatchGatherSweep measures the parallel batch runner on a sweep of
// independent gather scenarios (one per ring size), the shape of every
// experiment in internal/experiments.
func BenchmarkBatchGatherSweep(b *testing.B) {
	sizes := []int{4, 6, 8, 10, 12}
	scs := make([]nochatter.Scenario, len(sizes))
	for i, n := range sizes {
		g := nochatter.Ring(n)
		seq := nochatter.BuildSequence(g)
		scs[i] = nochatter.Scenario{
			Graph: g,
			Agents: []nochatter.AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: nochatter.GatherKnownUpperBound(seq)},
				{Label: 2, Start: n / 2, WakeRound: 0, Program: nochatter.GatherKnownUpperBound(seq)},
			},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, br := range nochatter.RunBatch(scs) {
			if br.Err != nil || !br.Result.AllHaltedTogether() {
				b.Fatalf("case %d failed: %v", br.Index, br.Err)
			}
		}
	}
}

// BenchmarkBaselineRing8 measures the talking-model comparison point.
func BenchmarkBaselineRing8(b *testing.B) {
	g := nochatter.Ring(8)
	seq := nochatter.BuildSequence(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nochatter.BaselineGather(g, seq, []nochatter.BaselineSpec{
			{Label: 1, Start: 0}, {Label: 2, Start: 4},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
