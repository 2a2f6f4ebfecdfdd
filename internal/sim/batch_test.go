package sim

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"nochatter/internal/graph"
)

// batchScenarios builds k independent two-agent scenarios with varying
// meeting rounds.
func batchScenarios(k int) []Scenario {
	out := make([]Scenario, k)
	for i := range out {
		d := i + 1
		out[i] = Scenario{
			Graph: graph.Ring(6),
			Agents: []AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
					a.WaitRounds(10 * d)
					return Report{Leader: d}
				}},
				{Label: 2, Start: 3, WakeRound: 0, Program: func(a *API) Report {
					a.WaitRounds(10 * d)
					return Report{Leader: d}
				}},
			},
		}
	}
	return out
}

func TestRunBatchOrderAndParallelismInvariance(t *testing.T) {
	scs := batchScenarios(9)
	seq := RunBatch(scs, WithParallelism(1))
	par := RunBatch(scs, WithParallelism(4))
	if len(seq) != len(par) || len(seq) != 9 {
		t.Fatalf("result counts: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("case %d errored: %v / %v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Index != i || par[i].Index != i {
			t.Errorf("case %d: indices %d / %d", i, seq[i].Index, par[i].Index)
		}
		if want := 10 * (i + 1); seq[i].Result.Rounds != want {
			t.Errorf("case %d: rounds %d, want %d", i, seq[i].Result.Rounds, want)
		}
		if !reflect.DeepEqual(seq[i].Result.Agents, par[i].Result.Agents) {
			t.Errorf("case %d: sequential and parallel results diverge", i)
		}
	}
}

func TestRunBatchErrorIsolation(t *testing.T) {
	scs := batchScenarios(3)
	scs[1].Agents = nil // invalid: must fail alone
	out := RunBatch(scs, WithParallelism(2))
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("healthy scenarios errored: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Error("invalid scenario did not error")
	}
}

func TestRunnerDefaults(t *testing.T) {
	var hooked atomic.Int64
	r := NewRunner(
		WithMaxRounds(25),
		WithOnRound(func(RoundView) { hooked.Add(1) }),
	)
	// The default MaxRounds must abort a non-halting scenario...
	_, err := r.Run(Scenario{
		Graph: graph.TwoNodes(),
		Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
			for {
				a.Wait()
			}
		}}},
	})
	if err == nil {
		t.Fatal("runner MaxRounds default not applied")
	}
	if hooked.Load() == 0 {
		t.Error("runner OnRound default not applied")
	}
	// ...but a scenario's own MaxRounds wins.
	hooked.Store(0)
	res, err := r.Run(Scenario{
		Graph:     graph.TwoNodes(),
		MaxRounds: 1000,
		Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
			a.WaitRounds(100)
			return Report{}
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 100 {
		t.Errorf("rounds %d, want 100", res.Rounds)
	}
}

func TestRunBatchEmpty(t *testing.T) {
	if out := RunBatch(nil); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
}

// TestPoolContract pins ForEach and Workers, the pool under RunBatch,
// FoldBatch and the service's job executor: every index is visited exactly
// once, worker ids stay in range, and Workers resolves and caps parallelism.
func TestPoolContract(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		for _, workers := range []int{1, 2, 8} {
			visits := make([]atomic.Int64, n)
			var badW atomic.Int64
			ForEach(n, workers, func(w, i int) {
				if w < 0 || w >= max(workers, 1) {
					badW.Add(1)
				}
				visits[i].Add(1)
			})
			if badW.Load() != 0 {
				t.Errorf("n=%d workers=%d: %d calls with out-of-range worker id", n, workers, badW.Load())
			}
			for i := range visits {
				if c := visits[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, p, want int }{
		{0, 0, 0}, {0, 4, 0}, {0, -1, 0},
		{3, 8, 3}, {8, 3, 3}, {5, 5, 5},
		{1 << 20, 0, procs}, {1 << 20, -2, procs}, {2, 0, min(2, procs)},
	} {
		if got := Workers(tc.n, tc.p); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
	fresh := 0
	got := FoldBatch(NewRunner(), nil, func() *int { fresh++; return new(int) },
		func(*int, BatchResult) { t.Error("fold called on an empty batch") },
		func(dst, src *int) { *dst += *src })
	if got == nil || *got != 0 || fresh != 1 {
		t.Errorf("empty FoldBatch: got %v after %d newA calls, want a fresh accumulator", got, fresh)
	}
}
