package sim

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nochatter/internal/graph"
)

// waitGoroutines polls until the goroutine count is back to at most
// baseline, failing the test if it is still above it after the deadline.
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines left, baseline %d", what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbortPathsLeaveNothingBehind drives every way a run can end early
// while other agents are suspended mid-instruction, and checks that Run
// returns the right error, that every started program was unwound (its
// deferred calls ran) before Run returned, and that no goroutine outlives
// the runs.
func TestAbortPathsLeaveNothingBehind(t *testing.T) {
	g := graph.Ring(6)
	var started, unwound atomic.Int64
	// track wraps a program so the test can count how many were started and
	// how many have finished unwinding.
	track := func(p Program) Program {
		return func(a *API) Report {
			started.Add(1)
			defer unwound.Add(1)
			return p(a)
		}
	}
	walker := track(func(a *API) Report {
		ports := make([]int, 1000)
		for i := range ports {
			ports[i] = i % 2
		}
		a.WalkPorts(ports)
		return Report{}
	})
	sleeper := track(func(a *API) Report {
		a.WaitRounds(1_000_000)
		return Report{}
	})
	framed := track(func(a *API) Report {
		// Suspended inside a declarative interrupt frame, so the abort
		// unwinds through RunUntil's recovery as well.
		a.RunUntil(CardAtLeast(6), func(a *API) {
			a.WaitUntil(LocalRoundReached(1_000_000))
		})
		return Report{}
	})
	cases := []struct {
		name    string
		culprit Program
		max     int
		want    func(error) bool
	}{
		{"max-rounds", track(func(a *API) Report {
			a.WaitRounds(1_000_000)
			return Report{}
		}), 50, func(err error) bool { return errors.Is(err, ErrMaxRounds) }},
		{"panic", track(func(a *API) Report {
			a.WaitRounds(3)
			panic("agent bug")
		}), 0, func(err error) bool { return strings.Contains(err.Error(), "agent program panicked") }},
		{"nonexistent-port", track(func(a *API) Report {
			a.WaitRounds(3)
			a.TakePort(7)
			return Report{}
		}), 0, func(err error) bool { return strings.Contains(err.Error(), "nonexistent port 7") }},
		{"nonexistent-walk-port", track(func(a *API) Report {
			a.WalkPorts([]int{0, 1, 0, 9})
			return Report{}
		}), 0, func(err error) bool { return strings.Contains(err.Error(), "walked nonexistent port 9") }},
	}
	baseline := runtime.NumGoroutine()
	for _, c := range cases {
		started.Store(0)
		unwound.Store(0)
		_, err := Run(Scenario{
			Graph:     g,
			MaxRounds: c.max,
			Agents: []AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: walker},
				{Label: 2, Start: 2, WakeRound: 0, Program: sleeper},
				{Label: 3, Start: 3, WakeRound: 0, Program: framed},
				{Label: 4, Start: 4, WakeRound: 0, Program: c.culprit},
			},
		})
		if err == nil || !c.want(err) {
			t.Errorf("%s: got error %v", c.name, err)
		}
		if s, u := started.Load(), unwound.Load(); s != 4 || u != s {
			t.Errorf("%s: %d programs started, %d unwound when Run returned; want 4 and 4", c.name, s, u)
		}
		waitGoroutines(t, baseline, c.name)
	}
}

// TestAgentGoexitEndsRunCaller checks that an agent program calling
// runtime.Goexit (as t.FailNow inside a program would) cannot hang the
// engine: the Goexit ends the goroutine that called Run, after Run's cleanup
// has unwound the other agents, and no coroutine is left behind.
func TestAgentGoexitEndsRunCaller(t *testing.T) {
	var unwound atomic.Bool
	sc := Scenario{
		Graph: graph.Ring(4),
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				a.Wait()
				runtime.Goexit()
				return Report{}
			}},
			{Label: 2, Start: 2, WakeRound: 0, Program: func(a *API) Report {
				defer unwound.Store(true)
				a.WaitRounds(1000)
				return Report{}
			}},
		},
	}
	baseline := runtime.NumGoroutine()
	done := make(chan struct{})
	var returned atomic.Bool
	go func() {
		defer close(done)
		_, _ = Run(sc)
		returned.Store(true)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the goroutine calling Run did not terminate after an agent called runtime.Goexit")
	}
	if returned.Load() {
		t.Error("Run returned; want the agent's Goexit to end its caller")
	}
	if !unwound.Load() {
		t.Error("the suspended agent was not unwound")
	}
	waitGoroutines(t, baseline, "goexit")
}
