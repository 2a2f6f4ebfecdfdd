package sim

import (
	"errors"
	"testing"
	"time"

	"nochatter/internal/graph"
)

// haltAfter returns a program that waits for w rounds and halts.
func haltAfter(w int) Program {
	return func(a *API) Report {
		a.WaitRounds(w)
		return Report{}
	}
}

func TestValidation(t *testing.T) {
	g := graph.Ring(4)
	ok := AgentSpec{Label: 1, Start: 0, WakeRound: 0, Program: haltAfter(0)}
	tests := []struct {
		name   string
		sc     Scenario
		wanted error
	}{
		{"no agents", Scenario{Graph: g}, ErrNoAgents},
		{"bad label", Scenario{Graph: g, Agents: []AgentSpec{{Label: 0, Start: 0, Program: haltAfter(0)}}}, ErrBadLabel},
		{"dup label", Scenario{Graph: g, Agents: []AgentSpec{ok, {Label: 1, Start: 1, WakeRound: 0, Program: haltAfter(0)}}}, ErrDuplicateLabel},
		{"dup start", Scenario{Graph: g, Agents: []AgentSpec{ok, {Label: 2, Start: 0, WakeRound: 0, Program: haltAfter(0)}}}, ErrDuplicateStart},
		{"bad start", Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 9, WakeRound: 0, Program: haltAfter(0)}}}, ErrBadStart},
		{"no zero wake", Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 3, Program: haltAfter(0)}}}, ErrNoWake},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(tt.sc)
			if !errors.Is(err, tt.wanted) {
				t.Fatalf("got %v, want %v", err, tt.wanted)
			}
		})
	}
}

func TestWalkAndEntryPorts(t *testing.T) {
	g := graph.Ring(5)
	var entries []int
	prog := func(a *API) Report {
		if a.EntryPort() != -1 {
			t.Error("fresh agent should have entry port -1")
		}
		for i := 0; i < 5; i++ {
			entries = append(entries, a.TakePort(0)) // clockwise
		}
		return Report{}
	}
	res, err := Run(Scenario{
		Graph:  g,
		Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e != 1 {
			t.Errorf("entry %d = %d, want 1", i, e)
		}
	}
	if got := res.Agents[0].FinalNode; got != 0 {
		t.Errorf("after 5 clockwise steps on a 5-ring, node = %d, want 0", got)
	}
	if res.Agents[0].HaltRound != 5 {
		t.Errorf("halt round = %d, want 5", res.Agents[0].HaltRound)
	}
}

func TestCurCardSeesAllBodies(t *testing.T) {
	// Agent 1 walks onto the start node of dormant agent 2 and must observe
	// CurCard == 2 on arrival; agent 2 must wake that round.
	g := graph.Path(3)
	var seen []int
	mover := func(a *API) Report {
		seen = append(seen, a.CurCard())
		a.TakePort(0) // node 0 -> node 1
		seen = append(seen, a.CurCard())
		return Report{}
	}
	sleeper := func(a *API) Report {
		// Woken by visit; observe and halt.
		seen = append(seen, 100+a.CurCard())
		return Report{}
	}
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: mover},
			{Label: 2, Start: 1, WakeRound: DormantUntilVisited, Program: sleeper},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 102}
	if len(seen) != len(want) {
		t.Fatalf("seen = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen = %v, want %v", seen, want)
		}
	}
	if res.Agents[1].WokenRound != 1 {
		t.Errorf("sleeper woke at %d, want 1", res.Agents[1].WokenRound)
	}
}

func TestSimultaneousSwapDoesNotMeet(t *testing.T) {
	// Two agents crossing the same edge in opposite directions never observe
	// each other (they pass inside the edge).
	g := graph.TwoNodes()
	cards := map[int][]int{}
	prog := func(a *API) Report {
		cards[a.Label()] = append(cards[a.Label()], a.CurCard())
		a.TakePort(0)
		cards[a.Label()] = append(cards[a.Label()], a.CurCard())
		return Report{}
	}
	_, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: prog},
			{Label: 2, Start: 1, WakeRound: 0, Program: prog},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for label, cs := range cards {
		for i, c := range cs {
			if c != 1 {
				t.Errorf("label %d observation %d: CurCard = %d, want 1 (crossed on edge)", label, i, c)
			}
		}
	}
}

func TestBadPortFailsRun(t *testing.T) {
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		a.TakePort(7)
		return Report{}
	}
	_, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}})
	if err == nil {
		t.Fatal("want error for nonexistent port")
	}
}

func TestMaxRounds(t *testing.T) {
	g := graph.TwoNodes()
	forever := func(a *API) Report {
		for {
			a.Wait()
		}
	}
	_, err := Run(Scenario{
		Graph:     g,
		MaxRounds: 50,
		Agents:    []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: forever}},
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("got %v, want ErrMaxRounds", err)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.GNP(8, 0.4, 11)
	run := func() []int {
		var trace []int
		prog := func(a *API) Report {
			for i := 0; i < 40; i++ {
				a.TakePort((a.Label() + i) % a.Degree())
			}
			return Report{}
		}
		res, err := Run(Scenario{
			Graph: g,
			Agents: []AgentSpec{
				{Label: 3, Start: 0, WakeRound: 0, Program: prog},
				{Label: 5, Start: 4, WakeRound: 2, Program: prog},
			},
			OnRound: func(v RoundView) {
				trace = append(trace, v.Positions...)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, res.Agents[0].FinalNode, res.Agents[1].FinalNode)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestRunInterruptible(t *testing.T) {
	// Agent 2 arrives at agent 1's node in round 2; agent 1 is inside an
	// interruptible wait-forever block with predicate CurCard > 1 and must
	// break out exactly then.
	g := graph.Path(3)
	var interruptedAt int
	watcher := func(a *API) Report {
		c := a.CurCard()
		hit := a.RunInterruptible(
			func(a *API) bool { return a.CurCard() > c },
			func(a *API) { a.WaitRounds(1000) },
		)
		if !hit {
			t.Error("block should have been interrupted")
		}
		interruptedAt = a.LocalRound()
		return Report{}
	}
	walker := func(a *API) Report {
		a.TakePort(0) // 2 -> 1
		a.TakePort(0) // 1 -> 0
		return Report{}
	}
	_, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: watcher},
			{Label: 2, Start: 2, WakeRound: 0, Program: walker},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if interruptedAt != 2 {
		t.Errorf("interrupted at local round %d, want 2", interruptedAt)
	}
}

func TestNestedInterrupts(t *testing.T) {
	// Outer predicate triggers at local round 3, inner at local round 5:
	// the outer interruption must unwind through the inner frame.
	g := graph.TwoNodes()
	var outerHit, innerHit bool
	prog := func(a *API) Report {
		outerHit = a.RunInterruptible(
			func(a *API) bool { return a.LocalRound() >= 3 },
			func(a *API) {
				innerHit = a.RunInterruptible(
					func(a *API) bool { return a.LocalRound() >= 5 },
					func(a *API) { a.WaitRounds(100) },
				)
			},
		)
		return Report{}
	}
	_, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}})
	if err != nil {
		t.Fatal(err)
	}
	if !outerHit {
		t.Error("outer frame should have interrupted")
	}
	if innerHit {
		t.Error("inner frame should not report interruption (outer unwound it)")
	}
}

func TestInterruptOnEntry(t *testing.T) {
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		hit := a.RunInterruptible(
			func(a *API) bool { return true },
			func(a *API) { t.Error("block must not run"); a.Wait() },
		)
		if !hit {
			t.Error("want immediate interruption")
		}
		return Report{}
	}
	if _, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}}); err != nil {
		t.Fatal(err)
	}
}

func TestAllHaltedTogether(t *testing.T) {
	g := graph.Path(2)
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: haltAfter(3)},
			{Label: 2, Start: 1, WakeRound: 0, Program: haltAfter(3)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllHaltedTogether() {
		t.Error("agents halted at different nodes; must not count as gathered")
	}
	// Same node, same round.
	join := func(a *API) Report {
		if a.Label() == 2 {
			a.TakePort(0)
			a.WaitRounds(1)
		} else {
			a.WaitRounds(2)
		}
		return Report{}
	}
	res, err = Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: join},
			{Label: 2, Start: 1, WakeRound: 0, Program: join},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllHaltedTogether() {
		t.Error("want gathered: same node, same halt round")
	}
}

func TestDelayedWake(t *testing.T) {
	g := graph.Ring(4)
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: haltAfter(1)},
			{Label: 2, Start: 2, WakeRound: 7, Program: haltAfter(1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents[1].WokenRound != 7 {
		t.Errorf("woken at %d, want 7", res.Agents[1].WokenRound)
	}
	if res.Agents[1].HaltRound != 8 {
		t.Errorf("halted at %d, want 8", res.Agents[1].HaltRound)
	}
}

func TestAgentPanicFailsRunWithoutHanging(t *testing.T) {
	// A panicking agent program must surface as a run error promptly; the
	// cleanup path must unwind the other agent's suspended coroutine and
	// leave the already-finished one alone.
	g := graph.Ring(4)
	sc := Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				a.Wait()
				panic("agent bug")
			}},
			{Label: 2, Start: 2, WakeRound: 0, Program: func(a *API) Report {
				a.WaitRounds(1000) // mid-bulk-wait while the other agent dies
				return Report{}
			}},
		},
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := Run(sc)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("want error from panicking agent")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung after agent panic (cleanup did not return)")
	}
}
