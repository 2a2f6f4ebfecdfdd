package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBacklogFullSubmitDeregisters is the regression test for the
// backlog-full job leak: a submission rejected because the pending channel
// is full used to stay registered in q.jobs/q.order under an ID the caller
// never received, occupying a retention slot until eviction.
func TestBacklogFullSubmitDeregisters(t *testing.T) {
	release := make(chan struct{})
	q := newQueue(1, 1, 100, func(jb *job) {
		<-release
		jb.finish(JobDone, "")
	})
	defer func() { close(release); q.close() }()

	one := []spec.ScenarioSpec{{Graph: spec.GraphSpec{Family: "ring", N: 4}}}
	first, err := q.submit(one, false)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pop the first job so the single backlog slot
	// is free for the second, which then fills it.
	waitFor(t, "first job running", func() bool { return first.status().State == JobRunning })
	if _, err := q.submit(one, false); err != nil {
		t.Fatal(err)
	}
	_, err = q.submit(one, false)
	if err == nil || !strings.Contains(err.Error(), "backlog full") {
		t.Fatalf("third submit: got %v, want backlog-full error", err)
	}

	q.mu.Lock()
	jobs, order, queued := len(q.jobs), len(q.order), q.queued
	q.mu.Unlock()
	if jobs != 2 || order != 2 {
		t.Errorf("rejected job leaked: %d jobs, %d order entries, want 2/2", jobs, order)
	}
	if queued != 1 {
		t.Errorf("queued count = %d after rejected submit, want 1", queued)
	}
}

// TestQueueDepthExcludesCanceled is the regression test for jobs_queued
// over-reporting: a job canceled while queued sits in the pending channel
// until a worker pops it, but must leave the reported queue depth the
// moment it is canceled.
func TestQueueDepthExcludesCanceled(t *testing.T) {
	svc := New(Config{Workers: 1})
	release := make(chan struct{})
	svc.execute = func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		<-release
		return nil, fmt.Errorf("released")
	}
	defer func() { close(release); svc.Close() }()

	mkSpecs := func(i int) []spec.ScenarioSpec {
		return []spec.ScenarioSpec{{Graph: spec.GraphSpec{Family: "ring", N: 4 + i}}}
	}
	if _, err := svc.SubmitSpecs(mkSpecs(0)); err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) float64 { return svc.Registry().Snapshot()[name].(float64) }
	waitFor(t, "first job running", func() bool { return gauge("jobs_running") == 1 })

	queued, err := svc.SubmitSpecs(mkSpecs(1))
	if err != nil {
		t.Fatal(err)
	}
	if q := gauge("jobs_queued"); q != 1 {
		t.Fatalf("jobs_queued = %v with one queued job, want 1", q)
	}
	if _, ok := svc.CancelJob(queued.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	// The canceled job still occupies a pending-channel slot (the single
	// worker is blocked), but the metric must drop immediately.
	if q := gauge("jobs_queued"); q != 0 {
		t.Fatalf("jobs_queued = %v after canceling the queued job, want 0", q)
	}
	if st, _ := svc.Job(queued.ID); st.State != JobFailed || st.Error != "canceled" {
		t.Fatalf("canceled-while-queued job state = %+v, want failed/canceled", st)
	}
}

// TestCancelRunningSummaryOnlyJob cancels a summary-only job mid-run and
// asserts the full unwind: the job terminalizes as failed, a long-polling
// /summary request unblocks with a non-200, and no goroutines are left
// behind (meaningful under -race, which CI runs).
func TestCancelRunningSummaryOnlyJob(t *testing.T) {
	before := runtime.NumGoroutine()

	// One spec at a time, so the cancel lands while exactly one spec runs
	// and every later spec is still unstarted.
	svc := New(Config{Workers: 1, Parallelism: 1})
	release := make(chan struct{})
	var calls atomic.Int64
	svc.execute = func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		calls.Add(1)
		<-release
		return nil, fmt.Errorf("released")
	}
	srv := httptest.NewServer(svc.Handler())

	body := `{"families":["ring"],"sizes":[6,8,10],"teams":[{"labels":[1,2]}]}`
	resp, err := http.Post(srv.URL+"/v1/sweeps?summary=only", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc SweepAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, "first spec running", func() bool { return calls.Load() == 1 })

	// A summary long-poller arrives while the job is mid-run and blocks.
	summaryCode := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + acc.JobID + "/summary")
		if err != nil {
			summaryCode <- -1
			return
		}
		resp.Body.Close()
		summaryCode <- resp.StatusCode
	}()

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+acc.JobID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// The in-flight spec completes (the engine has no mid-run abort), then
	// the executor observes the cancel mark and fails the job.
	close(release)
	select {
	case code := <-summaryCode:
		if code != http.StatusConflict {
			t.Fatalf("long-polled summary of canceled job: HTTP %d, want 409", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("summary long-poller did not unblock after cancellation")
	}
	waitFor(t, "job terminal", func() bool {
		st, _ := svc.Job(acc.JobID)
		return st.State == JobFailed && st.Error == "canceled"
	})
	// Running jobs stop starting new specs: only the spec in flight at the
	// cancel ever executed.
	if n := calls.Load(); n != 1 {
		t.Errorf("canceled job executed %d specs, want 1 (no spec may start after cancel)", n)
	}

	srv.Close()
	svc.Close()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}
