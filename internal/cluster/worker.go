// Package cluster scales sweeps horizontally across a fleet of gatherd
// workers. A Coordinator deterministically partitions a sweep's expanded
// spec list into contiguous cost-balanced chunks (internal/sched) — many
// more chunks than workers, boundaries a pure function of the spec list
// and the scheduling parameters — lets idle workers pull and steal chunks
// over the existing gatherd HTTP API, and merges the per-chunk
// agg.Summary values into one total in fixed chunk order.
//
// The whole design rests on the reducer laws of internal/agg (DESIGN.md
// §9): observations fold associatively and commutatively, so any partition
// of a sweep into chunks merges back to the summary a single process would
// have computed, bit for bit (Summary.CanonicalJSON — wall time, the one
// machine-decided metric, is excluded as always). Scheduling is therefore
// free of coordination: no chunk ordering, no worker affinity and no
// failover decision can change the result, which is what makes the
// fleet's failure handling simple — when a worker dies mid-job, its chunks
// are simply resubmitted to any surviving worker. See DESIGN.md §10, §12.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/service"
	"nochatter/internal/spec"
)

// Worker is a client of one gatherd backend. It speaks the daemon's
// existing HTTP API: summary-only sweep submission, summary long-polling
// and health probes, with bounded retries and exponential backoff around
// every request. Retrying a submission can at worst create a duplicate
// job on the backend — harmless, because jobs are deterministic functions
// of their specs and the backend's content-addressed caches absorb the
// repeat work.
type Worker struct {
	base    string
	hc      *http.Client
	retries int           // retry attempts beyond the first try
	backoff time.Duration // first retry delay, doubled per attempt

	// Per-attempt deadlines for the bounded requests. Health probes and
	// submissions answer promptly on a live worker, so a connection that
	// hangs without erroring (dropped packets, stopped process) must turn
	// into a failure the coordinator can fail over on — only the summary
	// long-poll is legitimately unbounded (the job may run for hours) and
	// is limited by the caller's context alone.
	probeTimeout  time.Duration
	submitTimeout time.Duration

	// jitter spreads retry delays so that workers which failed together
	// (one backend restart tripping every in-flight chunk) do not retry in
	// lockstep. It is seeded from the worker's base URL — an explicit,
	// auditable source, never the process-global one (the detrand rule) —
	// so jitter is reproducible per worker yet decorrelated across a
	// fleet. Guarded by jmu: job abandonment cancels run concurrently with
	// the worker's own requests.
	jmu    sync.Mutex
	jitter *rand.Rand
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithHTTPClient sets the HTTP client (default: a fresh client with no
// client-level timeout — summary requests long-poll, so one would kill
// legitimate waits; probes and submissions get per-attempt deadlines, and
// the long-poll is bounded by the caller's context).
func WithHTTPClient(hc *http.Client) WorkerOption {
	return func(w *Worker) { w.hc = hc }
}

// WithRetries sets how many times a failed request is retried (default 2)
// and the first retry's backoff delay, doubled per attempt (default 100ms).
// Negative values count as 0: every request is attempted at least once.
func WithRetries(retries int, backoff time.Duration) WorkerOption {
	return func(w *Worker) { w.retries, w.backoff = max(retries, 0), max(backoff, 0) }
}

// NewWorker returns a client for the gatherd at baseURL (scheme://host:port,
// with or without a trailing slash).
func NewWorker(baseURL string, opts ...WorkerOption) *Worker {
	w := &Worker{
		base:          strings.TrimRight(baseURL, "/"),
		hc:            &http.Client{},
		retries:       2,
		backoff:       100 * time.Millisecond,
		probeTimeout:  5 * time.Second,
		submitTimeout: 30 * time.Second,
	}
	for _, opt := range opts {
		opt(w)
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(w.base))
	w.jitter = rand.New(rand.NewPCG(h.Sum64(), 0x6e6f636861747465))
	return w
}

// Base returns the worker's base URL.
func (w *Worker) Base() string { return w.base }

// RejectedError reports a request the backend answered with a client
// error (4xx). Some rejections are deterministic verdicts on the shard
// itself (malformed specs, a shard over the worker's expansion limit) and
// some are worker-local conditions behind the same status (a full job
// backlog is a 422 too, an evicted job a 404) — the status alone cannot
// tell them apart. The coordinator therefore reroutes a rejected shard to
// the next worker WITHOUT marking the rejecting worker dead: a transient
// rejection lands the shard somewhere with capacity, a deterministic one
// is re-rejected by every worker and fails the shard with the backend's
// message, and either way a healthy-but-refusing worker keeps serving the
// other shards.
type RejectedError struct {
	Status int
	Msg    string
}

func (e *RejectedError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Status, e.Msg) }

// IsRejected reports whether err wraps a RejectedError — a 4xx verdict the
// coordinator reroutes without retiring the answering worker.
func IsRejected(err error) bool {
	var rejected *RejectedError
	return errors.As(err, &rejected)
}

// Healthy probes GET /healthz once, on its own short deadline (no retries
// and no open-ended waits — a probe that needs either is the answer).
func (w *Worker) Healthy(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, w.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// WorkerMetrics is the subset of a backend's /metrics document that
// /v1/fleet reports per worker: queue pressure, in-flight work and cache
// effectiveness. Unknown keys in the backend document are ignored, so a
// newer backend stays probeable.
type WorkerMetrics struct {
	JobsQueued    int64   `json:"jobs_queued"`
	JobsRunning   int64   `json:"jobs_running"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	SpecsExecuted int64   `json:"specs_executed"`
}

// Metrics fetches GET /metrics on the worker's own short deadline (like a
// health probe, a metrics scrape that hangs is itself the answer).
func (w *Worker) Metrics(ctx context.Context) (WorkerMetrics, error) {
	data, err := w.do(ctx, http.MethodGet, "/metrics", nil, http.StatusOK, w.probeTimeout)
	if err != nil {
		return WorkerMetrics{}, err
	}
	var m WorkerMetrics
	if err := json.Unmarshal(data, &m); err != nil {
		return WorkerMetrics{}, fmt.Errorf("cluster: %s: decoding metrics: %w", w.base, err)
	}
	return m, nil
}

// Status fetches one job's live status (state, specs completed so far) on
// a probe deadline — the polling half of a -watch loop, next to the
// summary long-poll that actually delivers the result.
func (w *Worker) Status(ctx context.Context, jobID string) (service.JobStatus, error) {
	data, err := w.do(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, http.StatusOK, w.probeTimeout)
	if err != nil {
		return service.JobStatus{}, err
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return service.JobStatus{}, fmt.Errorf("cluster: %s: decoding job status: %w", w.base, err)
	}
	return st, nil
}

// Fleet fetches GET /v1/fleet. Plain workers answer 404 (a RejectedError
// here), which is how a watch loop discovers its target is not a
// coordinator and stops asking.
func (w *Worker) Fleet(ctx context.Context) (FleetStatus, error) {
	data, err := w.do(ctx, http.MethodGet, "/v1/fleet", nil, http.StatusOK, w.probeTimeout)
	if err != nil {
		return FleetStatus{}, err
	}
	var fs FleetStatus
	if err := json.Unmarshal(data, &fs); err != nil {
		return FleetStatus{}, fmt.Errorf("cluster: %s: decoding fleet status: %w", w.base, err)
	}
	return fs, nil
}

// SubmitSummaryOnly submits the spec list as a summary-only sweep job
// (POST /v1/sweeps?summary=only, the specs traveling as a SweepDef's
// explicit list) and returns the job id to poll.
func (w *Worker) SubmitSummaryOnly(ctx context.Context, specs []spec.ScenarioSpec) (string, error) {
	acc, err := w.SubmitDef(ctx, spec.SweepDef{Explicit: specs})
	return acc.JobID, err
}

// SubmitDef submits a sweep definition document as a summary-only job and
// returns the backend's acceptance envelope — the raw-document form
// gathersim -remote uses (the coordinator's shards go through
// SubmitSummaryOnly instead).
func (w *Worker) SubmitDef(ctx context.Context, def spec.SweepDef) (service.SweepAccepted, error) {
	body, err := json.Marshal(def)
	if err != nil {
		return service.SweepAccepted{}, err
	}
	data, err := w.do(ctx, http.MethodPost, "/v1/sweeps?summary=only", body, http.StatusAccepted, w.submitTimeout)
	if err != nil {
		return service.SweepAccepted{}, err
	}
	var acc service.SweepAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		return service.SweepAccepted{}, fmt.Errorf("cluster: %s: decoding sweep acceptance: %w", w.base, err)
	}
	if acc.JobID == "" {
		return service.SweepAccepted{}, fmt.Errorf("cluster: %s: answered 202 but not with a gatherd sweep acceptance", w.base)
	}
	return acc, nil
}

// Summary long-polls GET /v1/jobs/{id}/summary until the backend serves
// the job's merged aggregate (the endpoint blocks until the job is
// terminal) and returns it. A job that terminalized without a summary —
// failed or canceled on the backend — is an error.
func (w *Worker) Summary(ctx context.Context, jobID string) (*agg.Summary, error) {
	resp, err := w.SummaryResponse(ctx, jobID)
	if err != nil {
		return nil, err
	}
	return resp.Summary, nil
}

// SummaryResponse is Summary returning the full wire envelope (summary
// cache flag, derived key) alongside the aggregate, for clients that
// report those — gathersim -remote.
func (w *Worker) SummaryResponse(ctx context.Context, jobID string) (service.SummaryResponse, error) {
	data, err := w.do(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/summary", nil, http.StatusOK, 0)
	if err != nil {
		return service.SummaryResponse{}, err
	}
	var resp service.SummaryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return service.SummaryResponse{}, fmt.Errorf("cluster: %s: decoding summary: %w", w.base, err)
	}
	if resp.Summary == nil {
		return service.SummaryResponse{}, fmt.Errorf("cluster: %s: job %s returned no summary", w.base, jobID)
	}
	return resp, nil
}

// do performs one request with bounded retries: transport errors and 5xx
// responses back off and retry (the worker may be restarting or briefly
// overloaded); any other non-want status is a terminal, descriptive error.
// A non-zero perAttempt deadline bounds each attempt, so a connection that
// hangs without erroring still becomes a failure the coordinator can fail
// over on; 0 leaves the attempt bounded by ctx alone — correct only for
// the summary long-poll, which legitimately blocks as long as the job runs.
func (w *Worker) do(ctx context.Context, method, path string, body []byte, want int, perAttempt time.Duration) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= w.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(w.retryDelay(attempt)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		data, status, err := w.attempt(ctx, method, path, body, perAttempt)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = fmt.Errorf("cluster: %s: %s %s: %w", w.base, method, path, err)
			continue
		}
		if status == want {
			return data, nil
		}
		if status < 500 { // the request itself is bad; retrying repeats it
			return nil, fmt.Errorf("cluster: %s: %s %s: %w",
				w.base, method, path, &RejectedError{Status: status, Msg: errorBody(data)})
		}
		lastErr = fmt.Errorf("cluster: %s: %s %s: HTTP %d: %s",
			w.base, method, path, status, errorBody(data))
	}
	return nil, lastErr
}

// maxRetryDelay caps the exponential base delay, so neither the doubling
// nor the jitter added on top can overflow a Duration.
const maxRetryDelay = time.Duration(math.MaxInt64 / 2)

// retryDelay is the wait before retry number attempt (≥ 1): the backoff
// doubled per earlier retry, never above maxRetryDelay, plus full jitter
// of up to +100% that decorrelates workers whose retries a shared failure
// aligned.
func (w *Worker) retryDelay(attempt int) time.Duration {
	delay := min(w.backoff, maxRetryDelay)
	for i := 1; i < attempt && delay > 0 && delay <= maxRetryDelay/2; i++ {
		delay <<= 1
	}
	w.jmu.Lock()
	defer w.jmu.Unlock()
	return delay + time.Duration(w.jitter.Int64N(int64(delay)+1))
}

// attempt performs one HTTP round trip under the optional per-attempt
// deadline, returning the body and status.
func (w *Worker) attempt(ctx context.Context, method, path string, body []byte, perAttempt time.Duration) ([]byte, int, error) {
	if perAttempt > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, perAttempt)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, 0, fmt.Errorf("reading response: %w", err)
	}
	return data, resp.StatusCode, nil
}

// Cancel issues a best-effort DELETE for a job the caller is abandoning —
// a canceled sweep, or a shard moving to another worker — so the backend
// stops burning its bounded job workers on output nobody will read.
// Canceling an already-terminal job is a harmless no-op server-side.
func (w *Worker) Cancel(ctx context.Context, jobID string) error {
	_, err := w.do(ctx, http.MethodDelete, "/v1/jobs/"+jobID, nil, http.StatusOK, w.submitTimeout)
	return err
}

// errorBody extracts the service's uniform {"error": ...} message, falling
// back to a clipped raw body for anything else.
func errorBody(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(bytes.TrimSpace(data))
}
