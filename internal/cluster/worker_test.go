package cluster

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestWithRetriesEdgeCases drives a Worker built with out-of-range
// WithRetries values against a backend that answers 503 for its first
// failFirst requests (every request when failFirst < 0) and 200 after.
// Negative values must behave as 0 — every request is sent at least once,
// and a negative backoff retries immediately — and no setting may panic
// in the backoff arithmetic: a huge backoff saturates and waits for the
// context, a huge retry count keeps retrying until the context ends.
func TestWithRetriesEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		retries   int
		backoff   time.Duration
		failFirst int
		timeout   time.Duration
		wantErr   error // nil: the call must succeed
		wantReqs  int   // exact request count; 0 means "at least 2"
	}{
		{"negative retries", -1, time.Millisecond, 0, 0, nil, 1},
		{"negative backoff", 2, -time.Second, 1, 0, nil, 2},
		{"huge backoff", 1, math.MaxInt64, -1, 50 * time.Millisecond, context.DeadlineExceeded, 1},
		{"huge retry count", math.MaxInt, time.Nanosecond, -1, 100 * time.Millisecond, context.DeadlineExceeded, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reqs atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if n := reqs.Add(1); tc.failFirst < 0 || n <= int64(tc.failFirst) {
					http.Error(w, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
					return
				}
				_, _ = w.Write([]byte(`{"specs_executed":7}`))
			}))
			defer srv.Close()
			w := NewWorker(srv.URL, WithRetries(tc.retries, tc.backoff))

			ctx := context.Background()
			if tc.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.timeout)
				defer cancel()
			}
			err := w.Cancel(ctx, "j1")
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Cancel: %v, want %v", err, tc.wantErr)
			}
			got := int(reqs.Load())
			if tc.wantReqs > 0 && got != tc.wantReqs {
				t.Fatalf("Cancel sent %d requests, want %d", got, tc.wantReqs)
			}
			if tc.wantReqs == 0 && got < 2 {
				t.Fatalf("Cancel sent %d requests, want retries", got)
			}
			if tc.wantErr == nil {
				m, err := w.Metrics(context.Background())
				if err != nil || m.SpecsExecuted != 7 {
					t.Fatalf("Metrics = %+v, %v; want specs_executed 7", m, err)
				}
			}
		})
	}
}

// TestRetryDelaySaturates checks the backoff arithmetic at attempt counts
// far past the point where doubling would overflow a Duration: every
// delay stays positive and never falls below the (capped) first backoff.
func TestRetryDelaySaturates(t *testing.T) {
	for _, backoff := range []time.Duration{time.Nanosecond, 100 * time.Millisecond, math.MaxInt64} {
		w := NewWorker("http://127.0.0.1:1", WithRetries(math.MaxInt, backoff))
		for _, attempt := range []int{1, 2, 30, 62, 63, 64, 65, 1000, math.MaxInt} {
			d := w.retryDelay(attempt)
			if d <= 0 {
				t.Fatalf("backoff %v attempt %d: delay %v, want positive", backoff, attempt, d)
			}
			if d < min(backoff, maxRetryDelay) {
				t.Fatalf("backoff %v attempt %d: delay %v below the first retry's", backoff, attempt, d)
			}
		}
	}
}
