package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/server"
)

// retryClient is a client whose reads retry per opt; nothing listens at its
// address, and the attempts below never dial it.
func retryClient(t *testing.T, opt Options) *Client {
	t.Helper()
	c := New("http://127.0.0.1:1", opt)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRetryPolicyDo pins the retry loop's attempt accounting: n retries
// mean n+1 attempts, non-retryable errors stop immediately, and a cancelled
// context interrupts the backoff wait.
func TestRetryPolicyDo(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	c := retryClient(t, Options{MaxRetries: 2, Linger: -1, Clock: clk})
	go func() {
		clk.BlockUntil(1)
		clk.Advance(50 * time.Millisecond)
		clk.BlockUntil(1)
		clk.Advance(100 * time.Millisecond)
	}()
	calls := 0
	err := c.retry(context.Background(), func() error {
		calls++
		return &Error{Status: 500, Code: server.CodeInternal}
	})
	if calls != 3 {
		t.Fatalf("2 retries made %d attempts, want 3", calls)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Status != 500 {
		t.Fatalf("exhausted retry returned %v", err)
	}

	calls = 0
	err = c.retry(context.Background(), func() error {
		calls++
		return &Error{Status: 400, Code: server.CodeBadRequest}
	})
	if calls != 1 || err == nil {
		t.Fatalf("non-retryable error: %d attempts, err %v", calls, err)
	}

	calls = 0
	if err := c.retry(context.Background(), func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("success path: %d attempts, err %v", calls, err)
	}

	// Negative retries disable retrying entirely.
	calls = 0
	c = retryClient(t, Options{MaxRetries: -1})
	c.retry(context.Background(), func() error {
		calls++
		return &Error{Status: 503, Code: server.CodeDraining}
	})
	if calls != 1 {
		t.Fatalf("MaxRetries -1 made %d attempts, want 1", calls)
	}

	// A cancelled context stops the loop during the wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c = retryClient(t, Options{MaxRetries: 5, Clock: clk}) // never advanced again
	err = c.retry(ctx, func() error { return &Error{Status: 500} })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled backoff wait returned %v", err)
	}
}

// TestRetrySchedule: a read that keeps failing with MaxRetries 3
// waits out backoffs of 50, 100 and 200ms of the client's clock, each due
// exactly then and not a nanosecond before, and no real time is slept: a
// wait on the wall clock would leave BlockUntil waiting forever.
func TestRetrySchedule(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	clk := clock.NewManual(time.Unix(0, 0))
	c := New(ts.URL, Options{MaxRetries: 3, Linger: -1, Clock: clk})
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Similarity(context.Background(), 1, 2)
		done <- err
	}()
	for i, d := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		clk.BlockUntil(1)
		if n := calls.Load(); n != int64(i+1) {
			t.Fatalf("%d attempts before backoff %d, want %d", n, i+1, i+1)
		}
		clk.Advance(d - time.Nanosecond)
		if clk.Waiters() != 1 {
			t.Fatalf("backoff %d fired before %v", i+1, d)
		}
		clk.Advance(time.Nanosecond)
		if clk.Waiters() != 0 {
			t.Fatalf("backoff %d still parked at %v", i+1, d)
		}
	}
	var apiErr *Error
	if err := <-done; !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("exhausted retries returned %v, want the server's 500", err)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("%d attempts, want 4 (MaxRetries=3)", n)
	}
}

// TestRetryable pins which failures the client's reads retry.
func TestRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"transport", errors.New("connection refused"), true},
		{"500", &Error{Status: 500}, true},
		{"503 draining", &Error{Status: 503, Code: server.CodeDraining}, true},
		{"501 unsupported", &Error{Status: 501, Code: server.CodeUnsupported}, false},
		{"400", &Error{Status: 400}, false},
		{"404", &Error{Status: 404}, false},
		{"context canceled", context.Canceled, false},
		{"deadline exceeded", context.DeadlineExceeded, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
