package client

import (
	"context"
	"errors"
	"net/http"
	"time"
)

// RetryPolicy is the read-retry behavior of the client, extracted so a
// multi-backend caller (the cluster gateway, which holds one Client per
// vosd node) applies the same policy per backend instead of re-deriving
// it. The zero value retries nothing; Client derives its policy from
// Options in New.
type RetryPolicy struct {
	// MaxRetries is the number of retries after the first attempt
	// (negative is treated as 0).
	MaxRetries int
	// Backoff is the first retry's delay, doubled per retry (non-positive
	// selects the 50ms default).
	Backoff time.Duration
}

// Do runs attempt up to 1+MaxRetries times, backing off exponentially
// between tries. Only transient failures are retried — see Retryable.
// Context cancellation during a backoff wait returns ctx.Err().
func (p RetryPolicy) Do(ctx context.Context, attempt func() error) error {
	retries := p.MaxRetries
	if retries < 0 {
		retries = 0
	}
	backoff := p.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var err error
	for try := 0; ; try++ {
		err = attempt()
		if err == nil || try >= retries || !Retryable(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// Retryable reports whether err is worth a retry: transport-level
// failures and server-side 5xx, but never context cancellation, never a
// response past the client's size limit (it would be as long again) and never
// 4xx (the request itself is wrong; resending it cannot help). 501 is the
// 5xx exception — "capability not implemented" is as permanent as a 4xx.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, errResponseTooLarge) {
		return false
	}
	var apiErr *Error
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 && apiErr.Status != http.StatusNotImplemented
	}
	return true // transport error
}
