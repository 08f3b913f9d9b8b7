package client

import (
	"context"
	"errors"
	"net/http"
	"time"
)

// retry runs attempt up to 1+Options.MaxRetries times, backing off
// exponentially from Options.RetryBackoff between tries (New resolves both
// defaults). Only transient failures are retried — see retryable. Context
// cancellation during a backoff wait returns ctx.Err().
func (c *Client) retry(ctx context.Context, attempt func() error) error {
	backoff := c.opt.RetryBackoff
	for try := 0; ; try++ {
		err := attempt()
		if err == nil || try >= c.opt.MaxRetries || !retryable(err) {
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

// retryable reports whether err is worth a retry: transport-level
// failures and server-side 5xx, but never context cancellation, never a
// response past the client's size limit (it would be as long again) and never
// 4xx (the request itself is wrong; resending it cannot help). 501 is the
// 5xx exception — "capability not implemented" is as permanent as a 4xx.
func retryable(err error) bool {
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
