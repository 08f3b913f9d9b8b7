// Package clock is the time under the engine's and the client's timers: Wall
// in production, and Manual in a test, which fires each timer unslept.
package clock

import (
	"sync"
	"time"
)

// Clock tells the time (Now) and waits for it (After: a channel that
// receives the time once d has passed). It is safe for concurrent use.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// Wall is the real clock: time.Now and time.After.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                         { return time.Now() }
func (wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Manual is a Clock that moves only when Advance is called. A wait stays
// parked until Advance reaches its deadline, even one nobody listens to any
// more: its channel holds the one value, so Advance never blocks on it.
type Manual struct {
	mu     sync.Mutex
	parked sync.Cond // L is &mu; broadcast whenever a wait parks
	now    time.Time
	waits  map[chan time.Time]time.Time // each parked wait's deadline
}

// NewManual returns a Manual clock that reads t until it is advanced.
func NewManual(t time.Time) *Manual {
	m := &Manual{now: t, waits: make(map[chan time.Time]time.Time)}
	m.parked.L = &m.mu
	return m
}

// Now returns the clock's time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// After parks a wait due d from now; one of d <= 0 is due at once.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- m.now
	} else {
		m.waits[ch] = m.now.Add(d)
		m.parked.Broadcast()
	}
	return ch
}

// Advance moves the clock forward by d and fires every wait now due.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	for ch, at := range m.waits {
		if !at.After(m.now) {
			ch <- m.now
			delete(m.waits, ch)
		}
	}
}

// Waiters reports how many waits are parked.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waits)
}

// BlockUntil returns once at least n waits are parked.
func (m *Manual) BlockUntil(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.waits) < n {
		m.parked.Wait()
	}
}
