package admit

import (
	"errors"
	"sync"
	"testing"
)

func TestDefaultsAndFloor(t *testing.T) {
	c := NewController(0, 0)
	if c.MaxBatchBytes() != DefaultMaxBatchBytes {
		t.Fatalf("default batch cap = %d, want %d", c.MaxBatchBytes(), DefaultMaxBatchBytes)
	}
	if c.budget != DefaultMaxInFlightBytes {
		t.Fatalf("default budget = %d, want %d", c.budget, DefaultMaxInFlightBytes)
	}
	// A budget below the batch cap is floored at the cap: transports that
	// charge the cap up front (chunked HTTP) must never deadlock.
	c = NewController(1<<20, 1<<10)
	if c.budget != 1<<20 {
		t.Fatalf("budget = %d, want floored to batch cap %d", c.budget, 1<<20)
	}
}

func TestWorstCase(t *testing.T) {
	if got := WorstCase(100, false); got != 100 {
		t.Fatalf("text worst case = %d, want 100", got)
	}
	// Binary: wire + wire/2 decoded edges — the ~13x amplification bound.
	want := int64(100) + 50*EdgeMemBytes
	if got := WorstCase(100, true); got != want {
		t.Fatalf("binary worst case = %d, want %d", got, want)
	}
}

func TestAdmitOutcomes(t *testing.T) {
	c := NewController(1000, 10000)

	// Over the per-batch cap: permanent, typed.
	_, err := c.Admit(1001, false)
	var tooBig *BatchTooLargeError
	if !errors.As(err, &tooBig) || tooBig.Wire != 1001 || tooBig.Limit != 1000 {
		t.Fatalf("Admit(1001) = %v, want BatchTooLargeError{1001, 1000}", err)
	}

	// Under the cap but worst case over the whole budget: permanent, typed.
	_, err = c.Admit(900, true)
	var overBudget *BudgetExceededError
	if !errors.As(err, &overBudget) || overBudget.Held != WorstCase(900, true) || overBudget.Budget != 10000 {
		t.Fatalf("Admit(900, binary) = %v, want BudgetExceededError", err)
	}

	// Transient exhaustion: the first hold fits, the second does not.
	h1, err := c.Admit(1000, false)
	if err != nil {
		t.Fatalf("Admit(1000): %v", err)
	}
	h2, err := c.Admit(1000, false)
	if err != nil {
		t.Fatalf("second Admit(1000): %v", err)
	}
	for c.InFlightBytes()+1000 <= c.budget {
		if _, err := c.Admit(1000, false); err != nil {
			t.Fatalf("filling budget: %v", err)
		}
	}
	if _, err := c.Admit(1000, false); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("exhausted Admit = %v, want ErrBackpressure", err)
	}

	// Close releases; the budget becomes admissible again.
	h1.Close()
	h3, err := c.Admit(1000, false)
	if err != nil {
		t.Fatalf("Admit after Close: %v", err)
	}
	h3.Close()
	h2.Close()
}

func TestTrimAndClose(t *testing.T) {
	c := NewController(1000, 100000)
	h, err := c.Admit(100, true)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	worst := WorstCase(100, true)
	if h.held != worst || c.InFlightBytes() != worst {
		t.Fatalf("held = %d / in-flight = %d, want %d", h.held, c.InFlightBytes(), worst)
	}

	// Trimming to the real footprint releases the pessimism.
	h.Trim(3)
	actual := int64(100) + 3*EdgeMemBytes
	if h.held != actual || c.InFlightBytes() != actual {
		t.Fatalf("after Trim(3): held = %d / in-flight = %d, want %d", h.held, c.InFlightBytes(), actual)
	}

	// A footprint at or above the hold never grows the charge (text
	// bodies, whose decoded slice exceeds the wire-only hold).
	h.Trim(1 << 20)
	if h.held != actual {
		t.Fatalf("Trim up grew the hold to %d", h.held)
	}

	h.Close()
	h.Close() // idempotent
	if c.InFlightBytes() != 0 {
		t.Fatalf("in-flight after Close = %d, want 0", c.InFlightBytes())
	}
}

func TestConcurrentAdmitNeverOversubscribes(t *testing.T) {
	c := NewController(1000, 8000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h, err := c.Admit(1000, false)
				if err != nil {
					continue
				}
				h.Trim(1)
				h.Close()
			}
		}()
	}
	wg.Wait()
	if got := c.InFlightBytes(); got != 0 {
		t.Fatalf("leaked %d in-flight bytes", got)
	}
}
