package clock

import (
	"sync"
	"testing"
	"time"
)

// TestManualFiresOnlyDueWaits: Advance fires a wait exactly when the clock
// reaches its deadline, leaves later ones parked, and a wait of d <= 0 is
// due at once without parking.
func TestManualFiresOnlyDueWaits(t *testing.T) {
	start := time.Unix(100, 0)
	m := NewManual(start)
	short, long := m.After(10*time.Millisecond), m.After(time.Second)
	if n := m.Waiters(); n != 2 {
		t.Fatalf("%d waits parked, want 2", n)
	}
	m.Advance(9 * time.Millisecond)
	select {
	case <-short:
		t.Fatal("a wait fired 1ms before its deadline")
	default:
	}
	m.Advance(time.Millisecond)
	if got := <-short; !got.Equal(start.Add(10 * time.Millisecond)) {
		t.Fatalf("wait fired with %v, want its deadline", got)
	}
	if n := m.Waiters(); n != 1 {
		t.Fatalf("%d waits parked after the first fired, want 1", n)
	}
	if got := <-m.After(0); !got.Equal(m.Now()) || m.Waiters() != 1 {
		t.Fatalf("After(0) = %v with %d parked, want now and no new wait", got, m.Waiters())
	}
	m.Advance(time.Hour) // past the deadline fires too
	<-long
	if n := m.Waiters(); n != 0 {
		t.Fatalf("%d waits parked after all fired, want 0", n)
	}
}

// TestManualBlockUntil: BlockUntil returns once a goroutine's wait has
// parked, so the Advance after it always wakes that goroutine; run under
// -race -count to shake the hand-off.
func TestManualBlockUntil(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	var wg sync.WaitGroup
	woke := make(chan time.Time, 3)
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			woke <- <-m.After(time.Minute)
		}()
	}
	m.BlockUntil(3)
	m.Advance(time.Minute)
	wg.Wait()
	if len(woke) != 3 {
		t.Fatalf("%d of 3 parked goroutines woke", len(woke))
	}
}
