// Package admit implements transport-neutral ingest admission control:
// a per-batch size cap and an in-flight byte budget with worst-case
// pre-charging and trim-to-real-footprint accounting.
//
// This package is the one home of the ingest limits and their defaults
// (server.Options.Admission takes a Controller), and the policy is the
// same for every ingest transport: before a batch is read or decoded, the
// transport charges the batch's worst-case memory — wire bytes plus the
// largest edge slice the payload could decode to — against a shared
// budget. The compact binary format packs an edge into as little as two
// wire bytes, so a binary payload can decode to ~12x its wire size;
// charging wire bytes alone would admit far more decoded memory than the
// budget names, and charging after decoding would bound nothing. Once
// parsing reveals the real edge count, the pessimistic hold is trimmed so
// concurrent batches can use the freed budget while the engine ingests.
//
// One Controller may be shared by several transports (the HTTP handlers
// and the UDP listener in vosd share one), making the budget a bound on
// the process's total in-flight ingest memory, not a per-plane figure.
package admit

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"github.com/vossketch/vos/internal/stream"
)

// Defaults for NewController's zero values — the values the HTTP server
// has always used: the budget is sized so one maximal binary batch under
// the default batch cap (13 x 8 MiB = 104 MiB worst case) is admissible.
const (
	DefaultMaxBatchBytes    = 8 << 20
	DefaultMaxInFlightBytes = 128 << 20
)

// EdgeMemBytes is the in-memory footprint of one decoded edge, used to
// top up the wire-byte charge so the in-flight budget bounds decoded
// slices too (binary edges can be ~2 bytes on the wire).
const EdgeMemBytes = int64(unsafe.Sizeof(stream.Edge{}))

// ErrBackpressure reports a transiently exhausted budget: the batch could
// be admitted on an idle controller, so the caller should shed it with a
// retry hint (HTTP 429) or drop it (fire-and-forget datagrams).
var ErrBackpressure = errors.New("admit: in-flight ingest byte budget exhausted")

// BatchTooLargeError reports a batch whose declared wire size exceeds the
// per-batch cap. Retrying cannot help; the sender must split the batch.
type BatchTooLargeError struct {
	Wire, Limit int64
}

func (e *BatchTooLargeError) Error() string {
	return fmt.Sprintf("ingest body %d bytes exceeds the %d byte limit; split the batch", e.Wire, e.Limit)
}

// BudgetExceededError reports a batch whose worst-case footprint exceeds
// the whole in-flight budget — it could never be admitted even on an idle
// controller, so retrying would loop forever. The worst case scales with
// the declared size, so splitting always helps.
type BudgetExceededError struct {
	Held, Budget int64
}

func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("batch worst-case footprint %d bytes exceeds the %d byte in-flight budget; split the batch",
		e.Held, e.Budget)
}

// WorstCase returns the pessimistic memory charge for a payload of wire
// bytes: the bytes themselves, plus — for the binary format, whose
// elements occupy at least two wire bytes each — the largest edge slice
// they could decode to. Text formats (JSON, NDJSON) decode to roughly
// their wire size, so their worst case is the wire size alone.
func WorstCase(wire int64, binary bool) int64 {
	if binary {
		return wire + wire/2*EdgeMemBytes
	}
	return wire
}

// Controller is a shared admission budget. All methods are safe for
// concurrent use.
type Controller struct {
	maxBatch int64
	budget   int64

	mu        sync.Mutex
	remaining int64
}

// NewController builds a Controller with the given per-batch cap and
// in-flight budget. Zero or negative values select the defaults, and the
// budget is floored at the batch cap — a budget smaller than one full
// batch would deadlock transports that charge the cap up front (chunked
// HTTP bodies of unknown length).
func NewController(maxBatchBytes, maxInFlightBytes int64) *Controller {
	if maxBatchBytes <= 0 {
		maxBatchBytes = DefaultMaxBatchBytes
	}
	if maxInFlightBytes <= 0 {
		maxInFlightBytes = DefaultMaxInFlightBytes
	}
	if maxInFlightBytes < maxBatchBytes {
		maxInFlightBytes = maxBatchBytes
	}
	return &Controller{maxBatch: maxBatchBytes, budget: maxInFlightBytes, remaining: maxInFlightBytes}
}

// MaxBatchBytes returns the per-batch wire-size cap.
func (c *Controller) MaxBatchBytes() int64 { return c.maxBatch }

// InFlightBytes returns the budget currently held by admitted batches.
func (c *Controller) InFlightBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget - c.remaining
}

// Admit charges one batch's worst case against the budget. On success the
// returned Hold owns the charge: the caller trims it once decoding
// reveals the real edge count and closes it when ingestion finishes. On
// failure the error is one of *BatchTooLargeError (wire exceeds the
// per-batch cap), *BudgetExceededError (could never fit), or
// ErrBackpressure (transiently exhausted).
func (c *Controller) Admit(wire int64, binary bool) (*Hold, error) {
	if wire > c.maxBatch {
		return nil, &BatchTooLargeError{Wire: wire, Limit: c.maxBatch}
	}
	held := WorstCase(wire, binary)
	if held > c.budget {
		return nil, &BudgetExceededError{Held: held, Budget: c.budget}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if held > c.remaining {
		return nil, ErrBackpressure
	}
	c.remaining -= held
	return &Hold{c: c, wire: wire, held: held}, nil
}

// Hold is one admitted batch's slice of the budget.
type Hold struct {
	c    *Controller
	wire int64
	held int64
}

// Trim shrinks the pessimistic hold to the batch's real footprint — wire
// bytes plus edges decoded slots — freeing budget for concurrent batches
// while the engine ingests. A footprint at or above the current hold
// (text formats, whose charge was never pessimistic) leaves it unchanged.
func (h *Hold) Trim(edges int) {
	actual := h.wire + int64(edges)*EdgeMemBytes
	if actual >= h.held {
		return
	}
	h.c.mu.Lock()
	h.c.remaining += h.held - actual
	h.c.mu.Unlock()
	h.held = actual
}

// Close releases whatever the hold still charges. Idempotent.
func (h *Hold) Close() {
	if h.held == 0 {
		return
	}
	h.c.mu.Lock()
	h.c.remaining += h.held
	h.c.mu.Unlock()
	h.held = 0
}
