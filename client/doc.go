// Package client is the Go client for the /v1/ HTTP API served by package
// server: a vos.SimilarityService implementation over the wire, so a caller
// can swap an in-process engine for a remote vosd daemon by changing one
// constructor.
//
// # Writes
//
// Writes batch like the engine's producer path: full batches of
// Options.BatchSize edges are shipped synchronously in the compact VOSSTRM1
// binary format, the residue waits in a pending buffer, and a background
// linger ships partial batches every Options.Linger so an idle stream's
// tail never sits unsent (Flush forces the residue out, Close flushes and
// stops the linger). Writes are NEVER retried: ingest is an XOR toggle, and
// replaying a batch after an ambiguous failure (request possibly applied)
// would corrupt parity. A failed ship leaves only the attempted batch
// ambiguous; batches never put on the wire return to the pending buffer.
//
// The caller's slice is only read, and only until Ingest returns. A whole
// batch is encoded where it lies, into one buffer of the body's exact size
// (not pooled: the transport may still be reading a body after the
// response); edges are copied only when they must outlive the call — the
// residue, the head that tops an earlier residue up to a batch, and what a
// failed ship sends back to the pending buffer. Send, the gateway's entry,
// copies none. UDPClient.Ingest follows the same rule, a whole batch framed
// where it lies into the one frame buffer the client keeps, and a frame whose
// socket write failed is dropped, never sent again, its sequence number spent.
// All of them refuse a slice naming a user id above vos.MaxUser
// (vos.ErrUserRange) whole: the encoding has no room for the id's top bit.
//
// # Reads
//
// Reads — similarity, top-K, cardinality, stats — are idempotent and
// retried on transient transport errors and 5xx responses with
// exponential backoff (Options.MaxRetries: 50ms, then doubling, on
// Options.Clock, which times the linger too); context cancellation is
// honoured everywhere and is never retried.
//
// # Sliding windows
//
// Against a windowed server (vosd -window), SimilarityAt asserts a query
// instant and AdvanceWindow drives event time forward (an empty
// timestamped ingest); Stats reports the window span in
// vos.Stats.WindowSeconds/WindowBuckets. An instant the window has
// retired answers an *Error with code "outside_window", which errors.Is
// maps onto vos.ErrOutsideWindow.
//
// # Errors
//
// Server-side failures carry the typed envelope
// {"error":{"code":...,"message":...}}; the client surfaces them as *Error
// with the code and HTTP status preserved, and maps lifecycle codes back
// onto the vos sentinels, so errors.Is(err, vos.ErrClosed) works the same
// against a remote service as against a local one. A draining instance
// (code "draining") matches vos.ErrQueryUnavailable but never
// vos.ErrClosed — transient rotation is not shutdown.
//
// # Concurrency and lifecycle
//
// A Client is safe for concurrent use by any number of goroutines. Close
// flushes buffered edges and stops the linger; after Close every
// method returns vos.ErrClosed.
package client
