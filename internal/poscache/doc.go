// Package poscache caches per-user []uint64 tables for the materialized
// VOS query path. It serves two table kinds with one CLOCK implementation:
//
//   - Position tables (Get/Put): a user's array positions f_1(u) … f_k(u)
//     depend only on the user key, the sketch seed, and the array length m
//     — never on the array contents — so once computed they are valid for
//     the lifetime of any sketch built from the same Config, across
//     updates, merges, window rotations, and snapshot rebuilds.
//     Recomputing them is the hashing cost of a query (k seeded hashes,
//     k = thousands at paper scale); caching them lets hot users skip
//     hashing entirely. One cache may therefore be shared by every shard
//     of an engine and every merged snapshot — sharing across different
//     Configs returns wrong positions; don't.
//
//   - Recovered sketches (GetVersioned/PutVersioned): a user's packed
//     recovered bits DO depend on the array contents, so entries carry the
//     sketch's write-version stamp and a lookup hits only when the stamp
//     still matches — any update invalidates every outstanding entry at
//     once, for free, by bumping the version. On a quiescent sketch (an
//     engine query snapshot, a read-heavy serving period) this turns a
//     repeat pair comparison into a pure word-level XOR+popcount, ~k/64
//     operations, with no hashing and no array probes at all. The aux
//     slot stores the packed popcount alongside, so a hit also skips the
//     k-bit recount.
//
// Sizing: a position table costs SketchBits·8 bytes per entry (50 KiB at
// the paper's k = 6400); a packed recovered sketch costs SketchBits/8
// bytes (800 B). See New for the capacity contract.
//
// # Concurrency
//
// A Cache is safe for concurrent use: query paths race on it from many
// goroutines (engine snapshots, top-K helpers). Cached slices are
// immutable by contract — callers must treat a returned table as
// read-only, and must not modify a slice after handing it to Put.
package poscache
