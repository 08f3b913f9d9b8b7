package vos

import (
	"io"

	"github.com/vossketch/vos/internal/stream"
)

// Stream persistence: two interchange formats for recorded graph streams.
//
// The text format is one element per line, "<op> <user> <item>" with op in
// {+, -}; '#' comments and blank lines are ignored. The binary format is a
// compact varint encoding with a magic header, suitable for multi-million
// element workloads (see cmd/streamgen).

// WriteStreamText writes edges in the text format.
func WriteStreamText(w io.Writer, edges []Edge) error {
	return stream.WriteText(w, edges)
}

// ReadStreamText parses the text format.
func ReadStreamText(r io.Reader) ([]Edge, error) {
	return stream.ReadText(r)
}

// MaxUser is the largest user id that survives an encoded hop. The binary
// element encoding — the stream file, a durable Engine's write-ahead log,
// the HTTP client's request body, the UDP frame — folds the op bit into the
// user's 64-bit varint, which leaves the id 63 bits.
const MaxUser = stream.MaxUser

// ErrUserRange is what every one of those hops answers (errors.Is) to a
// user id above MaxUser: WriteStreamBinary, Process and ProcessBatch on a
// durable Engine, client.Client and client.UDPClient; the server answers
// the same ids in a JSON body with 400 bad_request. The call is refused
// whole and nothing is written, logged or sent. An in-process, memory-only
// Sketch or Engine encodes nothing and takes the full 64-bit range.
var ErrUserRange = stream.ErrUserRange

// WriteStreamBinary writes edges in the binary format; ErrUserRange for a
// user id above MaxUser.
func WriteStreamBinary(w io.Writer, edges []Edge) error {
	return stream.WriteBinary(w, edges)
}

// ReadStreamBinary parses the binary format, validating header and
// framing.
func ReadStreamBinary(r io.Reader) ([]Edge, error) {
	return stream.ReadBinary(r)
}

// PartitionByUser splits a stream into n shards by user hash; every shard
// is feasible when the input is, and any method's per-shard state can be
// built independently (for VOS, shards Merge back exactly).
func PartitionByUser(edges []Edge, n int, seed uint64) [][]Edge {
	return stream.PartitionByUser(edges, n, seed)
}

// RoundRobin splits a stream element-by-element; only order-insensitive,
// partition-exact sketches (VOS) should consume such shards. See
// stream.RoundRobin.
func RoundRobin(edges []Edge, n int) [][]Edge {
	return stream.RoundRobin(edges, n)
}
