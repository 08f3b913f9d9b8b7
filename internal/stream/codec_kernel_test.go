package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The element codec as it stood before the append-based kernel, written
// with encoding/binary: a scratch array and two appends to encode, the
// generic Uvarint and an append to decode. FuzzElementCodec holds the
// kernel to it — same bytes, same edges, same verdict.

func refAppendElement(buf []byte, e Edge) []byte {
	var scratch [binary.MaxVarintLen64]byte
	opBit := uint64(0)
	if e.Op == Delete {
		opBit = 1
	}
	n := binary.PutUvarint(scratch[:], uint64(e.User)<<1|opBit)
	buf = append(buf, scratch[:n]...)
	n = binary.PutUvarint(scratch[:], uint64(e.Item))
	return append(buf, scratch[:n]...)
}

func refDecodeElement(data []byte) (Edge, int) {
	uo, n1 := binary.Uvarint(data)
	if n1 <= 0 {
		return Edge{}, 0
	}
	it, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 {
		return Edge{}, 0
	}
	op := Insert
	if uo&1 == 1 {
		op = Delete
	}
	return Edge{User: User(uo >> 1), Item: Item(it), Op: op}, n1 + n2
}

func refDecodeElements(data []byte, count uint64) ([]Edge, error) {
	if count > uint64(len(data))/2 {
		return nil, fmt.Errorf("count %d exceeds capacity of %d bytes", count, len(data))
	}
	out := make([]Edge, 0, count)
	for idx := uint64(0); idx < count; idx++ {
		e, n := refDecodeElement(data)
		if n <= 0 {
			return nil, fmt.Errorf("element %d truncated", idx)
		}
		data = data[n:]
		out = append(out, e)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d elements", len(data), count)
	}
	return out, nil
}

func equalEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzElementCodec feeds arbitrary bytes and an arbitrary count to the
// kernel's decoder and the reference's: they must agree on accept or
// reject and on every edge, into fresh memory and into a caller's buffer
// alike; what is accepted must encode to the same bytes under both, and
// decode back.
func FuzzElementCodec(f *testing.F) {
	var good []byte
	for _, e := range []Edge{{1, 2, Insert}, {300, 70000, Delete}, {MaxUser, 1<<64 - 1, Delete}, {0, 0, Insert}} {
		good = refAppendElement(good, e)
	}
	f.Add(good, uint64(4))
	f.Add(good, uint64(3))                                              // trailing bytes
	f.Add(good[:len(good)-1], uint64(4))                                // truncated
	f.Add(good, uint64(1<<40))                                          // a count that lies
	f.Add([]byte{0x80, 0x00, 0x81, 0x00}, uint64(1))                    // overlong two-byte varints
	f.Add([]byte{0x80, 0x80, 0x00, 0x05}, uint64(1))                    // overlong three-byte user
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x01, 0x07), uint64(1)) // ten-byte user
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x02, 0x07), uint64(1)) // ten bytes that overflow
	f.Add(bytes.Repeat([]byte{0x80}, 11), uint64(1))                    // never terminates
	f.Add([]byte{0x80}, uint64(0))
	f.Add([]byte{}, uint64(0))
	// The decoder stops looking at lengths while twenty bytes, two varints of
	// the greatest length, are in reach: elements of every width on both sides
	// of that point, and the malformed ones right at it.
	one := func(e Edge) []byte { return refAppendElement(nil, e) }
	short, mid := one(Edge{5, 6, Insert}), one(Edge{1 << 13, 1 << 20, Delete}) // 1+1 bytes, 3+4
	nine, ten := one(Edge{1 << 55, 1 << 62, Insert}), one(Edge{MaxUser, 1<<64 - 1, Delete})
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x02, 0x07) // binary.Uvarint answers n < 0
	for _, last := range [][]byte{short, mid, nine, ten} {
		for pad := 0; pad <= 10; pad++ { // the last element starts 20+len-2*pad bytes from the end, on either side of 20
			body := append(bytes.Repeat(short, pad), ten...)
			body = append(append(body, bytes.Repeat(short, 10-pad)...), last...)
			f.Add(body, uint64(12))
			f.Add(body[:len(body)-1], uint64(12)) // the final element truncated
		}
		f.Add(append(append(append([]byte(nil), last...), overflow...), bytes.Repeat(short, 10)...), uint64(12)) // overflow with twenty bytes in reach
		f.Add(append(append(append([]byte(nil), last...), bytes.Repeat(short, 4)...), overflow...), uint64(6))   // and without
	}
	f.Add(append(bytes.Repeat([]byte{0x80}, 10), bytes.Repeat(short, 10)...), uint64(11)) // eleven bytes of continuation, in reach
	f.Add(append(bytes.Repeat([]byte{0xff}, 8), bytes.Repeat(short, 10)...), uint64(10))  // eight, then a terminator

	f.Fuzz(func(t *testing.T, data []byte, count uint64) {
		want, wantErr := refDecodeElements(data, count)
		got, err := DecodeElements(data, count)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("verdicts differ: kernel %v, reference %v", err, wantErr)
		}
		into, intoErr := DecodeElementsInto(make([]Edge, 3, 5), data, count)
		if (intoErr == nil) != (wantErr == nil) {
			t.Fatalf("verdicts differ: kernel (into) %v, reference %v", intoErr, wantErr)
		}
		if err != nil {
			return
		}
		if !equalEdges(got, want) || !equalEdges(into, want) {
			t.Fatalf("decoded edges differ:\nkernel    %v\ninto      %v\nreference %v", got, into, want)
		}
		var ref []byte
		for _, e := range want {
			ref = refAppendElement(ref, e)
		}
		all, err := AppendElements([]byte("prefix"), want)
		if err != nil {
			t.Fatalf("AppendElements refused decoded edges: %v", err)
		}
		if !bytes.Equal(all, append([]byte("prefix"), ref...)) {
			t.Fatalf("encodings differ:\nelements  %x\nreference %x", all, ref)
		}
		if size, _ := elementsLen(want); size != len(ref) {
			t.Fatalf("elementsLen = %d, encoding is %d bytes", size, len(ref))
		}
		again, err := DecodeElements(ref, uint64(len(want)))
		if err != nil || !equalEdges(again, want) {
			t.Fatalf("canonical encoding did not decode back: %v", err)
		}
	})
}

// randomEdges draws ids across every varint length.
func randomEdges(rng *rand.Rand, n int) []Edge {
	out := make([]Edge, n)
	for i := range out {
		out[i] = Edge{
			User: User(rng.Uint64() >> rng.Intn(64) & uint64(MaxUser)),
			Item: Item(rng.Uint64() >> rng.Intn(64)),
			Op:   Op(rng.Intn(2)),
		}
	}
	return out
}

// TestBinaryKernelAgreesWithWrappers: AppendBinary and WriteBinary produce
// the same bytes (across WriteBinary's chunk boundary too), those bytes are
// the reference's, and DecodeBinary, DecodeBinaryInto and ReadBinary read
// them back alike.
func TestBinaryKernelAgreesWithWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 1024, writeChunk, writeChunk + 1, 2*writeChunk + 17} {
		edges := randomEdges(rng, n)
		ref := binary.AppendUvarint(append([]byte(nil), binaryMagic[:]...), uint64(n))
		for _, e := range edges {
			ref = refAppendElement(ref, e)
		}
		appended, err := AppendBinary([]byte{0xAA}, edges)
		if err != nil {
			t.Fatal(err)
		}
		var written bytes.Buffer
		if err := WriteBinary(&written, edges); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appended[1:], ref) || appended[0] != 0xAA || !bytes.Equal(written.Bytes(), ref) {
			t.Fatalf("n=%d: AppendBinary, WriteBinary and the reference encoding differ", n)
		}
		dec, err := DecodeBinary(ref)
		if err != nil {
			t.Fatal(err)
		}
		scratch := make([]Edge, 0, n)
		into, err := DecodeBinaryInto(scratch, ref)
		if err != nil {
			t.Fatal(err)
		}
		read, err := ReadBinary(bytes.NewReader(ref))
		if err != nil {
			t.Fatal(err)
		}
		if !equalEdges(dec, edges) || !equalEdges(into, edges) || !equalEdges(read, edges) {
			t.Fatalf("n=%d: a decoder changed the stream", n)
		}
		if n > 0 && &into[0] != &scratch[:1][0] {
			t.Fatalf("n=%d: DecodeBinaryInto left a buffer that was large enough", n)
		}
	}
}

// TestUserRangeRefusedByTheCodec: a user id whose top bit the encoding
// would drop is an ErrUserRange error from every entry of the package, the
// destination untouched; the largest id that fits round-trips.
func TestUserRangeRefusedByTheCodec(t *testing.T) {
	fits := []Edge{{User: MaxUser, Item: 7, Op: Delete}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, fits); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadBinary(&buf); err != nil || !equalEdges(got, fits) {
		t.Fatalf("MaxUser round trip: %v, %v", got, err)
	}

	bad := []Edge{{User: 3, Item: 1}, {User: 1<<63 | 5, Item: 7}}
	buf.Reset()
	if err := WriteBinary(&buf, bad); !errors.Is(err, ErrUserRange) || buf.Len() != 0 {
		t.Errorf("WriteBinary: err %v, %d bytes written; want ErrUserRange and none", err, buf.Len())
	}
	prefix := []byte("kept")
	if out, err := AppendBinary(prefix, bad); !errors.Is(err, ErrUserRange) || !bytes.Equal(out, prefix) {
		t.Errorf("AppendBinary: err %v, buffer %q; want ErrUserRange and the buffer as it was", err, out)
	}
	if out, err := AppendElements(prefix, bad); !errors.Is(err, ErrUserRange) || !bytes.Equal(out, prefix) {
		t.Errorf("AppendElements: err %v, buffer %q; want ErrUserRange and the buffer as it was", err, out)
	}
	if err := CheckUsers(bad); !errors.Is(err, ErrUserRange) {
		t.Errorf("CheckUsers: %v", err)
	}
	if err := CheckUsers(fits); err != nil {
		t.Errorf("CheckUsers refused MaxUser: %v", err)
	}
}

// The three partition loops the counting PartitionByUser replaced, kept as
// they were.

// refPartitionAppend is the old PartitionByUser: append per edge.
func refPartitionAppend(edges []Edge, n int, seed uint64) [][]Edge {
	shards := make([][]Edge, n)
	for _, e := range edges {
		s := ShardOf(e.User, n, seed)
		shards[s] = append(shards[s], e)
	}
	return shards
}

// refPartitionMap is the old Gateway.Ingest: a map of growing slices.
func refPartitionMap(edges []Edge, n int, seed uint64) [][]Edge {
	groups := make(map[int][]Edge)
	for _, e := range edges {
		s := ShardOf(e.User, n, seed)
		groups[s] = append(groups[s], e)
	}
	shards := make([][]Edge, n)
	for s, g := range groups {
		shards[s] = g
	}
	return shards
}

// refPartitionCount is the old Engine.route: count, prefix-sum, scatter.
func refPartitionCount(edges []Edge, n int, seed uint64) [][]Edge {
	owner := make([]uint32, len(edges))
	at := make([]int, n+1)
	for k := range edges {
		i := ShardOf(edges[k].User, n, seed)
		owner[k] = uint32(i)
		at[i+1]++
	}
	for i := 1; i < n; i++ {
		at[i+1] += at[i]
	}
	buf := make([]Edge, len(edges))
	for k, ed := range edges {
		i := owner[k]
		buf[at[i]] = ed
		at[i]++
	}
	shards := make([][]Edge, n)
	lo := 0
	for i, hi := range at[:n] {
		shards[i] = buf[lo:hi]
		lo = hi
	}
	return shards
}

// TestPartitionByUserDifferential: for 1, 2, 3 and 7 owners, shards that
// come out empty included, PartitionByUser's shards hold what each of the
// three loops it replaced put there, in the same order, each with its
// capacity capped, and share no memory with the input.
func TestPartitionByUserDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 7} {
		for _, size := range []int{0, 1, 2, 5, 1024} {
			edges := randomEdges(rng, size)
			for i := range edges {
				edges[i].User %= 9 // few users: most sizes leave some of 7 owners empty
			}
			const seed = 77
			shards := PartitionByUser(edges, n, seed)
			if len(shards) != n {
				t.Fatalf("n=%d size=%d: %d shards", n, size, len(shards))
			}
			refs := map[string][][]Edge{
				"append": refPartitionAppend(edges, n, seed),
				"map":    refPartitionMap(edges, n, seed),
				"count":  refPartitionCount(edges, n, seed),
			}
			for i, shard := range shards {
				if cap(shard) != len(shard) {
					t.Fatalf("n=%d size=%d: shard %d has %d edges and capacity %d", n, size, i, len(shard), cap(shard))
				}
				for name, ref := range refs {
					if !equalEdges(shard, ref[i]) {
						t.Fatalf("n=%d size=%d shard %d differs from the %s loop:\n%v\n%v", n, size, i, name, shard, ref[i])
					}
				}
			}
			want := append([]Edge(nil), edges...)
			for _, shard := range shards {
				for i := range shard {
					shard[i] = Edge{User: 1 << 40}
				}
			}
			if !equalEdges(edges, want) {
				t.Fatalf("n=%d size=%d: writing the shards wrote the input", n, size)
			}
		}
	}
}
