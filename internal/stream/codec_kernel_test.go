package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/vossketch/vos/internal/cpu"
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
// kernel's decoder and the reference's, on the dispatched codec and on its
// Go loops alone: they must agree on accept or reject, on the error's text
// and on every edge, into fresh memory and into a caller's buffer alike;
// what is accepted must encode to the same bytes under both, and decode
// back.
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

	// The vector bodies take groups of four elements — eight varints — from a
	// 64-byte window, and only while 64 bytes are left: bodies of 63, 64 and 65
	// bytes, alone and behind a first group, whole and cut short.
	three := one(Edge{64, 1, Insert}) // 2+1 bytes
	for _, lead := range []int{0, 4} {
		for _, tail := range []struct{ shorts, threes int }{{30, 1}, {32, 0}, {31, 1}} {
			body := append(bytes.Repeat(short, lead+tail.shorts), bytes.Repeat(three, tail.threes)...)
			n := uint64(lead + tail.shorts + tail.threes)
			f.Add(body, n)
			f.Add(body[:len(body)-1], n)
			f.Add(body, n-1)
		}
	}
	// A group that fills the window to its last byte, whole and with that
	// byte cut off while the memory behind the slice still holds it.
	full := append(bytes.Repeat(nine[:9], 7), 0x05)
	f.Add(full, uint64(4))
	f.Add(full[:63], uint64(4))
	// A nine- and a ten-byte varint in each of a group's eight lanes, and in
	// each a ten-byte one whose last byte overflows.
	pad := bytes.Repeat(short, 40)
	for lane := range 8 {
		for _, long := range [][]byte{nine[:9], nine[9:], ten[:10], ten[10:], overflow[:10]} {
			body := append(bytes.Repeat([]byte{0x05}, lane), long...)
			body = append(append(body, bytes.Repeat([]byte{0x05}, 7-lane)...), pad...)
			f.Add(body, uint64(44))
		}
	}
	// Eight nine-byte varints: the group's eighth end lies outside the window,
	// so the body hands the whole batch to the Go loop.
	nines := bytes.Repeat(one(Edge{1 << 56, 1 << 60, Delete}), 4)
	f.Add(append(nines, pad...), uint64(44))
	f.Add(append(bytes.Repeat(ten, 5), pad...), uint64(45)) // five elements of ten-byte ids, then short ones
	// Counts that are not a multiple of four, the window full.
	for n := uint64(41); n <= 43; n++ {
		f.Add(bytes.Repeat(mid, int(n)), n)
	}

	f.Fuzz(func(t *testing.T, data []byte, count uint64) {
		check := func(t *testing.T) {
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
				if err.Error() != wantErr.Error() || intoErr.Error() != wantErr.Error() {
					t.Fatalf("errors differ:\nkernel    %v\ninto      %v\nreference %v", err, intoErr, wantErr)
				}
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
		}
		t.Run("dispatched", check)
		defer cpu.GoLoopsOnly()()
		t.Run("go", check)
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
	t.Run("dispatched", testBinaryKernelAgreesWithWrappers)
	defer cpu.GoLoopsOnly()()
	t.Run("go", testBinaryKernelAgreesWithWrappers)
}

func testBinaryKernelAgreesWithWrappers(t *testing.T) {
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
	t.Run("dispatched", testUserRangeRefusedByTheCodec)
	defer cpu.GoLoopsOnly()()
	t.Run("go", testUserRangeRefusedByTheCodec)
}

func testUserRangeRefusedByTheCodec(t *testing.T) {
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

	// At every position of the first two groups of four, behind a second
	// one: the error names the first.
	for at := range 8 {
		edges := make([]Edge, 13)
		edges[at].User, edges[at+4].User = 1<<63|User(at), 1<<64-1
		want := fmt.Sprintf("element %d has user %d", at, 1<<63|uint64(at))
		if _, err := AppendElements(nil, edges); !errors.Is(err, ErrUserRange) || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("user above MaxUser at %d: %v, want one that ends %q", at, err, want)
		}
	}
}

// codecMixes are BenchmarkElementCodec's id mixes. "flat" is the traffic of
// the unwindowed benchmark workloads (http-durable, cluster-gather): Zipf
// users, two- and three-byte items, one edge in fourteen a planted 1<<60
// item of nine bytes. "windowed" is udp-window-ann's: its four epochs'
// background items start at e<<44, so in three epochs of four they are
// seven-byte varints. Then ids
// of at most three bytes, and ten-byte ids only, the no-regression guard for
// the vector bodies' long varints.
var codecMixes = []struct {
	name string
	edge func(rng *rand.Rand, zipf *rand.Zipf) Edge
}{
	{"flat", func(rng *rand.Rand, zipf *rand.Zipf) Edge {
		return plantedOneIn14(rng, Edge{User: User(zipf.Uint64()), Item: Item(rng.Intn(1 << 16)), Op: Op(rng.Intn(2))})
	}},
	{"windowed", func(rng *rand.Rand, zipf *rand.Zipf) Edge {
		item := Item(rng.Intn(4))<<44 | Item(rng.Intn(1<<16))
		return plantedOneIn14(rng, Edge{User: User(zipf.Uint64()), Item: item, Op: Op(rng.Intn(2))})
	}},
	{"short", func(rng *rand.Rand, _ *rand.Zipf) Edge {
		return Edge{User: User(rng.Intn(1 << 20)), Item: Item(rng.Intn(1 << 21)), Op: Op(rng.Intn(2))}
	}},
	{"ten-byte", func(rng *rand.Rand, _ *rand.Zipf) Edge {
		return Edge{User: MaxUser, Item: 1<<64 - 1, Op: Op(rng.Intn(2))}
	}},
}

// plantedOneIn14 gives e a planted 1<<60 item one time in fourteen.
func plantedOneIn14(rng *rand.Rand, e Edge) Edge {
	if rng.Intn(14) == 0 {
		e.Item = Item(1<<60 | rng.Uint64()&(1<<52-1))
	}
	return e
}

// BenchmarkElementCodec times AppendElements (length pass and encoder) and
// DecodeElementsInto on 1,024-edge batches of each id mix: "dispatched" runs
// the vector bodies where the CPU has them, "go" the Go loops alone.
func BenchmarkElementCodec(b *testing.B) {
	const batch = 1024
	for _, body := range []string{"dispatched", "go"} {
		for _, mix := range codecMixes {
			rng := rand.New(rand.NewSource(5))
			zipf := rand.NewZipf(rng, 1.6, 8, 639)
			edges := make([]Edge, batch)
			for i := range edges {
				edges[i] = mix.edge(rng, zipf)
			}
			data, _ := AppendElements(nil, edges)
			buf, dst := make([]byte, 0, len(data)), make([]Edge, batch)
			for _, op := range []struct {
				name string
				run  func()
			}{
				{"encode", func() { buf, _ = AppendElements(buf[:0], edges) }},
				{"decode", func() { dst, _ = DecodeElementsInto(dst, data, batch) }},
			} {
				b.Run(body+"/"+op.name+"/"+mix.name, func(b *testing.B) {
					if body == "go" {
						defer cpu.GoLoopsOnly()()
					}
					for b.Loop() {
						op.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/edge")
				})
			}
		}
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
