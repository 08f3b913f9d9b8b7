package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// This file implements two interchange formats for graph streams:
//
//   - a text format, one element per line: "<op> <user> <item>" with op in
//     {+, -}; lines starting with '#' and blank lines are ignored. Human
//     readable, diff-able, convenient for small fixtures.
//   - a binary format: a magic header followed by varint-encoded elements
//     (op bit folded into the user varint's low bit). Compact and fast,
//     used by cmd/streamgen for multi-million-edge workloads.
//
// The binary elements' three passes over a batch — the length pass
// (elementsLen), the encoder (appendAll) and the decoder
// (DecodeElementsInto) — are Go loops that are the reference. Where the CPU
// has AVX-512 VBMI2 (cpu.AVX512VBMI2) a vector body (codec_amd64.s) first
// takes whole groups of four elements and returns how far it got; the loop
// finishes the batch, and every error, at the element where the body
// stopped, so the bytes, the edges and each error's text are the same on
// either path.

// WriteText writes edges in the text format.
func WriteText(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%s %d %d\n", e.Op, uint64(e.User), uint64(e.Item)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. Malformed lines produce an error that
// names the line number.
func ReadText(r io.Reader) ([]Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("stream: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		var op Op
		switch fields[0] {
		case "+":
			op = Insert
		case "-":
			op = Delete
		default:
			return nil, fmt.Errorf("stream: line %d: bad op %q", lineNo, fields[0])
		}
		u, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad user: %v", lineNo, err)
		}
		i, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad item: %v", lineNo, err)
		}
		out = append(out, Edge{User: User(u), Item: Item(i), Op: op})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

var binaryMagic = [8]byte{'V', 'O', 'S', 'S', 'T', 'R', 'M', '1'}

// IsBinary reports whether data opens with the binary format's magic — how
// a reader tells a binary stream from the other payloads that share its
// content type.
func IsBinary(data []byte) bool { return bytes.HasPrefix(data, binaryMagic[:]) }

// ErrBadFormat reports a malformed binary stream file.
var ErrBadFormat = errors.New("stream: bad binary format")

// MaxUser is the largest user id the binary element encoding carries: the
// op bit shares the user's 64-bit varint, which leaves the id 63 bits.
const MaxUser User = 1<<63 - 1

// ErrUserRange reports a user id above MaxUser handed to an encoder. The
// format cannot carry the id's top bit — encoding it anyway would turn the
// user into another one on the far side — so every encoder built on
// AppendElements refuses the whole slice and writes nothing.
var ErrUserRange = errors.New("stream: user id does not fit the binary element encoding (limit 2^63-1)")

// CheckUsers returns an ErrUserRange error naming the first edge whose user
// the binary encoding cannot carry, nil when every edge fits. A sender that
// buffers (package client) calls it on the way in, so that what it refuses
// is refused whole and never sits in a buffer it can no longer drain.
func CheckUsers(edges []Edge) error {
	for i := range edges {
		if edges[i].User > MaxUser {
			return userRangeError(i, edges[i].User)
		}
	}
	return nil
}

func userRangeError(i int, u User) error {
	return fmt.Errorf("%w: element %d has user %d", ErrUserRange, i, uint64(u))
}

// AppendElements appends the binary encoding of every edge — uvarint
// (user<<1 | opBit), then uvarint item — to buf, growing it at most once, to
// the exact size. This is the single definition of the per-element wire shape,
// the body all the element containers share — the stream file format, the WAL
// record payload (internal/wal) and the VOSSTRM1 data frame
// (internal/netproto): the formats are byte-compatible at the element level by
// construction, not by parallel maintenance. A user above MaxUser anywhere in
// edges is an ErrUserRange error and buf comes back as it was.
func AppendElements(buf []byte, edges []Edge) ([]byte, error) {
	size, err := elementsLen(edges)
	if err != nil {
		return buf, err
	}
	return appendAll(slices.Grow(buf, size), edges), nil
}

// appendAll is AppendElements' loop. The caller has checked the users and
// grown buf to hold every element (elementsLen), so the bytes are stored by
// index behind len(buf) and not appended one at a time.
func appendAll(buf []byte, edges []Edge) []byte {
	n := len(buf)
	buf = buf[:cap(buf)]
	done, w := encodeVec(buf[n:], edges)
	n += w
	for i := done; i < len(edges); i++ {
		uo := uint64(edges[i].User) << 1
		if edges[i].Op == Delete {
			uo |= 1
		}
		n = putUvarint(buf, putUvarint(buf, n, uo), uint64(edges[i].Item))
	}
	return buf[:n]
}

// putUvarint stores x's uvarint encoding at buf[n:] and returns the index
// behind it.
func putUvarint(buf []byte, n int, x uint64) int {
	for ; x >= 0x80; n++ {
		buf[n] = byte(x) | 0x80
		x >>= 7
	}
	buf[n] = byte(x)
	return n + 1
}

// elementsLen returns how many bytes AppendElements appends for edges, or
// the error CheckUsers would.
func elementsLen(edges []Edge) (int, error) {
	done, size := elementsLenVec(edges)
	for i := done; i < len(edges); i++ {
		if edges[i].User > MaxUser {
			return 0, userRangeError(i, edges[i].User)
		}
		size += uvarintLen(uint64(edges[i].User)<<1) + uvarintLen(uint64(edges[i].Item))
	}
	return size, nil
}

// uvarintLen is the length of x's uvarint encoding: seven bits to a byte,
// one byte for zero.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// uvarintIn is binary.Uvarint where a varint's most, ten bytes, are in reach,
// so that nothing has to look at a length. The one- to three-byte encodings
// are written out. For a longer one the first eight bytes are one load: the
// lowest byte without a continuation bit ends the varint, the bytes behind it
// are masked off and the seven payload bits of each byte closed up in three
// steps; a ninth and a tenth byte carry bits 56 to 63. As in binary.Uvarint,
// n is not positive for an encoding that overflows 64 bits or runs past ten
// bytes.
func uvarintIn(d *[binary.MaxVarintLen64]byte) (x uint64, n int) {
	switch {
	case d[0] < 0x80:
		return uint64(d[0]), 1
	case d[1] < 0x80:
		return uint64(d[0]&0x7f) | uint64(d[1])<<7, 2
	case d[2] < 0x80:
		return uint64(d[0]&0x7f) | uint64(d[1]&0x7f)<<7 | uint64(d[2])<<14, 3
	}
	const high = 0x8080808080808080
	w := binary.LittleEndian.Uint64(d[:8])
	n = 8
	if ends := ^w & high; ends != 0 {
		n = bits.TrailingZeros64(ends)/8 + 1
		w &= 1<<(8*n) - 1 // at n = 8 the shift comes to zero and the mask to all ones
	}
	w &^= high
	w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
	w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
	w = w&0x000000000fffffff | w&0x0fffffff00000000>>4
	switch {
	case n < 8 || d[7] < 0x80:
		return w, n
	case d[8] < 0x80:
		return w | uint64(d[8])<<56, 9
	case d[9] <= 1:
		return w | uint64(d[8]&0x7f)<<56 | uint64(d[9])<<63, 10
	}
	return 0, -1
}

// DecodeElements decodes exactly count elements from data with nothing left
// over — the body every element container shares (the stream file, the WAL
// record payload, the VOSSTRM1 data frame); each wraps the error in its own
// sentinel. Each element occupies at least two bytes (a one-byte uvarint
// each for the user+op word and the item), so a count the bytes cannot
// possibly hold is malformed. All three containers take untrusted input
// (POST /v1/edges, datagrams, inspection tools reading non-CRC-validated
// records), so the allocation below must never trust count beyond what
// data could actually encode — a forged 16-byte header must not reserve
// gigabytes.
func DecodeElements(data []byte, count uint64) ([]Edge, error) {
	return DecodeElementsInto(nil, data, count)
}

// DecodeElementsInto is DecodeElements into the caller's memory: the result
// occupies dst's backing array when that holds count elements (dst's own
// length and contents are ignored) and a fresh one otherwise, so a read
// loop that hands each result back as the next dst decodes without
// allocating.
func DecodeElementsInto(dst []Edge, data []byte, count uint64) ([]Edge, error) {
	if count > uint64(len(data))/2 {
		return nil, fmt.Errorf("count %d exceeds capacity of %d bytes", count, len(data))
	}
	if uint64(cap(dst)) < count {
		dst = make([]Edge, count)
	}
	dst = dst[:count]
	// While two varints of the greatest length are in reach nothing can run off
	// the end of data; the few elements behind that point take the loop that looks.
	idx, at := decodeVec(dst, data)
	for ; idx < len(dst) && len(data)-at >= 2*binary.MaxVarintLen64; idx++ {
		uo, n := uvarintIn((*[binary.MaxVarintLen64]byte)(data[at:]))
		it, m := uvarintIn((*[binary.MaxVarintLen64]byte)(data[at+max(n, 0):]))
		if n <= 0 || m <= 0 {
			return nil, fmt.Errorf("element %d truncated", idx)
		}
		at += n + m
		dst[idx] = Edge{User: User(uo >> 1), Item: Item(it), Op: Op(uo & 1)}
	}
	data = data[at:]
	for ; idx < len(dst); idx++ {
		uo, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("element %d truncated", idx)
		}
		data = data[n:]
		it, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("element %d truncated", idx)
		}
		data = data[n:]
		dst[idx] = Edge{User: User(uo >> 1), Item: Item(it), Op: Op(uo & 1)}
	}
	// Trailing garbage means the bytes were not produced by AppendElements.
	if len(data) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d elements", len(data), count)
	}
	return dst, nil
}

// AppendBinary appends edges in the binary format — magic, element count,
// then each element per AppendElements — to buf, growing it at most once.
// See AppendElements for the one error.
func AppendBinary(buf []byte, edges []Edge) ([]byte, error) {
	size, err := elementsLen(edges)
	if err != nil {
		return buf, err
	}
	buf = slices.Grow(buf, len(binaryMagic)+binary.MaxVarintLen64+size)
	buf = append(buf, binaryMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	return appendAll(buf, edges), nil
}

// DecodeBinary parses the binary format: data must be exactly one encoded
// stream. Every rejection wraps ErrBadFormat.
func DecodeBinary(data []byte) ([]Edge, error) { return DecodeBinaryInto(nil, data) }

// DecodeBinaryInto is DecodeBinary into the caller's memory, as
// DecodeElementsInto.
func DecodeBinaryInto(dst []Edge, data []byte) ([]Edge, error) {
	if len(data) < len(binaryMagic) {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the magic", ErrBadFormat, len(data))
	}
	if !IsBinary(data) {
		return nil, fmt.Errorf("%w: wrong magic", ErrBadFormat)
	}
	count, n := binary.Uvarint(data[len(binaryMagic):])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad element count", ErrBadFormat)
	}
	const sanityCap = 1 << 31
	if count > sanityCap {
		return nil, fmt.Errorf("%w: implausible element count %d", ErrBadFormat, count)
	}
	out, err := DecodeElementsInto(dst, data[len(binaryMagic)+n:], count)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return out, nil
}

// BinaryElements is a binary stream DecodeBinary accepted, less its magic:
// the uvarint element count and the elements, the WAL record payload's shape
// (internal/wal), so that the body can be logged as it came instead of
// encoded again.
func BinaryElements(data []byte) []byte { return data[len(binaryMagic):] }

// writeChunk is how many elements WriteBinary encodes between writes: the
// encode buffer stays a few hundred KiB however long the stream is.
const writeChunk = 1 << 14

// WriteBinary writes edges in the binary format (AppendBinary) to w, a
// chunk of elements to a Write. A user above MaxUser is an ErrUserRange
// error and nothing is written.
func WriteBinary(w io.Writer, edges []Edge) error {
	if err := CheckUsers(edges); err != nil {
		return err
	}
	buf := append([]byte(nil), binaryMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for {
		n := min(len(edges), writeChunk)
		buf, _ = AppendElements(buf, edges[:n]) // every user was checked above
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if edges = edges[n:]; len(edges) == 0 {
			return nil
		}
		buf = buf[:0]
	}
}

// ReadBinary parses the binary format from r, read to its end
// (DecodeBinary).
func ReadBinary(r io.Reader) ([]Edge, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return DecodeBinary(data)
}
