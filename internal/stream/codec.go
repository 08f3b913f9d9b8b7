package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// AppendElement appends the binary encoding of one element — uvarint
// (user<<1 | opBit), then uvarint item — to buf. This is the single
// definition of the per-element wire shape, shared by the stream file
// format (WriteBinary/ReadBinary) and the WAL record payload
// (internal/wal): the two formats are byte-compatible at the element
// level by construction, not by parallel maintenance.
func AppendElement(buf []byte, e Edge) []byte {
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

// DecodeElement decodes one element from the front of data, returning it
// and the number of bytes consumed; n <= 0 reports truncated or invalid
// input. The inverse of AppendElement.
func DecodeElement(data []byte) (Edge, int) {
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

// DecodeElements decodes exactly count elements from data with nothing left
// over — the body every element container shares (the stream file, the WAL
// record payload, the VOSSTRM1 data frame); each wraps the error in its own
// sentinel. Each element occupies at least two bytes (a one-byte uvarint
// each for the user+op word and the item), so a count the bytes cannot
// possibly hold is malformed. All three containers take untrusted input
// (POST /v1/edges, datagrams, inspection tools reading non-CRC-validated
// records), so the pre-allocation below must never trust count beyond what
// data could actually encode — a forged 16-byte header must not reserve
// gigabytes.
func DecodeElements(data []byte, count uint64) ([]Edge, error) {
	if count > uint64(len(data))/2 {
		return nil, fmt.Errorf("count %d exceeds capacity of %d bytes", count, len(data))
	}
	out := make([]Edge, 0, count)
	for idx := uint64(0); idx < count; idx++ {
		e, n := DecodeElement(data)
		if n <= 0 {
			return nil, fmt.Errorf("element %d truncated", idx)
		}
		data = data[n:]
		out = append(out, e)
	}
	// Trailing garbage means the bytes were not produced by AppendElement.
	if len(data) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d elements", len(data), count)
	}
	return out, nil
}

// WriteBinary writes edges in the binary format: magic, element count, then
// each element per AppendElement.
func WriteBinary(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(edges)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	for _, e := range edges {
		if _, err := bw.Write(AppendElement(buf[:0], e)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) ([]Edge, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("%w: wrong magic", ErrBadFormat)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrBadFormat, err)
	}
	const sanityCap = 1 << 31
	if count > sanityCap {
		return nil, fmt.Errorf("%w: implausible element count %d", ErrBadFormat, count)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	out, err := DecodeElements(rest, count)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return out, nil
}
