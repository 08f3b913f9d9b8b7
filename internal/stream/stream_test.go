package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if Insert.String() != "+" || Delete.String() != "-" {
		t.Errorf("op strings: %q %q", Insert, Delete)
	}
	if !Insert.Valid() || !Delete.Valid() || Op(7).Valid() {
		t.Error("Op.Valid misclassifies")
	}
	if got := Op(9).String(); got != "Op(9)" {
		t.Errorf("unknown op renders %q", got)
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{User: 3, Item: 9, Op: Delete}
	if got := e.String(); got != "(3, 9, -)" {
		t.Errorf("Edge.String() = %q", got)
	}
}

func TestStats(t *testing.T) {
	st := NewStats()
	st.Observe(Edge{1, 10, Insert})
	st.Observe(Edge{1, 11, Insert})
	st.Observe(Edge{2, 10, Insert})
	st.Observe(Edge{1, 10, Delete})
	st.Observe(Edge{2, 11, 2}) // an undefined Op is an insert
	if st.Inserts != 4 || st.Deletes != 1 {
		t.Errorf("counts: +%d −%d", st.Inserts, st.Deletes)
	}
	if st.Users() != 2 || st.Items() != 2 {
		t.Errorf("distinct: users=%d items=%d", st.Users(), st.Items())
	}
	if !strings.Contains(st.String(), "live=3") {
		t.Errorf("String() = %q, want live=3", st.String())
	}
	if st.Elements() != 5 {
		t.Errorf("elements = %d", st.Elements())
	}
	if !strings.Contains(st.String(), "elements=5") {
		t.Errorf("String() = %q", st.String())
	}
}

func TestValidatorAcceptsFeasible(t *testing.T) {
	edges := []Edge{
		{1, 10, Insert},
		{1, 11, Insert},
		{1, 10, Delete},
		{1, 10, Insert}, // re-subscription after unsubscription is legal
	}
	if err := Validate(edges); err != nil {
		t.Fatalf("feasible stream rejected: %v", err)
	}
}

func TestValidatorRejectsDuplicateInsert(t *testing.T) {
	err := Validate([]Edge{{1, 10, Insert}, {1, 10, Insert}})
	if err == nil {
		t.Fatal("duplicate insert accepted")
	}
	fe, ok := err.(*FeasibilityError)
	if !ok {
		t.Fatalf("wrong error type %T", err)
	}
	if fe.Position != 1 {
		t.Errorf("position = %d, want 1", fe.Position)
	}
	if !strings.Contains(fe.Error(), "duplicate subscription") {
		t.Errorf("message = %q", fe.Error())
	}
}

func TestValidatorRejectsDeleteOfAbsent(t *testing.T) {
	err := Validate([]Edge{{1, 10, Delete}})
	if err == nil {
		t.Fatal("delete of absent edge accepted")
	}
	if !strings.Contains(err.Error(), "unsubscription of absent edge") {
		t.Errorf("message = %q", err)
	}
}

func TestValidatorRejectsInvalidOp(t *testing.T) {
	v := NewValidator()
	if err := v.Observe(Edge{1, 1, Op(9)}); err == nil {
		t.Error("invalid op accepted")
	}
}

func TestValidatorContinuesAfterViolation(t *testing.T) {
	v := NewValidator()
	_ = v.Observe(Edge{1, 10, Insert})
	if err := v.Observe(Edge{1, 10, Insert}); err == nil {
		t.Fatal("expected violation")
	}
	// State unchanged by the bad element: the edge is still live.
	if err := v.Observe(Edge{1, 10, Delete}); err != nil {
		t.Fatalf("delete after skipped violation failed: %v", err)
	}
	if err := v.Observe(Edge{1, 10, Delete}); err == nil {
		t.Error("second delete accepted: the edge is still live")
	}
}

func TestTextRoundTrip(t *testing.T) {
	edges := []Edge{
		{1, 10, Insert},
		{2, 20, Delete},
		{18446744073709551615, 18446744073709551614, Insert}, // max uint64
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, edges); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("got %d edges", len(got))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Errorf("edge %d: %v != %v", i, got[i], edges[i])
		}
	}
}

func TestReadTextCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n+ 1 2\n  \n- 1 2\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d edges", len(got))
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"bad op":       "* 1 2\n",
		"wrong fields": "+ 1\n",
		"bad user":     "+ x 2\n",
		"bad item":     "+ 1 y\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	err := quick.Check(func(users, items []uint32, dels []bool) bool {
		n := len(users)
		if len(items) < n {
			n = len(items)
		}
		if len(dels) < n {
			n = len(dels)
		}
		edges := make([]Edge, n)
		for i := 0; i < n; i++ {
			op := Insert
			if dels[i] {
				op = Delete
			}
			edges[i] = Edge{User: User(users[i]), Item: Item(items[i]), Op: op}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, edges); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestReadBinaryRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []Edge{{1, 2, Insert}, {3, 4, Delete}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte{0}, data[1:]...),
		"truncated": data[:len(data)-1],
		"trailing":  append(append([]byte(nil), data...), 0xff),
	}
	for name, d := range cases {
		if _, err := ReadBinary(bytes.NewReader(d)); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// TestReadBinaryForgedCount: the decoder reaches untrusted input through
// POST /v1/edges, so a tiny body declaring a huge element count must be
// rejected as malformed before the count drives any allocation — a
// ~16-byte request must not reserve gigabytes.
func TestReadBinaryForgedCount(t *testing.T) {
	for _, count := range []uint64{1, 1 << 20, 1 << 30} {
		forged := append([]byte(nil), binaryMagic[:]...)
		forged = binary.AppendUvarint(forged, count)
		// No elements follow: any count > 0 exceeds what the body holds.
		if _, err := ReadBinary(bytes.NewReader(forged)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("count %d over empty body: want ErrBadFormat, got %v", count, err)
		}
	}
	// Borderline: a body of 2n bytes can hold at most n elements.
	forged := append([]byte(nil), binaryMagic[:]...)
	forged = binary.AppendUvarint(forged, 3)
	forged = append(forged, 1, 2, 3, 4) // 4 bytes: capacity for 2 elements, not 3
	if _, err := ReadBinary(bytes.NewReader(forged)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("count 3 over 4-byte body: want ErrBadFormat, got %v", err)
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty stream round-tripped to %d elements", len(got))
	}
}
