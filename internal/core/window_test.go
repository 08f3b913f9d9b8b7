package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

var winTestCfg = Config{MemoryBits: 1 << 14, SketchBits: 256, Seed: 7}

func winEdge(r *rand.Rand) stream.Edge {
	op := stream.Insert
	if r.Intn(4) == 0 {
		op = stream.Delete
	}
	return stream.Edge{
		User: stream.User(r.Intn(50)),
		Item: stream.Item(r.Intn(500)),
		Op:   op,
	}
}

// mustEqualSketchBytes asserts the two sketches serialize to identical
// bytes — the window-parity bar: same array, same counters, same config.
func mustEqualSketchBytes(t *testing.T, got, want *VOS, msg string) {
	t.Helper()
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal got: %v", msg, err)
	}
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal want: %v", msg, err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: window sketch bytes diverge from fresh in-window sketch (%d vs %d bytes)",
			msg, len(gb), len(wb))
	}
}

// TestWindowParity is the tentpole property: after any sequence of ingests
// and rotations, the live window sketch is bit-identical (serialized
// bytes) to a fresh sketch built from only the in-window edges.
func TestWindowParity(t *testing.T) {
	for _, buckets := range []int{1, 2, 3, 8} {
		r := rand.New(rand.NewSource(int64(buckets)))
		w, err := NewWindowAt(winTestCfg, buckets, time.Second, time.Unix(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		// inWindow[k] holds the edges of the k-th live bucket slot.
		inWindow := make([][]stream.Edge, buckets)
		for round := 0; round < 6*buckets; round++ {
			for i := 0; i < 200; i++ {
				e := winEdge(r)
				w.Merged().Process(e)
				inWindow[buckets-1] = append(inWindow[buckets-1], e)
			}
			fresh := MustNew(winTestCfg)
			for _, be := range inWindow {
				for _, e := range be {
					fresh.Process(e)
				}
			}
			mustEqualSketchBytes(t, w.Merged(), fresh, "B="+string(rune('0'+buckets)))

			w.Rotate()
			copy(inWindow, inWindow[1:])
			inWindow[buckets-1] = nil
		}
		if want := time.Unix(int64(1+6*buckets), 0); !w.End().Equal(want) {
			t.Fatalf("after %d rotations the window ends at %v, want %v", 6*buckets, w.End(), want)
		}
	}
}

// bucketModel is a window kept as B plain sketches, oldest first, every
// write landing in the last: the reference TestWindowMatchesBucketModel holds
// Window's derived current bucket and its base against.
type bucketModel []*VOS

func (m bucketModel) rotate() {
	old := m[0]
	copy(m, m[1:])
	old.Reset()
	m[len(m)-1] = old
}

func (m bucketModel) merged() *VOS {
	out := MustNew(m[0].Config())
	for _, b := range m {
		if err := out.Merge(b); err != nil {
			panic(err)
		}
	}
	return out
}

// mustEqualState asserts what the serialized bytes do not carry: the array's
// ones count (Beta, recomputed on unmarshal) and the live user count.
func mustEqualState(t *testing.T, got, want *VOS, msg string) {
	t.Helper()
	if got.Beta() != want.Beta() || got.Users() != want.Users() {
		t.Fatalf("%s: beta %v, users %d; want beta %v, users %d",
			msg, got.Beta(), got.Users(), want.Beta(), want.Users())
	}
}

// TestWindowMatchesBucketModel drives a window and the bucket model through
// one seeded mix of every window operation — single and block writes (block
// sizes around blockLen), rotations, clock jumps across 0, 1, B and B+3
// boundaries, a bucket merge into each k in turn, and a serialization round
// trip — and after each one requires every bucket and the merged view to
// serialize as the model's do, with the model's Beta and Users, and Merged()
// to keep its pointer. One pair is queried on the merged view before each op,
// so that its recovered sketch sits in the cache, and again after it: the
// answer must be the model's, which a write that leaves the cache stale
// would not give.
func TestWindowMatchesBucketModel(t *testing.T) {
	for _, fam := range []hashing.Kind{hashing.KindClassic, hashing.KindFast} {
		cfg := winTestCfg
		cfg.Family = fam
		for _, buckets := range []int{1, 2, 3, 8} {
			r := rand.New(rand.NewSource(int64(buckets)<<8 | int64(fam)))
			w, err := NewWindowAt(cfg, buckets, time.Second, time.Unix(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			model := make(bucketModel, buckets)
			for k := range model {
				model[k] = MustNew(cfg)
			}
			merged, nextMerge := w.Merged(), 0
			const pu, pv = 1, 2
			for op := 0; op < 200; op++ {
				w.Merged().Query(pu, pv)
				var what string
				switch r.Intn(6) {
				case 0:
					what = "Process"
					e := winEdge(r)
					w.Merged().Process(e)
					model[buckets-1].Process(e)
				case 1:
					n := []int{0, 1, 256, 257}[r.Intn(4)]
					what = fmt.Sprintf("ProcessBatch(%d)", n)
					edges := make([]stream.Edge, n)
					for i := range edges {
						edges[i] = winEdge(r)
					}
					w.Merged().ProcessBatch(edges)
					model[buckets-1].ProcessBatch(edges)
				case 2:
					what = "Rotate"
					w.Rotate()
					model.rotate()
				case 3:
					cross := []int{0, 1, buckets, buckets + 3}[r.Intn(4)]
					what = fmt.Sprintf("AdvanceTo across %d", cross)
					end := w.End()
					if got := w.AdvanceTo(end.Add(time.Duration(cross-1) * time.Second)); got != cross {
						t.Fatalf("B=%d %v: %s crossed %d", buckets, fam, what, got)
					}
					if !w.End().Equal(end.Add(time.Duration(cross) * time.Second)) {
						t.Fatalf("B=%d %v: %s moved the end to %v from %v", buckets, fam, what, w.End(), end)
					}
					for i := 0; i < min(cross, buckets); i++ {
						model.rotate()
					}
				case 4:
					k := nextMerge % buckets
					nextMerge++
					what = fmt.Sprintf("MergeBucket(%d)", k)
					src := MustNew(cfg)
					for i := 0; i < 40; i++ {
						src.Process(winEdge(r))
					}
					if err := w.MergeBucket(k, src); err != nil {
						t.Fatal(err)
					}
					if err := model[k].Merge(src); err != nil {
						t.Fatal(err)
					}
				case 5:
					what = "MarshalBinary → UnmarshalWindow"
					data, err := w.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if w, err = UnmarshalWindow(data); err != nil {
						t.Fatal(err)
					}
					merged = w.Merged()
				}
				msg := fmt.Sprintf("B=%d %v op %d (%s)", buckets, fam, op, what)
				if w.Merged() != merged {
					t.Fatalf("%s: Merged() changed pointer", msg)
				}
				want := model.merged()
				mustEqualSketchBytes(t, w.Merged(), want, msg+": merged view")
				mustEqualState(t, w.Merged(), want, msg+": merged view")
				if got, want := w.Merged().Query(pu, pv), want.Query(pu, pv); got != want {
					t.Fatalf("%s: cached query %+v, want %+v", msg, got, want)
				}
				for k := range model {
					bucket := fmt.Sprintf("%s: bucket %d", msg, k)
					mustEqualSketchBytes(t, w.Bucket(k), model[k], bucket)
					mustEqualState(t, w.Bucket(k), model[k], bucket)
				}
			}
			if nextMerge < buckets {
				t.Fatalf("B=%d %v: the op mix merged into %d of %d buckets", buckets, fam, nextMerge, buckets)
			}
		}
	}
}

// TestWindowRotateAllocations: once every table of a filled window has grown
// to the window's users, a rotation allocates nothing — the sweep writes the
// three arrays in place, the closing bucket's counters go into the retired
// bucket's cleared table, and base's table is overwritten with merged's.
func TestWindowRotateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	const buckets = 4
	w, err := NewWindowAt(winTestCfg, buckets, time.Second, time.Unix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for k := 0; k <= buckets; k++ { // the last rotation is the warm one
		for i := 0; i < 400; i++ {
			w.Merged().Process(winEdge(r))
		}
		w.Rotate()
	}
	if got := testing.AllocsPerRun(2*buckets, w.Rotate); got != 0 {
		t.Fatalf("a rotation of a filled window made %.1f allocations, want 0", got)
	}
}

// TestWindowTumbling pins B=1 semantics: each rotation forgets everything.
func TestWindowTumbling(t *testing.T) {
	w, err := NewWindowAt(winTestCfg, 1, time.Second, time.Unix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		w.Merged().Process(winEdge(r))
	}
	if w.Merged().Stats().OnesCount == 0 {
		t.Fatal("expected a loaded array before rotation")
	}
	w.Rotate()
	st := w.Merged().Stats()
	if st.OnesCount != 0 || st.Users != 0 {
		t.Fatalf("tumbling rotation should clear everything, got ones=%d users=%d", st.OnesCount, st.Users)
	}
	mustEqualSketchBytes(t, w.Merged(), MustNew(winTestCfg), "post-tumble")
}

func TestWindowAdvanceTo(t *testing.T) {
	w, err := NewWindow(winTestCfg, 4, time.Second, time.Unix(10, 500))
	if err != nil {
		t.Fatal(err)
	}
	// Epoch alignment: the current bucket covering t=10.0000005s ends at 11s.
	if got := w.End(); !got.Equal(time.Unix(11, 0)) {
		t.Fatalf("aligned end = %v, want 11s", got)
	}
	// Clock skew: an instant before the current end never moves the window.
	if n := w.AdvanceTo(time.Unix(10, 999)); n != 0 {
		t.Fatalf("backwards advance rotated %d times", n)
	}
	if n := w.AdvanceTo(time.Unix(1, 0)); n != 0 {
		t.Fatalf("pre-window advance rotated %d times", n)
	}
	// Crossing one boundary rotates once.
	if n := w.AdvanceTo(time.Unix(11, 0)); n != 1 {
		t.Fatalf("advance to end rotated %d times, want 1", n)
	}
	if got := w.End(); !got.Equal(time.Unix(12, 0)) {
		t.Fatalf("end after advance = %v, want 12s", got)
	}
	// A gap much longer than the window: boundary count is reported in
	// full, physical rotations are capped at B, and the clock lands on the
	// right boundary.
	w.Merged().Process(stream.Edge{User: 1, Item: 2, Op: stream.Insert})
	if n := w.AdvanceTo(time.Unix(1000, 1)); n != 989 {
		t.Fatalf("long-gap advance reported %d boundaries, want 989", n)
	}
	if got := w.End(); !got.Equal(time.Unix(1001, 0)) {
		t.Fatalf("end after long gap = %v, want 1001s", got)
	}
	if st := w.Merged().Stats(); st.OnesCount != 0 || st.Users != 0 {
		t.Fatalf("long-gap advance should clear the window, got ones=%d users=%d", st.OnesCount, st.Users)
	}
}

func TestWindowMarshalRoundTrip(t *testing.T) {
	w, err := NewWindowAt(winTestCfg, 3, 2*time.Second, time.Unix(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for round := 0; round < 5; round++ {
		for i := 0; i < 150; i++ {
			w.Merged().Process(winEdge(r))
		}
		w.Rotate()
	}
	for i := 0; i < 70; i++ {
		w.Merged().Process(winEdge(r)) // current bucket partially filled
	}
	data, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !isWindowData(data) {
		t.Fatal("serialized window not recognised by isWindowData")
	}
	got, err := UnmarshalWindow(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Buckets() != 3 || got.BucketDuration() != 2*time.Second || !got.End().Equal(w.End()) {
		t.Fatalf("round-trip metadata mismatch: B=%d d=%v end=%v", got.Buckets(), got.BucketDuration(), got.End())
	}
	mustEqualSketchBytes(t, got.Merged(), w.Merged(), "round-trip merged view")
	for k := 0; k < 3; k++ {
		mustEqualSketchBytes(t, got.Bucket(k), w.Bucket(k), "round-trip bucket")
	}
	// The restored window must keep rotating correctly.
	got.Rotate()
	w.Rotate()
	mustEqualSketchBytes(t, got.Merged(), w.Merged(), "post-round-trip rotation")
}

func TestWindowMarshalRejectsCorrupt(t *testing.T) {
	w, _ := NewWindowAt(winTestCfg, 2, time.Second, time.Unix(2, 0))
	w.Merged().Process(stream.Edge{User: 1, Item: 1, Op: stream.Insert})
	data, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), data[4:]...),
		"truncated": data[:len(data)-3],
		"trailing":  append(append([]byte{}, data...), 0),
	}
	for name, c := range cases {
		if _, err := UnmarshalWindow(c); err == nil {
			t.Errorf("%s: UnmarshalWindow accepted corrupt input", name)
		}
	}
	if _, err := UnmarshalVOS(data); err == nil {
		t.Error("UnmarshalVOS accepted window bytes")
	}
}

// TestWindowUnmarshalHostileBucketCount: a header claiming a huge bucket
// count alongside one valid bucket must fail with ErrCorrupt on the
// missing payload — allocation stays proportional to the input, the same
// hostile-header contract UnmarshalVOS enforces one layer down.
func TestWindowUnmarshalHostileBucketCount(t *testing.T) {
	w, err := NewWindowAt(winTestCfg, 1, time.Second, time.Unix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	w.Merged().Process(stream.Edge{User: 1, Item: 2, Op: stream.Insert})
	data, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// nb lives after the 4-byte magic + bucketNS + endNS.
	forged := append([]byte{}, data...)
	binary.LittleEndian.PutUint64(forged[4+8+8:], uint64(len(data))/8) // largest nb the plausibility bound admits
	if _, err := UnmarshalWindow(forged); err == nil {
		t.Fatal("hostile bucket count accepted")
	}
	// Mismatched bucket configs must also be rejected: two valid buckets
	// serialized with different seeds cannot form one window.
	other := MustNew(Config{MemoryBits: winTestCfg.MemoryBits, SketchBits: winTestCfg.SketchBits, Seed: 99})
	ob, _ := other.MarshalBinary()
	wb, _ := w.Bucket(0).MarshalBinary()
	var buf []byte
	buf = append(buf, data[:4+8+8]...)
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], 2)
	buf = append(buf, scratch[:]...)
	for _, b := range [][]byte{wb, ob} {
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(b)))
		buf = append(buf, scratch[:]...)
		buf = append(buf, b...)
	}
	if _, err := UnmarshalWindow(buf); err == nil {
		t.Fatal("window with mismatched bucket configs accepted")
	}
}

func TestWindowConstructorValidation(t *testing.T) {
	if _, err := NewWindow(winTestCfg, 0, time.Second, time.Unix(0, 0)); err == nil {
		t.Error("accepted 0 buckets")
	}
	if _, err := NewWindow(winTestCfg, 4, 0, time.Unix(0, 0)); err == nil {
		t.Error("accepted zero bucket duration")
	}
	if _, err := NewWindow(Config{}, 4, time.Second, time.Unix(0, 0)); err == nil {
		t.Error("accepted invalid sketch config")
	}
}
