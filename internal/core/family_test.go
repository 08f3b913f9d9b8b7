package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/cpu"
	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// The fast hash family must be a drop-in accuracy-neutral replacement for
// the classic one: same estimator, same query paths, different position
// generation. These tests pin that contract — estimates stay accurate, all
// query paths agree with each other under KindFast, serialized state
// carries the family, and state built under different families is refused
// with the typed ErrFamilyMismatch.

func fastConfig() Config {
	cfg := testConfig()
	cfg.Family = hashing.KindFast
	return cfg
}

func TestConfigValidateFamily(t *testing.T) {
	cfg := testConfig()
	cfg.Family = hashing.Kind(9)
	if _, err := New(cfg); err == nil {
		t.Error("invalid hash family accepted")
	}
	// The family tag rides in the high byte of the serialized SketchBits
	// word, so k must stay below 2^48 for the encoding to be unambiguous.
	// An int narrower than 64 bits cannot hold 2^48: there the case is skipped.
	if shift := 48; math.MaxInt == math.MaxInt64 {
		big := Config{MemoryBits: 1 << 49, SketchBits: 1 << shift, Seed: 1}
		if _, err := New(big); err == nil {
			t.Error("SketchBits >= 2^48 accepted; would collide with the family tag byte")
		}
	}
}

func TestFastFamilyAccuracy(t *testing.T) {
	// The fast family must keep estimator accuracy: same planted-pair
	// setup and error budget as TestQueryAccuracyLowLoad for the classic
	// family.
	const (
		trials = 30
		sizeA  = 300
		sizeB  = 260
		common = 120
	)
	sumErr, sumJErr := 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		v := MustNew(Config{MemoryBits: 1 << 20, SketchBits: 2048, Seed: uint64(trial), Family: hashing.KindFast})
		for _, e := range gen.PlantedPair(1, 2, sizeA, sizeB, common, int64(trial)) {
			v.Process(e)
		}
		est := v.Query(1, 2)
		sumErr += math.Abs(est.Common - common)
		trueJ := float64(common) / float64(sizeA+sizeB-common)
		sumJErr += math.Abs(est.Jaccard - trueJ)
	}
	if avg := sumErr / trials; avg > 12 {
		t.Errorf("mean |ŝ−s| = %.2f for s=%d, too large", avg, common)
	}
	if avgJ := sumJErr / trials; avgJ > 0.05 {
		t.Errorf("mean Jaccard error = %.3f, too large", avgJ)
	}
}

func TestFastFamilyQueryPathParity(t *testing.T) {
	// Every query path — per-bit, materialized, recovered-probe — must
	// produce the identical estimate under the fast family, exactly as the
	// classic family's parity tests pin.
	v := MustNew(fastConfig())
	rng := rand.New(rand.NewSource(11))
	for u := stream.User(1); u <= 20; u++ {
		for j := 0; j < 40; j++ {
			v.Process(stream.Edge{User: u, Item: stream.Item(rng.Uint64() % 500), Op: stream.Insert})
		}
	}
	for u := stream.User(1); u <= 20; u++ {
		r := v.RecoverSketch(u)
		for w := stream.User(1); w <= 20; w++ {
			per := v.QueryPerBit(u, w)
			mat := v.Query(u, w)
			rec := v.QueryRecovered(r, w)
			if per != mat {
				t.Fatalf("Query(%d,%d) per-bit %+v != materialized %+v", u, w, per, mat)
			}
			if rec != mat {
				t.Fatalf("Query(%d,%d) recovered %+v != materialized %+v", u, w, rec, mat)
			}
		}
	}
}

func TestFastFamilyIndependentPositions(t *testing.T) {
	// Sanity: the two families really do place the same user's slots at
	// different positions (otherwise the wire tag would be meaningless).
	classic := MustNew(testConfig())
	fast := MustNew(fastConfig())
	same := 0
	pc := classic.Positions(77)
	pf := fast.Positions(77)
	for j := range pc {
		if pc[j] == pf[j] {
			same++
		}
	}
	if same > len(pc)/8 {
		t.Errorf("families agree on %d/%d positions; expected near-independence", same, len(pc))
	}
}

func TestFamilyMarshalRoundTrip(t *testing.T) {
	v := MustNew(fastConfig())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		v.Process(stream.Edge{User: stream.User(rng.Uint64() % 16), Item: stream.Item(rng.Uint64() % 200), Op: stream.Insert})
	}
	v.Process(edgeFor(3, 5, false))

	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalVOS(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config() != v.Config() {
		t.Fatalf("round trip config %+v, want %+v", got.Config(), v.Config())
	}
	if got.Config().Family != hashing.KindFast {
		t.Fatalf("family lost in round trip: %v", got.Config().Family)
	}
	if got.Stats() != v.Stats() {
		t.Fatalf("round trip stats %+v, want %+v", got.Stats(), v.Stats())
	}
	if a, b := got.Query(1, 2), v.Query(1, 2); a != b {
		t.Fatalf("round trip Query(1,2) = %+v, want %+v", a, b)
	}
	re, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("re-marshal of decoded fast-family sketch is not byte-identical")
	}
}

func TestClassicMarshalUnchangedByFamilyTag(t *testing.T) {
	// KindClassic is the zero tag: its serialized form must be identical to
	// the pre-family format, byte for byte. The golden fixture pins the
	// exact bytes; here we pin the structural reason — a zero high byte.
	v := MustNew(testConfig())
	v.Process(edgeFor(1, 2, true))
	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// SketchBits word is the second header u64 (offset 12, little-endian);
	// its high byte — offset 19 — carries the family tag.
	if data[19] != 0 {
		t.Fatalf("classic sketch has nonzero family tag byte %#x", data[19])
	}
}

func TestUnknownFamilyTagRejected(t *testing.T) {
	v := MustNew(testConfig())
	v.Process(edgeFor(1, 2, true))
	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	data[19] = 0x07 // unknown family tag in the SketchBits high byte
	_, err = UnmarshalVOS(data)
	if err == nil {
		t.Fatal("unknown family tag accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("error %v does not wrap ErrCorrupt", err)
	}
	if !errors.Is(err, ErrFamilyMismatch) {
		t.Errorf("error %v does not wrap ErrFamilyMismatch", err)
	}
}

func TestMergeFamilyMismatch(t *testing.T) {
	classic := MustNew(testConfig())
	fast := MustNew(fastConfig())
	if err := classic.Merge(fast); !errors.Is(err, ErrFamilyMismatch) {
		t.Errorf("Merge across families: err = %v, want ErrFamilyMismatch", err)
	}
	// Same family still merges.
	f2 := MustNew(fastConfig())
	if err := fast.Merge(f2); err != nil {
		t.Errorf("same-family merge failed: %v", err)
	}
}

// ProcessBatch is a pure performance path: folding a batch must leave state
// bit-identical to processing its edges one at a time, for both families,
// including deletes and repeated users — on the dispatched edge positions and
// on the Go loop alone.
func TestProcessBatchMatchesProcess(t *testing.T) {
	t.Run("dispatched", testProcessBatchMatchesProcess)
	defer cpu.GoLoopsOnly()()
	t.Run("go", testProcessBatchMatchesProcess)
}

func testProcessBatchMatchesProcess(t *testing.T) {
	for _, cfg := range []Config{testConfig(), fastConfig()} {
		rng := rand.New(rand.NewSource(21))
		edges := make([]stream.Edge, 0, 600)
		for i := 0; i < 600; i++ {
			op := stream.Insert
			if i%5 == 4 {
				op = stream.Delete
			}
			edges = append(edges, stream.Edge{
				User: stream.User(rng.Uint64() % 12),
				Item: stream.Item(rng.Uint64() % 300),
				Op:   op,
			})
		}
		one := MustNew(cfg)
		bat := MustNew(cfg)
		for _, e := range edges {
			one.Process(e)
		}
		bat.ProcessBatch(nil) // empty batch is a no-op
		bat.ProcessBatch(edges[:1])
		bat.ProcessBatch(edges[1:])
		a, _ := one.MarshalBinary()
		b, _ := bat.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Errorf("family %v: ProcessBatch state differs from per-edge Process", cfg.Family)
		}
	}
}

func TestWindowProcessBatchMatchesProcess(t *testing.T) {
	for _, cfg := range []Config{testConfig(), fastConfig()} {
		start := time.Unix(100, 0)
		one, err := NewWindowAt(cfg, 4, time.Second, start)
		if err != nil {
			t.Fatal(err)
		}
		bat, err := NewWindowAt(cfg, 4, time.Second, start)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		edges := make([]stream.Edge, 0, 200)
		for i := 0; i < 200; i++ {
			op := stream.Insert
			if i%7 == 6 {
				op = stream.Delete
			}
			edges = append(edges, stream.Edge{
				User: stream.User(rng.Uint64() % 8),
				Item: stream.Item(rng.Uint64() % 100),
				Op:   op,
			})
		}
		for _, e := range edges[:100] {
			one.Merged().Process(e)
		}
		bat.Merged().ProcessBatch(edges[:100])
		one.Rotate()
		bat.Rotate()
		for _, e := range edges[100:] {
			one.Merged().Process(e)
		}
		bat.Merged().ProcessBatch(edges[100:])
		a, _ := one.MarshalBinary()
		b, _ := bat.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Errorf("family %v: Window.ProcessBatch state differs from per-edge Process", cfg.Family)
		}
		am, _ := one.Merged().MarshalBinary()
		bm, _ := bat.Merged().MarshalBinary()
		if !bytes.Equal(am, bm) {
			t.Errorf("family %v: Window.ProcessBatch merged view differs", cfg.Family)
		}
	}
}

// blockEdges builds n edges aimed at what a block step could get wrong:
// six users, so every block repeats each many times; twenty items, so the
// same (user, item) pair is toggled several times inside one block and its
// bit must cancel; and user 0 on every third edge alternating delete and
// insert, so its counter runs −1, 0, −1, … — pruned and re-created inside
// a block.
func blockEdges(n int, seed int64) []stream.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]stream.Edge, n)
	for i := range edges {
		if i%3 == 0 {
			edges[i] = stream.Edge{User: 0, Item: 7, Op: stream.Op(1 - i/3%2)}
			continue
		}
		edges[i] = stream.Edge{
			User: stream.User(1 + rng.Intn(5)),
			Item: stream.Item(rng.Intn(20)),
			Op:   stream.Op(rng.Intn(2)),
		}
	}
	return edges
}

// blockLengths straddle the block length of ProcessBatch on both sides, one
// and two blocks over, and many blocks.
var blockLengths = []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 2*blockLen + 1, 4096}

// TestProcessBatchBlockParity: at every length around the block boundary a
// single ProcessBatch call leaves the serialized sketch byte-identical to
// Process edge by edge — from an empty sketch and again from the populated
// one — for both families.
func TestProcessBatchBlockParity(t *testing.T) {
	for _, cfg := range []Config{testConfig(), fastConfig()} {
		for _, n := range blockLengths {
			one, bat := MustNew(cfg), MustNew(cfg)
			for round := int64(0); round < 2; round++ {
				edges := blockEdges(n, 40+round)
				for _, e := range edges {
					one.Process(e)
				}
				bat.ProcessBatch(edges)
				mustEqualSketchBytes(t, bat, one, fmt.Sprintf("family %v, %d edges, round %d", cfg.Family, n, round))
			}
		}
	}
}

// TestWindowProcessBatchBlockParity is the same for the window: the merged
// view and the current bucket each match per-edge Window.Process, across a
// rotation.
func TestWindowProcessBatchBlockParity(t *testing.T) {
	for _, cfg := range []Config{testConfig(), fastConfig()} {
		for _, n := range blockLengths {
			start := time.Unix(100, 0)
			one, err := NewWindowAt(cfg, 3, time.Second, start)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := NewWindowAt(cfg, 3, time.Second, start)
			if err != nil {
				t.Fatal(err)
			}
			for round := int64(0); round < 2; round++ {
				edges := blockEdges(n, 50+round)
				for _, e := range edges {
					one.Merged().Process(e)
				}
				bat.Merged().ProcessBatch(edges)
				msg := fmt.Sprintf("family %v, %d edges, round %d", cfg.Family, n, round)
				mustEqualSketchBytes(t, bat.Merged(), one.Merged(), msg+", merged view")
				mustEqualSketchBytes(t, bat.Bucket(2), one.Bucket(2), msg+", current bucket")
				one.Rotate()
				bat.Rotate()
			}
		}
	}
}

// A counterBlockCase is a prefix, applied edge by edge to both sides, and one
// block of at most blockLen edges that one side applies with ProcessBatch.
type counterBlockCase struct {
	name          string
	prefix, block []stream.Edge
	atLoadLimit   bool // the prefix must leave every table one insertion short of growing
	wantUsers     int
}

// counterBlockCases are single blocks aimed at the counter table's block step.
func counterBlockCases() []counterBlockCase {
	ins := func(u, i int) stream.Edge { return stream.Edge{User: stream.User(u), Item: stream.Item(i)} }
	del := func(u, i int) stream.Edge {
		return stream.Edge{User: stream.User(u), Item: stream.Item(i), Op: stream.Delete}
	}

	// A table one insertion short of growing: the block's 256 unseen users
	// need the growth, and it has to come before the block's home slots are
	// computed, not between them.
	var full []stream.Edge
	c := newCounters(counterTestSeed)
	for u := 0; 3*(c.live+1) <= 2*len(c.slots) || c.live < 300; u++ {
		c.bump(stream.User(u), 1)
		full = append(full, ins(u, 1))
	}
	unseen := make([]stream.Edge, blockLen)
	for i := range unseen {
		unseen[i] = ins(1_000_000+i, i)
	}

	filled, emptying := make([]stream.Edge, 100), make([]stream.Edge, 100)
	for u := range filled {
		filled[u], emptying[u] = ins(u, 9), del(u, 9)
	}
	return []counterBlockCase{
		{name: "a user goes +1, -1, +1 in one block", prefix: []stream.Edge{ins(1, 1), ins(2, 1)},
			block: []stream.Edge{ins(7, 1), ins(1, 2), del(7, 1), ins(2, 2), ins(7, 3)}, wantUsers: 3},
		{name: "a user goes -1, +1, -1 in one block", block: []stream.Edge{del(7, 1), ins(7, 1), del(7, 2)}, wantUsers: 1},
		{name: "256 unseen users into a table at its load limit", prefix: full, block: unseen,
			atLoadLimit: true, wantUsers: len(full) + blockLen},
		{name: "a block that empties the table", prefix: filled, block: emptying, wantUsers: 0},
	}
}

// TestProcessBatchCounterBlocks: the zero crossings, the growth and the
// emptying leave ProcessBatch byte-identical to Process, on a sketch and on a
// window's merged view and current bucket, for both families.
func TestProcessBatchCounterBlocks(t *testing.T) {
	atLimit := func(v *VOS) bool { return 3*(v.card.live+1) > 2*len(v.card.slots) }
	for _, cfg := range []Config{testConfig(), fastConfig()} {
		for _, tc := range counterBlockCases() {
			msg := fmt.Sprintf("family %v, %s", cfg.Family, tc.name)
			one, bat := MustNew(cfg), MustNew(cfg)
			wone, err := NewWindowAt(cfg, 2, time.Second, time.Unix(100, 0))
			if err != nil {
				t.Fatal(err)
			}
			wbat, err := NewWindowAt(cfg, 2, time.Second, time.Unix(100, 0))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range tc.prefix {
				one.Process(e)
				bat.Process(e)
				wone.Merged().Process(e)
				wbat.Merged().Process(e)
			}
			if tc.atLoadLimit && !(atLimit(bat) && atLimit(wbat.Merged()) && atLimit(wbat.Bucket(1))) {
				t.Fatalf("%s: a table is not at its load limit before the block", msg)
			}
			for _, e := range tc.block {
				one.Process(e)
				wone.Merged().Process(e)
			}
			bat.ProcessBatch(tc.block)
			wbat.Merged().ProcessBatch(tc.block)
			mustEqualSketchBytes(t, bat, one, msg)
			mustEqualSketchBytes(t, wbat.Merged(), wone.Merged(), msg+", merged view")
			mustEqualSketchBytes(t, wbat.Bucket(1), wone.Bucket(1), msg+", current bucket")
			if bat.Users() != tc.wantUsers || wbat.Merged().Users() != tc.wantUsers {
				t.Errorf("%s: %d users (window %d), want %d", msg, bat.Users(), wbat.Merged().Users(), tc.wantUsers)
			}
		}
	}
}

// TestMergeCounters: with 20,000 users a side, Merge into an empty sketch
// copies the source byte for byte, and Merge into a populated one equals the
// sketch of the two streams together, cancelled counters pruned.
func TestMergeCounters(t *testing.T) {
	const users = 20_000
	for _, cfg := range []Config{testConfig(), fastConfig()} {
		a, b, both := MustNew(cfg), MustNew(cfg), MustNew(cfg)
		for u := 0; u < users; u++ {
			// a holds users [0, 20k) at +1, b holds [10k, 30k), two in three
			// of them at −1: where those overlap a's, the merged counter
			// cancels to zero and the entry goes.
			ea := stream.Edge{User: stream.User(u), Item: stream.Item(u % 50)}
			eb := stream.Edge{User: stream.User(u + users/2), Item: stream.Item(u % 50), Op: stream.Op(min(u%3, 1))}
			a.Process(ea)
			b.Process(eb)
			both.Process(ea)
			both.Process(eb)
		}
		msg := fmt.Sprintf("family %v", cfg.Family)
		dst := MustNew(cfg)
		if err := dst.Merge(a); err != nil {
			t.Fatal(err)
		}
		mustEqualSketchBytes(t, dst, a, msg+", merge into an empty sketch")
		if err := dst.Merge(b); err != nil {
			t.Fatal(err)
		}
		mustEqualSketchBytes(t, dst, both, msg+", merge into a populated sketch")
		if dst.Users() >= a.Users()+b.Users() {
			t.Errorf("%s: no counter cancelled in the merge (%d users)", msg, dst.Users())
		}
	}
}

func TestStatsReportsFamily(t *testing.T) {
	if got := MustNew(testConfig()).Stats().Family; got != hashing.KindClassic {
		t.Errorf("classic Stats().Family = %v", got)
	}
	if got := MustNew(fastConfig()).Stats().Family; got != hashing.KindFast {
		t.Errorf("fast Stats().Family = %v", got)
	}
}
