package lsh

import (
	"math/bits"
	"math/rand/v2"
	"testing"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/stream"
)

func TestBandIndexValidation(t *testing.T) {
	if _, err := NewBandIndex(Params{Bands: 0, Rows: 4}, 64); err == nil {
		t.Error("zero bands accepted")
	}
	if _, err := NewBandIndex(Params{Bands: 4, Rows: 4}, 0); err == nil {
		t.Error("zero signature bits accepted")
	}
	if _, err := NewBandIndex(Params{Bands: 4, Rows: 4}, 15); err == nil {
		t.Error("band structure wider than the signature accepted")
	}
	// Bands·Rows overflowing int must be rejected, not used as slice math:
	// 2^62·16 where int has 64 bits, 2^30·16 where it has 32.
	if _, err := NewBandIndex(Params{Bands: 1 << (bits.UintSize - 2), Rows: 16}, 64); err == nil {
		t.Error("overflowing bands x rows accepted")
	}
	ix, err := NewBandIndex(Params{Bands: 4, Rows: 4, Seed: 9}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Params().Bands != 4 {
		t.Fatalf("index misconfigured: %+v", ix.Params())
	}
	if err := ix.Put(1, []uint64{}); err == nil {
		t.Error("short packed signature accepted by Put")
	}
	if _, err := ix.Candidates(1, []uint64{}); err == nil {
		t.Error("short packed signature accepted by Candidates")
	}
}

func TestBandKeysDeterministicAndValidated(t *testing.T) {
	p := Params{Bands: 8, Rows: 16, Seed: 3}
	words := []uint64{0xdeadbeefcafef00d, 0x0123456789abcdef}
	a, err := BandKeys(p, words, 128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BandKeys(p, words, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != p.Bands {
		t.Fatalf("got %d keys, want %d", len(a), p.Bands)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("band %d key not deterministic", i)
		}
	}
	// A single flipped bit must change exactly its band's key.
	flipped := []uint64{words[0] ^ (1 << 20), words[1]}
	c, err := BandKeys(p, flipped, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if want := i == 20/p.Rows; (a[i] != c[i]) != want {
			t.Fatalf("bit 20 flip changed band %d (want only band %d)", i, 20/p.Rows)
		}
	}
	if _, err := BandKeys(p, words[:1], 128); err == nil {
		t.Error("short slice accepted")
	}
	if _, err := BandKeys(Params{Bands: 3, Rows: 3}, words, -1); err == nil {
		t.Error("negative signature bits accepted")
	}
}

// TestExtractBits pins the little-endian cross-word extraction against a
// scalar per-bit reference.
func TestExtractBits(t *testing.T) {
	words := []uint64{0xdeadbeefcafef00d, 0x0123456789abcdef, 0xfedcba9876543210}
	bitAt := func(i int) uint64 { return (words[i/64] >> (i % 64)) & 1 }
	for _, tc := range []struct{ off, n int }{
		{0, 64}, {0, 1}, {63, 1}, {63, 2}, {60, 24}, {64, 64}, {100, 64}, {127, 33}, {150, 42},
	} {
		got := extractBits(words, tc.off, tc.n)
		var want uint64
		for j := 0; j < tc.n; j++ {
			want |= bitAt(tc.off+j) << j
		}
		if got != want {
			t.Errorf("extractBits(off=%d, n=%d) = %x, want %x", tc.off, tc.n, got, want)
		}
	}
}

func TestBandIndexPutRemoveCandidates(t *testing.T) {
	ix, err := NewBandIndex(Params{Bands: 4, Rows: 8, Seed: 7}, 64)
	if err != nil {
		t.Fatal(err)
	}
	sig := []uint64{0x1122334455667788}
	other := []uint64{^uint64(0)}
	if err := ix.Put(1, sig); err != nil {
		t.Fatal(err)
	}
	if err := ix.Put(2, sig); err != nil {
		t.Fatal(err)
	}
	if err := ix.Put(3, other); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3 || !ix.Has(2) || ix.Has(9) {
		t.Fatalf("membership broken: len=%d", ix.Len())
	}
	cands, err := ix.Candidates(1, sig)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0] != 2 {
		t.Fatalf("Candidates = %v, want [2]", cands)
	}
	// Replacement: moving user 2 to a different signature must retire its
	// old banding — no ghost candidacy under the old signature.
	if err := ix.Put(2, other); err != nil {
		t.Fatal(err)
	}
	cands, _ = ix.Candidates(1, sig)
	if len(cands) != 0 {
		t.Fatalf("superseded banding still surfaces: %v", cands)
	}
	cands, _ = ix.Candidates(3, other)
	if len(cands) != 1 || cands[0] != 2 {
		t.Fatalf("re-banded user not found: %v", cands)
	}
	// Removal.
	ix.Remove(2)
	if ix.Has(2) || ix.Len() != 2 {
		t.Fatalf("remove broken: len=%d", ix.Len())
	}
	cands, _ = ix.Candidates(3, other)
	if len(cands) != 0 {
		t.Fatalf("removed user still surfaces: %v", cands)
	}
	ix.Remove(42) // absent: no-op
	// ForEachMember sees exactly the live members, early stop honoured.
	seen := map[stream.User]bool{}
	ix.ForEachMember(func(u stream.User) bool { seen[u] = true; return true })
	if len(seen) != 2 || !seen[1] || !seen[3] {
		t.Fatalf("ForEachMember = %v", seen)
	}
	calls := 0
	ix.ForEachMember(func(stream.User) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

// bandBits is the scalar reference for a band's bits: bit j of band `band`
// of the packed signature, read one at a time, packed from bit 0.
func bandBits(words []uint64, band, rows int) []uint64 {
	out := make([]uint64, BandWords(rows))
	for j := 0; j < rows; j++ {
		i := band*rows + j
		out[j/64] |= (words[i/64] >> (i % 64) & 1) << (j % 64)
	}
	return out
}

// walkBuckets calls fn for every bucket of the index — its band, its key and
// its members, chain order — after checking the structure under it: every
// table entry is where a probe for it finds it and heads its chain, the
// chain's links agree both ways, and each node on it belongs to the entry's
// band, holds the entry's key, hashes its stored bits to that key, sits on
// no other chain and is a member's.
func walkBuckets(t testing.TB, ix *BandIndex, fn func(band int, key uint64, members []stream.User)) {
	t.Helper()
	bands := ix.params.Bands
	onChain := map[int32]bool{}
	entries := 0
	for i, b := range ix.table {
		if b.head < 0 {
			continue
		}
		entries++
		band := int(b.band)
		if j, ok := ix.find(band, b.key); !ok || j != i {
			t.Fatalf("table entry %d (band %d key %x) is not where its probe finds it (%d, %v)", i, band, b.key, j, ok)
		}
		var members []stream.User
		for n, p := b.head, int32(-1); n >= 0; p, n = n, ix.next[n] {
			s := int(n) / bands
			bits := ix.bits[int(n)*ix.bw : (int(n)+1)*ix.bw]
			switch {
			case onChain[n]:
				t.Fatalf("node %d is on two chains", n)
			case ix.prev[n] != p:
				t.Fatalf("node %d links back to %d, its predecessor is %d", n, ix.prev[n], p)
			case int(n)%bands != band || ix.keys[n] != b.key:
				t.Fatalf("node %d (band %d, key %x) on the chain of band %d key %x", n, int(n)%bands, ix.keys[n], band, b.key)
			case packedBandKey(ix.params, band, bits, 0) != b.key:
				t.Fatalf("node %d holds key %x, its bits hash to %x", n, b.key, packedBandKey(ix.params, band, bits, 0))
			case ix.slots[ix.users[s]] != int32(s) || !ix.Has(ix.users[s]):
				t.Fatalf("node %d is in slot %d, which no member holds", n, s)
			}
			onChain[n] = true
			members = append(members, ix.users[s])
		}
		fn(band, b.key, members)
	}
	if entries != ix.used {
		t.Fatalf("table holds %d entries, counts %d", entries, ix.used)
	}
}

// checkBucketsExact walks every bucket: no bucket may hold a user twice,
// every entry must be a member sitting under the key it holds for that
// band, and there must be exactly one entry per (member, band). Together:
// bucket contents == members' keys.
func checkBucketsExact(t testing.TB, ix *BandIndex) {
	t.Helper()
	total := 0
	walkBuckets(t, ix, func(band int, key uint64, entries []stream.User) {
		total += len(entries)
		in := map[stream.User]bool{}
		for _, u := range entries {
			if in[u] {
				t.Fatalf("band %d bucket %x holds user %d twice", band, key, u)
			}
			in[u] = true
			if keys := ix.Keys(u); keys == nil || keys[band] != key {
				t.Fatalf("band %d bucket %x holds user %d, whose keys are %x", band, key, u, keys)
			}
		}
	})
	if want := ix.Len() * ix.Params().Bands; total != want {
		t.Fatalf("buckets hold %d entries, %d members x %d bands is %d", total, ix.Len(), ix.Params().Bands, want)
	}
}

// bucketOf returns the members of band's bucket for key.
func bucketOf(t testing.TB, ix *BandIndex, band int, key uint64) []stream.User {
	var out []stream.User
	walkBuckets(t, ix, func(b int, k uint64, members []stream.User) {
		if b == band && k == key {
			out = members
		}
	})
	return out
}

// TestBandIndexRekey pins mutation by key: a changed band is the only one
// re-keyed and its member leaves the old bucket as it joins the new one, so
// after every step the buckets hold exactly the members' keys — an
// identical re-Put, a return to a key held before (A→B→A) and a remove and
// re-add all leave one entry a band — and Toggle agrees with Put, also
// where Rows exceeds a word and bands straddle one.
func TestBandIndexRekey(t *testing.T) {
	p := Params{Bands: 3, Rows: 70, Seed: 11} // bands at bits 0, 70, 140
	const sigBits = 210
	a := []uint64{0x0123456789abcdef, 0xfedcba9876543210, 0xdeadbeefcafef00d, 0x1f}
	b := append([]uint64(nil), a...)
	b[1] ^= 1 << 10 // bit 74: band 1 only
	ix, err := NewBandIndex(p, sigBits)
	if err != nil {
		t.Fatal(err)
	}
	put := func(u stream.User, words []uint64) {
		t.Helper()
		if err := ix.Put(u, words); err != nil {
			t.Fatal(err)
		}
		checkBucketsExact(t, ix)
	}
	wantKeys := func(u stream.User, words []uint64) {
		t.Helper()
		want, err := BandKeys(p, words, sigBits)
		if err != nil {
			t.Fatal(err)
		}
		got := ix.Keys(u)
		for band := range want {
			if got[band] != want[band] {
				t.Fatalf("user %d band %d holds key %x, signature says %x", u, band, got[band], want[band])
			}
			if one := packedBandKey(p, band, bandBits(words, band, p.Rows), 0); one != want[band] {
				t.Fatalf("band %d: key from its bits %x, from the signature %x", band, one, want[band])
			}
		}
	}
	put(1, a)
	put(2, a)
	put(1, a) // identical: nothing moves
	put(1, b) // one band moved: user 1 leaves the bucket it shared with 2
	wantKeys(1, b)
	if old := bucketOf(t, ix, 1, ix.Keys(2)[1]); len(old) != 1 || old[0] != 2 {
		t.Fatalf("after a one-band change the old bucket holds %v, want [2]", old)
	}
	put(1, a) // back again: one entry, beside user 2
	wantKeys(1, a)
	if got := bucketOf(t, ix, 1, ix.Keys(2)[1]); len(got) != 2 {
		t.Fatalf("after A-B-A the bucket holds %v, want users 1 and 2 once each", got)
	}
	if cands, _ := ix.Candidates(2, a); len(cands) != 1 || cands[0] != 1 {
		t.Fatalf("after A-B-A, Candidates = %v, want [1]", cands)
	}

	// The same moves through Toggle: bit 74 is the one a and b differ in.
	toggle := func(u stream.User, j int, member bool) {
		t.Helper()
		if got := ix.Toggle(u, j); got != member {
			t.Fatalf("Toggle(%d, %d) reports membership %v", u, j, got)
		}
		checkBucketsExact(t, ix)
	}
	toggle(1, 74, true)
	wantKeys(1, b)
	toggle(1, 74, true)
	wantKeys(1, a)
	for _, j := range []int{-1, sigBits, sigBits + 64} { // no band holds these
		toggle(1, j, true)
		wantKeys(1, a)
	}
	toggle(9, 74, false)
	if ix.Has(9) {
		t.Fatal("Toggle indexed a non-member")
	}

	// Remove, then re-add under the same signature: one entry a band.
	ix.Remove(1)
	if ix.Keys(1) != nil {
		t.Fatal("removed user still has keys")
	}
	checkBucketsExact(t, ix)
	put(1, a)
	wantKeys(1, a)
	if cands, _ := ix.Candidates(2, a); len(cands) != 1 || cands[0] != 1 {
		t.Fatalf("after remove and re-add, Candidates = %v, want [1]", cands)
	}
}

// TestBandIndexCompaction pins that the index carries no garbage to
// compact: under churn that is never probed — whole signatures, single
// bits, removals and re-adds — the buckets hold exactly the members' keys
// after every step, and a probe changes nothing.
func TestBandIndexCompaction(t *testing.T) {
	p := Params{Bands: 2, Rows: 32, Seed: 5}
	ix, err := NewBandIndex(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	const members = 200
	rng := rand.New(rand.NewPCG(1, 2))
	for u := stream.User(0); u < members; u++ {
		if err := ix.Put(u, []uint64{rng.Uint64()}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4000; i++ {
		u := stream.User(rng.IntN(members))
		switch {
		case !ix.Has(u) || i%3 == 0:
			// Few distinct signatures, so buckets are shared and members
			// leave from the middle of them.
			err = ix.Put(u, []uint64{uint64(rng.IntN(8)) * 0x0101010101010101})
		case i%3 == 1:
			ix.Toggle(u, rng.IntN(p.Bands)*p.Rows+rng.IntN(3)) // within the few signatures
		default:
			ix.Remove(u)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkBucketsExact(t, ix)
	}

	// Members that moved away are already gone from the bucket a probe
	// walks, and the walk leaves the buckets as they were.
	ix2, err := NewBandIndex(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	sig, elsewhere := []uint64{0xa5a5a5a55a5a5a5a}, []uint64{0x0123456789abcdef}
	for u := stream.User(1); u <= 3; u++ {
		if err := ix2.Put(u, sig); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []stream.User{1, 3} {
		if err := ix2.Put(u, elsewhere); err != nil {
			t.Fatal(err)
		}
	}
	checkBucketsExact(t, ix2)
	if cands, err := ix2.Candidates(2, sig); err != nil || len(cands) != 0 {
		t.Fatalf("Candidates = %v, %v; want none", cands, err)
	}
	if cands, err := ix2.Candidates(1, elsewhere); err != nil || len(cands) != 1 || cands[0] != 3 {
		t.Fatalf("Candidates = %v, %v; want [3]", cands, err)
	}
	checkBucketsExact(t, ix2)
}

// TestBandIndexCollisionProbabilityBound is the S-curve property test over
// real recovered sketches: plant pairs whose per-bit agreement clears the
// S-curve threshold (1/b)^(1/r) by a margin, band them under many
// independent seeds, and check the empirical collision rate is at least
// the analytic CollisionProbability bound (minus sampling slack). The
// bound treats band bits as independent samples of the agreement rate;
// recovered-sketch bits are one parity bit per virtual slot, which is
// exactly that.
func TestBandIndexCollisionProbabilityBound(t *testing.T) {
	p := Params{Bands: 8, Rows: 4}
	const trials = 150
	const margin = 0.05
	threshold := p.Threshold()

	collisions, prSum := 0, 0.0
	for trial := 0; trial < trials; trial++ {
		sk := core.MustNew(core.Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: uint64(trial + 1)})
		common := gen.PlantedJaccard(400, 0.85)
		for _, e := range gen.PlantedPair(1, 2, 400, 400, common, int64(trial)) {
			sk.Process(e)
		}
		ra, rb := sk.RecoverSketch(1), sk.RecoverSketch(2)
		wa, wb := ra.Words(), rb.Words()

		// Per-bit agreement over the banded range, the S-curve's x-axis.
		bits := p.SignatureLen()
		agree := 0
		for j := 0; j < bits; j++ {
			if (wa[j/64]>>(j%64))&1 == (wb[j/64]>>(j%64))&1 {
				agree++
			}
		}
		pAgree := float64(agree) / float64(bits)
		if pAgree < threshold+margin {
			// The workload is planted to clear the threshold; a trial that
			// does not is a setup bug, not a property violation.
			t.Fatalf("trial %d: agreement %.3f below threshold %.3f + margin", trial, pAgree, threshold)
		}
		prSum += p.CollisionProbability(pAgree)

		ix, err := NewBandIndex(Params{Bands: p.Bands, Rows: p.Rows, Seed: uint64(1000 + trial)}, sk.Config().SketchBits)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Put(2, wb); err != nil {
			t.Fatal(err)
		}
		cands, err := ix.Candidates(1, wa)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if c == 2 {
				collisions++
			}
		}
	}
	empirical := float64(collisions) / trials
	bound := prSum / trials
	// Three-sigma sampling slack on a Bernoulli mean near the bound.
	slack := 3 * 0.5 / 12.2 // ≈ 3·sqrt(p(1-p)/trials) at worst case p=0.5
	if empirical < bound-slack {
		t.Fatalf("empirical collision rate %.3f below CollisionProbability bound %.3f - %.3f",
			empirical, bound, slack)
	}
}
