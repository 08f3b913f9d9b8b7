package lsh

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

// FuzzBandExtraction throws arbitrary packed bytes and arbitrary band
// shapes at the banding surface: BandKeys, and an index fed through
// Put/Candidates with the same material. Invalid shapes and short slices
// must error; nothing may panic or read out of bounds. Accepted inputs
// must band deterministically, a band's key must be the same whether it is
// taken from the whole signature or from that band's bits alone, and
// colliding with yourself is the one collision banding can never miss.
func FuzzBandExtraction(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint16(64), uint64(1), []byte{})
	f.Add(uint8(8), uint8(16), uint16(128), uint64(7), bytesOf(0xdeadbeefcafef00d, 0x0123456789abcdef))
	f.Add(uint8(0), uint8(3), uint16(9), uint64(0), []byte{1, 2, 3})
	f.Add(uint8(32), uint8(8), uint16(256), uint64(42), make([]byte, 32))
	f.Add(uint8(2), uint8(63), uint16(130), uint64(3), bytesOf(^uint64(0), 0, ^uint64(0)))

	f.Fuzz(func(t *testing.T, bands, rows uint8, sigBits uint16, seed uint64, data []byte) {
		words := make([]uint64, (len(data)+7)/8)
		for i, b := range data {
			words[i/8] |= uint64(b) << ((i % 8) * 8)
		}
		p := Params{Bands: int(bands), Rows: int(rows), Seed: seed}

		keys, err := BandKeys(p, words, int(sigBits))
		if err != nil {
			// Invalid shape or short signature: the index constructor must
			// agree that this input is unusable at this width.
			if ix, err2 := NewBandIndex(p, int(sigBits)); err2 == nil {
				if err3 := ix.Put(1, words); err3 == nil {
					t.Fatalf("BandKeys rejected (%v) what Put accepted", err)
				}
			}
			return
		}
		if len(keys) != p.Bands {
			t.Fatalf("got %d keys for %d bands", len(keys), p.Bands)
		}
		again, err := BandKeys(p, words, int(sigBits))
		if err != nil {
			t.Fatalf("second BandKeys call failed: %v", err)
		}
		for i := range keys {
			if keys[i] != again[i] {
				t.Fatalf("band %d key not deterministic", i)
			}
			if one := bandKey(p, i, bandBits(words, i, p.Rows), 0); one != keys[i] {
				t.Fatalf("band %d: key from its bits %x, from the signature %x", i, one, keys[i])
			}
		}

		ix, err := NewBandIndex(p, int(sigBits))
		if err != nil {
			t.Fatalf("BandKeys accepted what NewBandIndex rejected: %v", err)
		}
		if err := ix.Put(1, words); err != nil {
			t.Fatalf("BandKeys accepted what Put rejected: %v", err)
		}
		if err := ix.Put(2, words); err != nil {
			t.Fatal(err)
		}
		cands, err := ix.Candidates(1, words)
		if err != nil {
			t.Fatalf("BandKeys accepted what Candidates rejected: %v", err)
		}
		found := false
		for _, c := range cands {
			if c == stream.User(1) {
				t.Fatal("probe returned itself")
			}
			found = found || c == stream.User(2)
		}
		if !found {
			t.Fatal("identical signature did not collide")
		}
	})
}

// FuzzBandIndexOps drives a BandIndex through sequences of Put, Toggle,
// Remove and Candidates against a reference that keeps each member's whole
// signature and bands it from scratch. After every op the structure is
// exact (checkBucketsExact), every member holds the keys of its reference
// signature, and Candidates equals the reference's answer; which of Keys and
// Candidates reads first, and so settles the toggles, alternates. Rows cover
// one bit, part of a word, exactly a word and two words; members draw from
// three signatures, so buckets are shared and members leave their chains at
// the head, in the middle and at the tail. The seed corpus is held to
// reaching every one of those paths, slot reuse, heads growth, a chain
// emptied, a chain shared by two buckets, and a band toggled more than once
// before a read: re-keyed once, or not at all where the toggles cancel.
func FuzzBandIndexOps(f *testing.F) {
	var reached opPaths
	for seed := uint64(0); seed < 14; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		data := make([]byte, 3+4*400)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		data[0] = byte(seed) // every Rows value, twice
		f.Add(data)
		reached |= runBandOps(f, data)
	}
	if reached != allOpPaths {
		f.Fatalf("the seed corpus reaches paths %09b of %09b", reached, allOpPaths)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runBandOps(t, data) })
}

// opPaths records which index paths a sequence of ops went through.
type opPaths uint16

const (
	pathSlotReuse opPaths = 1 << iota
	pathGrowth
	pathDeletion // a chain's last node left: its head went to -1
	pathUnlinkHead
	pathUnlinkMiddle
	pathUnlinkTail
	pathSharedChain // a chain carried nodes of two buckets
	pathCoalesced   // a band toggled more than once was re-keyed once
	pathCancelled   // a noted band's toggles cancelled: no re-key
	allOpPaths      = 1<<iota - 1
)

// settlePaths classifies, on a copy of ix, the unlinks that the next settle
// and then unlinking the nodes of removed make; toggled counts the toggles
// of each noted node.
func settlePaths(ix *BandIndex, toggled map[int]int, removed []int) (reached opPaths) {
	c := *ix
	c.nodes, c.heads, c.noted = slices.Clone(ix.nodes), slices.Clone(ix.heads), slices.Clone(ix.noted)
	unlink := func(n int) {
		switch nd := c.nodes[n]; {
		case nd.prev < 0 && nd.next < 0:
			reached |= pathDeletion
		case nd.prev < 0:
			reached |= pathUnlinkHead
		case nd.next < 0:
			reached |= pathUnlinkTail
		default:
			reached |= pathUnlinkMiddle
		}
		c.unlink(n)
	}
	for _, n := range c.noted {
		nd := &c.nodes[n]
		key := c.nodeKey(int(n), int(n)%c.params.Bands)
		switch {
		case key == nd.key:
			reached |= pathCancelled
			continue
		case toggled[int(n)] > 1:
			reached |= pathCoalesced
		}
		unlink(int(n))
		nd.key = key
		c.link(int(n))
	}
	for _, n := range removed {
		unlink(n)
	}
	return reached
}

// runBandOps interprets data as a band structure and ops of four bytes each
// (see FuzzBandIndexOps) and checks the index against the reference after
// every op.
func runBandOps(t testing.TB, data []byte) (reached opPaths) {
	if len(data) < 3 {
		return 0
	}
	rowsSet := []int{1, 7, 32, 63, 64, 65, 100}
	p := Params{Bands: 1 + int(data[1])%4, Rows: rowsSet[int(data[0])%len(rowsSet)], Seed: uint64(data[2])}
	sigBits := p.SignatureLen() + int(data[2])%64 // some bits outside every band
	words := (sigBits + 63) / 64
	ix, err := NewBandIndex(p, sigBits)
	if err != nil {
		t.Fatal(err)
	}
	variant := func(v int) []uint64 {
		rng := rand.New(rand.NewPCG(uint64(v), 7))
		out := make([]uint64, words)
		for i := range out {
			out[i] = rng.Uint64()
		}
		return out
	}
	ref := map[stream.User][]uint64{}
	keysOf := func(sig []uint64) []uint64 {
		keys, err := BandKeys(p, sig, sigBits)
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	toggled := map[int]int{} // node → toggles since the last read
	toggle := func(u stream.User, j int) {
		s, member := ix.slots[u]
		if got := ix.Toggle(u, j); got != member {
			t.Fatalf("Toggle(%d, %d) reports membership %v, reference %v", u, j, got, member)
		}
		if member && j >= 0 && j < p.SignatureLen() {
			toggled[int(s)*p.Bands+j/p.Rows]++
		}
		if member && j >= 0 && j < sigBits {
			sig := slices.Clone(ref[u])
			sig[j/64] ^= 1 << (j % 64)
			ref[u] = sig
		}
	}
	remove := func(u stream.User) {
		s, member := ix.slots[u]
		var nodes []int
		for band := 0; member && band < p.Bands; band++ {
			nodes = append(nodes, int(s)*p.Bands+band)
		}
		reached |= settlePaths(ix, toggled, nodes)
		clear(toggled)
		ix.Remove(u)
		delete(ref, u)
	}
	for ops := data[3:]; len(ops) >= 4; ops = ops[4:] {
		u, arg := stream.User(ops[1]%8), int(ops[2])|int(ops[3])<<8
		_, member := ix.slots[u]
		headsLen := len(ix.heads)
		switch ops[0] % 8 {
		case 0, 1: // Put one of the three signatures
			if !member && len(ix.free) > 0 {
				reached |= pathSlotReuse
			}
			sig := variant(arg % 3)
			if err := ix.Put(u, sig); err != nil {
				t.Fatal(err)
			}
			ref[u] = sig
		case 2, 3, 4: // Toggle a bit, now and then one outside the signature
			toggle(u, arg%(sigBits+2)-1)
		case 5: // Remove
			remove(u)
		case 6: // Toggle a bit of one band twice, and two bits of the next
			b1 := arg % p.Bands
			b2 := (b1 + 1) % p.Bands
			r := arg / p.Bands % p.Rows
			toggle(u, b1*p.Rows+r)
			toggle(u, b1*p.Rows+r)
			toggle(u, b2*p.Rows+r)
			toggle(u, b2*p.Rows+(r+1)%p.Rows)
		case 7: // Toggle a bit, then Remove or Put before any read
			toggle(u, arg%p.SignatureLen())
			if arg%2 == 0 {
				remove(u)
				break
			}
			reached |= settlePaths(ix, toggled, nil)
			clear(toggled)
			sig := variant(arg % 3)
			if err := ix.Put(u, sig); err != nil {
				t.Fatal(err)
			}
			ref[u] = sig
		}
		if len(ix.heads) > headsLen {
			reached |= pathGrowth
		}
		if len(ix.noted) != len(toggled) {
			t.Fatalf("%d bands noted for re-keying, %d toggled", len(ix.noted), len(toggled))
		}
		reached |= settlePaths(ix, toggled, nil)
		clear(toggled)

		if ix.Len() != len(ref) {
			t.Fatalf("index holds %d members, reference %d", ix.Len(), len(ref))
		}
		checkKeys := func() {
			for w, sig := range ref {
				if got, want := ix.Keys(w), keysOf(sig); !slices.Equal(got, want) {
					t.Fatalf("user %d holds keys %x, its signature says %x", w, got, want)
				}
			}
		}
		checkCandidates := func() {
			// Now and then u's own signature, probed as u's neighbour: where
			// the ops just toggled u, its one band must have moved already.
			self, probe := u^1, variant(arg%4) // the fourth shares no band with a Put
			if sig, ok := ref[u]; ok && ops[0]%2 == 0 {
				probe = sig
			}
			want := []stream.User{}
			pk := keysOf(probe)
			for w, sig := range ref {
				for band, k := range keysOf(sig) {
					if w != self && k == pk[band] {
						want = append(want, w)
						break
					}
				}
			}
			slices.Sort(want)
			got, err := ix.Candidates(self, probe)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("Candidates(%d) = %v (%v), reference %v", self, got, err, want)
			}
		}
		if ops[3]%2 == 0 {
			checkKeys()
			checkCandidates()
		} else {
			checkCandidates()
			checkKeys()
		}
		checkBucketsExact(t, ix)
		reached |= sharedChains(ix)
	}
	return reached
}

// sharedChains reports pathSharedChain where some chain carries nodes of
// two buckets.
func sharedChains(ix *BandIndex) opPaths {
	for _, head := range ix.heads {
		for n := head; n >= 0; n = ix.nodes[n].next {
			if nx := ix.nodes[n].next; nx >= 0 && (ix.nodes[nx].key != ix.nodes[n].key || int(nx)%ix.params.Bands != int(n)%ix.params.Bands) {
				return pathSharedChain
			}
		}
	}
	return 0
}

// bytesOf packs words little-endian, matching the recovered-sketch layout.
func bytesOf(words ...uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}
