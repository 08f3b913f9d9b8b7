package hashing

import "fmt"

// Fast position family: Dahlgaard–Knudsen–Thorup-style fast similarity
// sketching ("Fast Similarity Sketching", FOCS'17) observes that a k-entry
// sketch does not need k independently seeded hash evaluations per key —
// one strong hash of the key, expanded by a pseudorandom sequence, fills
// all k entries with O(1) amortized hash work per entry while preserving
// the concentration bounds sketching needs. FastFamily applies that insight
// to the position tables f_1(u) … f_k(u) of VOS: instead of k seeded
// Hash64 calls (one per virtual slot, each loading a per-slot seed from a
// k-word table), it derives a single 64-bit state from the key and streams
// positions out of the counter-based splitmix64 sequence seeded there.
//
// Why this is sound: splitmix64 is a counter-based generator (output t is a
// pure function state + (t+1)·γ pushed through a finalizer), so the stream
// is random-access — position j costs O(1) with no sequential dependency —
// and the generator itself passes BigCrush, so positions within one key's
// table are empirically indistinguishable from independent draws. Across
// keys, states are separated by the full Hash64 avalanche. The statistical
// tests in fast_test.go pin both properties against tolerance bounds.
//
// Why it is fast: a table fill touches no seed table (the classic family's
// k-word seed array exceeds L1 at k = 6400, so every classic evaluation
// risks an L2 load), runs one finalizer per TWO positions when the range
// fits 32 bits (each 64-bit output is split into halves, reduced with a
// 32-bit fixed-point multiply), and every loop iteration is independent,
// so the multiplies pipeline. At paper scale this is a multiple-x fill
// speedup (BenchmarkHashRangeIntoFast against BenchmarkHashRangeInto).
//
// Compatibility: positions under KindFast are UNRELATED to positions under
// KindClassic for the same seed. Sketches built under different families
// must never be merged or compared — the family is therefore part of
// core.Config, serialized in sketch headers, and refused on mismatch.

// Kind selects a position-family implementation. It is part of a sketch's
// identity: two sketches are mergeable and comparable only when built from
// identical configs, family included.
type Kind uint8

const (
	// KindClassic is the original family: member j is x ↦ Hash64(x,
	// seeds[j]) with k independently derived seeds (NewFamily).
	KindClassic Kind = iota
	// KindFast is the fast-sketching family: one Hash64 per key, expanded
	// by the counter-based splitmix64 sequence (NewFastFamily).
	KindFast
)

// Valid reports whether k names a known family.
func (k Kind) Valid() bool { return k <= KindFast }

// String returns the canonical name used on wire surfaces (/v1/stats,
// vosd flags): "classic" or "fast".
func (k Kind) String() string {
	switch k {
	case KindClassic:
		return "classic"
	case KindFast:
		return "fast"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(k))
	}
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "classic":
		return KindClassic, nil
	case "fast":
		return KindFast, nil
	default:
		return 0, fmt.Errorf("hashing: unknown family %q (want classic or fast)", s)
	}
}

// MarshalText and UnmarshalText put a Kind on JSON surfaces under its
// canonical name (the hash_family of /v1/stats is the field itself); an
// unknown name is a decode error, never a silent default.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *Kind) UnmarshalText(text []byte) (err error) {
	*k, err = ParseKind(string(text))
	return err
}

// golden is the splitmix64 increment (2^64/φ, forced odd) — the same γ
// SplitMix64 uses, so the counter sequence state + t·γ is equidistributed
// over the full 64-bit period.
const golden = 0x9e3779b97f4a7c15

// fastSeedTag separates the fast family's key-state derivation from every
// other consumer of the sketch seed, so KindClassic and KindFast positions
// under the same Config.Seed share no structure.
const fastSeedTag = 0x66a5f3c1d2e4b907

// FastFamily is the KindFast implementation of a k-member position family.
// It is stateless beyond its parameters: no seed table, no allocation.
type FastFamily struct {
	k    int
	seed uint64
}

// NewFastFamily derives a fast-sketching family of k positions from seed.
func NewFastFamily(k int, seed uint64) *FastFamily {
	if k <= 0 {
		panic("hashing: family size must be positive")
	}
	return &FastFamily{k: k, seed: seed}
}

// State derives the per-key splitmix64 state — the one strong hash the whole
// table is expanded from, and the value PositionFromState consumes. It is the
// family's only per-key hash work: a caller reading several positions of one
// key derives it once. The state is seed-dependent —
// never reuse one across families.
func (f *FastFamily) State(key uint64) uint64 { return Hash64(key, f.seed^fastSeedTag) }

// PositionFromState is HashRange with the key's hash work already done:
// PositionFromState(f.State(key), j, n) == f.HashRange(j, key, n) for
// every j and n. For n ≤ 2^32 each 64-bit splitmix64 output carries two
// positions (low half = even j, high half = odd j), reduced with the
// 32-bit fixed-point multiply; wider ranges use one full output per
// position with the 64-bit Lemire reduction.
func PositionFromState(x uint64, j int, n uint64) uint64 {
	if n <= 1<<32 {
		w := Mix64(x + (uint64(j>>1)+1)*golden)
		if j&1 != 0 {
			w >>= 32
		}
		if n&(n-1) == 0 {
			return w & (n - 1)
		}
		return (uint64(uint32(w)) * n) >> 32
	}
	return Reduce(Mix64(x+(uint64(j)+1)*golden), n)
}

// EdgePositions is Family.EdgePositions for the fast family, k members:
// dst[i] = PositionFromState(f.State(user), int(HashToRange(item, psiSeed,
// k)), m) over the prefix whose length it returns, 0 for m > 2³².
func (f *FastFamily) EdgePositions(dst, pairs []uint64, stride int, psiSeed, m uint64) int {
	return edgePositionsVec(dst, pairs, stride, nil, uint64(f.k), psiSeed, f.seed^fastSeedTag, m)
}

// HashRange returns member j's position for key, reduced onto [0, n) —
// random access into the same sequence HashRangeInto streams, in O(1):
// counter-based generation has no sequential dependency.
func (f *FastFamily) HashRange(j int, key, n uint64) uint64 {
	return PositionFromState(f.State(key), j, n)
}

// HashRangeInto fills dst[j] with member j's position for key, reduced
// onto [0, n), for j = 0..len(dst)-1 — the batched fill equal to
// HashRange at every index, exactly. One Hash64 total, then one finalizer
// per two positions (n ≤ 2^32) or per position (wider): O(1) amortized
// hash work per position, no seed-table traffic, and every iteration
// independent so the multiplies pipeline. dst must not be longer than k.
func (f *FastFamily) HashRangeInto(dst []uint64, key, n uint64) {
	x := f.State(key)
	if n <= 1<<32 {
		// Four outputs (eight positions) per iteration through a fixed-size
		// array pointer (bounds-checked once per block): the finalizer
		// chains are independent, so unrolling keeps the multiply pipeline
		// full. The power-of-two case gets its own loop — the reduction is
		// then a mask, leaving ONE multiply per two positions (the
		// finalizer's), which is what the fill is throughput-bound on.
		d := dst
		if n&(n-1) == 0 {
			mask := n - 1
			for len(d) >= 8 {
				c := (*[8]uint64)(d)
				x0 := x + golden
				x1 := x0 + golden
				x2 := x1 + golden
				x3 := x2 + golden
				x = x3
				w0 := Mix64(x0)
				w1 := Mix64(x1)
				w2 := Mix64(x2)
				w3 := Mix64(x3)
				c[0] = w0 & mask
				c[1] = (w0 >> 32) & mask
				c[2] = w1 & mask
				c[3] = (w1 >> 32) & mask
				c[4] = w2 & mask
				c[5] = (w2 >> 32) & mask
				c[6] = w3 & mask
				c[7] = (w3 >> 32) & mask
				d = d[8:]
			}
		} else {
			for len(d) >= 8 {
				c := (*[8]uint64)(d)
				x0 := x + golden
				x1 := x0 + golden
				x2 := x1 + golden
				x3 := x2 + golden
				x = x3
				w0 := Mix64(x0)
				w1 := Mix64(x1)
				w2 := Mix64(x2)
				w3 := Mix64(x3)
				c[0] = (uint64(uint32(w0)) * n) >> 32
				c[1] = ((w0 >> 32) * n) >> 32
				c[2] = (uint64(uint32(w1)) * n) >> 32
				c[3] = ((w1 >> 32) * n) >> 32
				c[4] = (uint64(uint32(w2)) * n) >> 32
				c[5] = ((w2 >> 32) * n) >> 32
				c[6] = (uint64(uint32(w3)) * n) >> 32
				c[7] = ((w3 >> 32) * n) >> 32
				d = d[8:]
			}
		}
		for i := len(dst) - len(d); i < len(dst); i++ {
			dst[i] = f.HashRange(i, key, n)
		}
		return
	}
	for j := range dst {
		x += golden
		dst[j] = Reduce(Mix64(x), n)
	}
}
