package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// Serialization lets a sketch built by a streaming worker be shipped to a
// query server or checkpointed. Format: magic, config, cardinality table
// (sorted by user for determinism), then the bit array.
//
// The hash family rides in the high byte of the SketchBits word — that
// byte was always zero before families existed (validate bounds k below
// 2^48), so KindClassic sketches serialize byte-identically to the
// pre-family format, and a pre-family decoder reading a KindFast sketch
// sees an absurd SketchBits and fails its k ≤ m check instead of decoding
// positions with the wrong family.

var vosMagic = [4]byte{'V', 'O', 'S', '1'}

// ErrCorrupt reports an invalid serialized sketch.
var ErrCorrupt = errors.New("core: corrupt serialized sketch")

// ErrFamilyMismatch reports an attempt to combine or load sketch state
// across different hash families — refused loudly, because the two
// families place virtual slots at unrelated array positions and a silent
// merge would XOR desynchronized state. Use errors.Is to detect it.
var ErrFamilyMismatch = errors.New("core: hash family mismatch")

// familyShift positions the family tag in the SketchBits header word.
const familyShift = 56

// MarshalBinary encodes the full sketch state.
func (v *VOS) MarshalBinary() ([]byte, error) {
	arr, err := v.arr.MarshalBinary()
	if err != nil {
		return nil, err
	}
	pairs := make([]counterSlot, 0, v.card.live)
	for u, n := range v.card.all {
		pairs = append(pairs, counterSlot{user: u, n: n})
	}
	slices.SortFunc(pairs, func(a, b counterSlot) int { return cmp.Compare(a.user, b.user) })

	le := binary.LittleEndian
	out := make([]byte, 0, len(vosMagic)+8*(5+2*len(pairs))+len(arr))
	out = append(out, vosMagic[:]...)
	out = le.AppendUint64(out, v.cfg.MemoryBits)
	out = le.AppendUint64(out, uint64(v.cfg.SketchBits)|uint64(v.cfg.Family)<<familyShift)
	out = le.AppendUint64(out, v.cfg.Seed)
	out = le.AppendUint64(out, uint64(len(pairs)))
	for _, p := range pairs {
		out = le.AppendUint64(out, uint64(p.user))
		out = le.AppendUint64(out, uint64(p.n))
	}
	out = le.AppendUint64(out, uint64(len(arr)))
	return append(out, arr...), nil
}

// UnmarshalVOS decodes a sketch produced by MarshalBinary.
func UnmarshalVOS(data []byte) (*VOS, error) {
	if len(data) < 4+3*8 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if !bytes.Equal(data[:4], vosMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := 4
	readU64 := func() (uint64, error) {
		if off+8 > len(data) {
			return 0, fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, off)
		}
		x := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return x, nil
	}
	mem, err := readU64()
	if err != nil {
		return nil, err
	}
	kBits, err := readU64()
	if err != nil {
		return nil, err
	}
	seed, err := readU64()
	if err != nil {
		return nil, err
	}
	// A valid payload must carry the whole m-bit array, so m is bounded by
	// the input size. Check before New allocates: a corrupt (or hostile)
	// header must produce ErrCorrupt, not an out-of-memory crash.
	if mem/8 > uint64(len(data)) {
		return nil, fmt.Errorf("%w: MemoryBits %d cannot fit in %d payload bytes", ErrCorrupt, mem, len(data))
	}
	fam := hashing.Kind(kBits >> familyShift)
	kBits &= (1 << familyShift) - 1
	if !fam.Valid() {
		// Wrapped as corruption (the fuzz contract: every decode failure is
		// ErrCorrupt), with ErrFamilyMismatch in the chain so callers probing
		// for family trouble specifically can detect it too.
		return nil, fmt.Errorf("%w: unknown hash family tag %d (%w)", ErrCorrupt, uint8(fam), ErrFamilyMismatch)
	}
	if kBits > mem {
		return nil, fmt.Errorf("%w: SketchBits %d exceeds MemoryBits %d", ErrCorrupt, kBits, mem)
	}
	cfg := Config{MemoryBits: mem, SketchBits: int(kBits), Seed: seed, Family: fam}
	v, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	nUsers, err := readU64()
	if err != nil {
		return nil, err
	}
	if nUsers > uint64(len(data))/16+1 {
		return nil, fmt.Errorf("%w: implausible user count %d", ErrCorrupt, nUsers)
	}
	v.card.reserve(int(nUsers))
	for i := uint64(0); i < nUsers; i++ {
		u, err := readU64()
		if err != nil {
			return nil, err
		}
		c, err := readU64()
		if err != nil {
			return nil, err
		}
		// Process/Merge prune zero-cardinality entries, so Marshal never
		// writes one — and the counter table reads a zero as an empty slot.
		// Negative counters (stored as two's-complement uint64) ARE valid:
		// delete-before-insert reordering passes through them, and a
		// checkpoint can land in that window.
		if c == 0 {
			return nil, fmt.Errorf("%w: user %d has zero cardinality", ErrCorrupt, u)
		}
		// Marshal writes each user once; a payload that names one twice would
		// decode to fewer users than its header counts and not re-marshal to
		// the same bytes. Rows out of order are accepted.
		if !v.card.insert(stream.User(u), int64(c)) {
			return nil, fmt.Errorf("%w: user %d appears twice", ErrCorrupt, u)
		}
	}

	arrLen, err := readU64()
	if err != nil {
		return nil, err
	}
	if uint64(len(data)-off) != arrLen {
		return nil, fmt.Errorf("%w: array payload %d bytes, header says %d", ErrCorrupt, len(data)-off, arrLen)
	}
	if err := v.arr.UnmarshalBinary(data[off:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if v.arr.Len() != cfg.MemoryBits {
		return nil, fmt.Errorf("%w: array length %d != config m %d", ErrCorrupt, v.arr.Len(), cfg.MemoryBits)
	}
	return v, nil
}
