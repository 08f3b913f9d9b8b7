//go:build !purego

package stream

import "github.com/vossketch/vos/internal/cpu"

// elementsLenAVX512 sums the encoded lengths of edges' whole groups of four
// up to the first group that holds a user above MaxUser.
//
//go:noescape
func elementsLenAVX512(edges []Edge) (done, size int)

// encodeAVX512 encodes edges' whole groups of four into dst while the next
// group fits, storing no byte past its encoding.
//
//go:noescape
func encodeAVX512(dst []byte, edges []Edge) (done, n int)

// decodeAVX512 decodes whole groups of eight varints that end in the 64 bytes
// ahead into dst while four edges and 64 bytes are left, up to the first group
// with a varint the body cannot vouch for.
//
//go:noescape
func decodeAVX512(dst []Edge, data []byte) (done, at int)

// elementsLenVec runs elementsLenAVX512 where the CPU has it.
func elementsLenVec(edges []Edge) (done, size int) {
	if !cpu.AVX512VBMI2 {
		return 0, 0
	}
	return elementsLenAVX512(edges)
}

// encodeVec runs encodeAVX512 where the CPU has it.
func encodeVec(dst []byte, edges []Edge) (done, n int) {
	if !cpu.AVX512VBMI2 {
		return 0, 0
	}
	return encodeAVX512(dst, edges)
}

// decodeVec runs decodeAVX512 where the CPU has it.
func decodeVec(dst []Edge, data []byte) (done, at int) {
	if !cpu.AVX512VBMI2 {
		return 0, 0
	}
	return decodeAVX512(dst, data)
}
