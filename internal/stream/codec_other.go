//go:build !amd64 || purego

package stream

func elementsLenVec(edges []Edge) (done, size int) { return 0, 0 }

func encodeVec(dst []byte, edges []Edge) (done, n int) { return 0, 0 }

func decodeVec(dst []Edge, data []byte) (done, at int) { return 0, 0 }
