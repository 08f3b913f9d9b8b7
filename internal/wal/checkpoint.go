package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

var ckptMagic = [8]byte{'V', 'O', 'S', 'C', 'K', 'P', 'T', '1'}

// ckptName returns the filename of the checkpoint covering positions
// [0, pos) of the stream.
func ckptName(pos uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, pos, ckptSuffix)
}

// CheckpointPath returns the path of the checkpoint covering [0, pos) —
// the naming scheme in one place, for tools pairing it with
// ListCheckpoints.
func CheckpointPath(dir string, pos uint64) string {
	return filepath.Join(dir, ckptName(pos))
}

// EncodeCheckpoint frames a serialized sketch as a checkpoint covering
// stream positions [0, pos): magic, position, sketch length, sketch bytes,
// trailing CRC-32C.
func EncodeCheckpoint(pos uint64, sketch []byte) []byte {
	out := make([]byte, 0, len(ckptMagic)+8+8+len(sketch)+4)
	out = append(out, ckptMagic[:]...)
	out = binary.LittleEndian.AppendUint64(out, pos)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(sketch)))
	out = append(out, sketch...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// DecodeCheckpoint validates a checkpoint's framing and CRC and returns the
// covered position and the embedded sketch bytes (aliasing data).
func DecodeCheckpoint(data []byte) (pos uint64, sketch []byte, err error) {
	const minLen = 8 + 8 + 8 + 4
	if len(data) < minLen {
		return 0, nil, fmt.Errorf("%w: checkpoint truncated", ErrCorrupt)
	}
	if [8]byte(data[:8]) != ckptMagic {
		return 0, nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	pos = binary.LittleEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint64(data[16:24])
	if n != uint64(len(body)-24) {
		return 0, nil, fmt.Errorf("%w: checkpoint sketch length %d, have %d bytes", ErrCorrupt, n, len(body)-24)
	}
	return pos, body[24:], nil
}

// WriteCheckpoint atomically persists a checkpoint covering [0, pos)
// (WriteFileAtomic). Older checkpoint files beyond the most recent two are
// removed.
func WriteCheckpoint(dir string, pos uint64, sketch []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := WriteFileAtomic(filepath.Join(dir, ckptName(pos)), EncodeCheckpoint(pos, sketch)); err != nil {
		return err
	}
	// Keep the newest two checkpoints: the one just written plus one
	// predecessor as a fallback should the new file prove unreadable.
	all, err := ListCheckpoints(dir)
	if err != nil {
		return err
	}
	for i := 0; i+2 < len(all); i++ {
		if all[i] < pos {
			if err := os.Remove(filepath.Join(dir, ckptName(all[i]))); err != nil {
				return err
			}
		}
	}
	return nil
}

// ListCheckpoints returns the covered positions of the directory's
// checkpoint files in ascending order; a missing directory holds none.
func ListCheckpoints(dir string) ([]uint64, error) {
	out, err := listSeq(dir, ckptPrefix, ckptSuffix)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return out, err
}

// LatestCheckpoint loads the newest checkpoint that validates, skipping
// corrupt ones (a crash can tear at most the file being written, which the
// atomic rename keeps out of the namespace, but disks rot). found is false
// when the directory holds no usable checkpoint.
func LatestCheckpoint(dir string) (pos uint64, sketch []byte, found bool, err error) {
	all, err := ListCheckpoints(dir)
	if err != nil {
		return 0, nil, false, err
	}
	for i := len(all) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, ckptName(all[i])))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return 0, nil, false, err
		}
		// One that is corrupt, or whose filename and payload disagree, falls
		// back to the previous checkpoint.
		if p, sk, err := DecodeCheckpoint(data); err == nil && p == all[i] {
			return p, sk, true, nil
		}
	}
	return 0, nil, false, nil
}
