package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/vossketch/vos/internal/stream"
)

// ErrCorrupt reports an invalid WAL record or checkpoint outside the
// tolerated torn tail of the last segment.
var ErrCorrupt = errors.New("wal: corrupt data")

// ErrClosed is returned by every method that changes the log after Close.
var ErrClosed = errors.New("wal: closed")

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncEveryBatch fsyncs after every Append: an acknowledged batch is
	// durable. The safest and slowest policy; the default.
	SyncEveryBatch SyncPolicy = iota
	// SyncEveryN fsyncs once at least Options.SyncEveryN edges have been
	// appended since the last sync: a crash loses at most that many
	// acknowledged edges.
	SyncEveryN
	// SyncOff never fsyncs on the append path (only on rotation, Sync and
	// Close): durability is whatever the OS page cache survives.
	SyncOff
)

// String names the policy for logs and benchmarks.
func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "everybatch"
	case SyncEveryN:
		return "everyN"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options parameterise a Log. The zero value selects defaults.
type Options struct {
	// Sync is the fsync policy for the append path. Default: SyncEveryBatch.
	Sync SyncPolicy
	// SyncEveryN is the edge interval between fsyncs under the SyncEveryN
	// policy. Default: 4096.
	SyncEveryN int
	// SegmentBytes is the rotation threshold: a segment that has grown past
	// this many bytes is closed and a new one started before the next
	// append. Default: 64 MiB.
	SegmentBytes int64
	// DisableLock skips the advisory flock on the directory that makes a
	// second concurrent Open fail fast. Single-writer discipline then
	// falls on the caller. Meant for filesystems without working flock
	// (some NFS mounts) and for in-process crash-simulation tests, where
	// the "crashed" owner cannot release the lock a real process death
	// would.
	DisableLock bool
}

func (o Options) withDefaults() Options {
	if o.SyncEveryN <= 0 {
		o.SyncEveryN = 4096
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

var segMagic = [8]byte{'V', 'O', 'S', 'W', 'A', 'L', '0', '1'}

const segHeaderLen = 8 + 8 // magic + base position

// segPrefix/segSuffix name segment files; ckptPrefix/ckptSuffix name
// checkpoint files.
const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segName returns the filename of the segment with the given base position.
func segName(base uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, base, segSuffix)
}

// SegmentPath returns the path of the segment with the given base position
// — the naming scheme in one place, for tools pairing it with
// ListSegments and InspectSegment.
func SegmentPath(dir string, base uint64) string {
	return filepath.Join(dir, segName(base))
}

// parseSeq extracts the position from a segment or checkpoint filename,
// reporting ok=false for files that are neither.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// appendEdges encodes edges in the record payload shape: a uvarint count
// followed by stream.AppendElements — the same element encoding as the
// binary stream file format, and the same refusal (stream.ErrUserRange) of a
// user id the encoding cannot carry.
func appendEdges(buf []byte, edges []stream.Edge) ([]byte, error) {
	return stream.AppendElements(binary.AppendUvarint(buf, uint64(len(edges))), edges)
}

// DecodeEdges decodes one record payload. It is the inverse of the payload
// encoding Append writes, exposed for fuzzing and inspection tools.
func DecodeEdges(payload []byte) ([]stream.Edge, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad record count", ErrCorrupt)
	}
	payload = payload[n:]
	out, err := stream.DecodeElements(payload, count)
	if err != nil {
		return nil, fmt.Errorf("%w: record: %v", ErrCorrupt, err)
	}
	return out, nil
}

// Log is an append-only, segmented edge log. All methods are safe for
// concurrent use; appends are serialized internally.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        segFile  // current segment
	lock     *dirLock // exclusive directory lock, nil when disabled
	size     int64    // bytes written to the current segment
	base     uint64   // stream position of the current segment's first edge
	pos      uint64   // total edges appended across all segments
	unsynced int      // edges appended since the last fsync
	closed   bool
	failed   error  // sticky: see fail
	buf      []byte // reusable record encode buffer
}

// segFile is what the log needs of an open segment file, and of the
// directory handle syncDir fsyncs. *os.File is the one implementation.
type segFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// openFile opens a segment file, or a directory to fsync. The package's
// tests swap it for a disk that fails on demand; nothing else sets it.
var openFile = func(path string, flag int) (segFile, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Open opens (creating if needed) the log directory, takes an exclusive
// advisory lock on it (unless Options.DisableLock), scans existing
// segments, truncates a torn tail left by a crash, and positions the log
// for appending after the last valid record. A directory already locked
// by another live Log fails fast — two appenders would corrupt it.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if !opts.DisableLock {
		lock, err := acquireDirLock(dir)
		if err != nil {
			return nil, err
		}
		l.lock = lock
	}
	fail := func(err error) (*Log, error) {
		if l.lock != nil {
			l.lock.release()
		}
		return nil, err
	}
	segs, err := ListSegments(dir)
	if err != nil {
		return fail(err)
	}
	// Reopen the last segment for appending: scan its records, drop the
	// torn tail if any, and derive the log position.
	var last uint64
	var info SegmentInfo
	if len(segs) > 0 {
		last = segs[len(segs)-1]
		if info, err = InspectSegment(SegmentPath(dir, last)); err != nil {
			return fail(err)
		}
	}
	if info.ValidBytes == 0 {
		// An empty directory, or a last segment with no header: a crash
		// between its creation and header durability leaves a short file, or
		// zeros where a lost header was. No acknowledged record can live in
		// it — appends only follow a synced header — so recreate it in place
		// rather than bricking recovery with ErrCorrupt.
		if err := l.startSegment(last); err != nil {
			return fail(err)
		}
		return l, nil
	}
	f, err := openFile(SegmentPath(dir, last), os.O_RDWR)
	if err != nil {
		return fail(err)
	}
	if info.Bytes > info.ValidBytes {
		if err := f.Truncate(info.ValidBytes); err != nil {
			f.Close()
			return fail(err)
		}
	}
	if _, err := f.Seek(info.ValidBytes, io.SeekStart); err != nil {
		f.Close()
		return fail(err)
	}
	l.f, l.size, l.base, l.pos = f, info.ValidBytes, last, last+info.Edges
	return l, nil
}

// createSegment creates, headers, and syncs a fresh segment file whose
// first edge will have the given stream position, returning it open for
// appending.
func createSegment(dir string, base uint64) (segFile, error) {
	f, err := openFile(SegmentPath(dir, base), os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return nil, err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], base)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	// The directory entry must be durable too: without this, a crash can
	// drop the whole file even though later appends fsynced it — losing
	// every acknowledged record in the segment.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// startSegment makes a fresh segment at base the append target and moves
// the position there: Open's first segment, a rotation (base = l.pos) and
// SkipTo. The current segment, if any, is fsynced first and closed once its
// successor is durable. Any failure latches (fail): a half-made successor
// left in the directory ahead of records the old segment went on taking
// would make replay refuse the directory. Callers hold l.mu or own l.
func (l *Log) startSegment(base uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return l.fail(err)
		}
	}
	nf, err := createSegment(l.dir, base)
	if err != nil {
		return l.fail(err)
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			nf.Close()
			return l.fail(err)
		}
	}
	l.f, l.size, l.base, l.pos, l.unsynced = nf, segHeaderLen, base, base, 0
	return nil
}

// fail latches err and returns it. After a writeback error Linux may drop
// the unsynced pages and let the next fsync succeed, so what was written
// since the last good one is not known to be on disk. Every method that
// changes the log returns the latched error from then on (usable) until
// the directory is reopened. Callers hold l.mu or own l.
func (l *Log) fail(err error) error {
	l.failed = fmt.Errorf("wal: log failed, reopen to recover: %w", err)
	return l.failed
}

// usable is the check every method that changes the log makes first:
// ErrClosed after Close, the latched error after a failure (fail), else nil.
func (l *Log) usable() error {
	if l.closed {
		return ErrClosed
	}
	return l.failed
}

// WriteFileAtomic replaces the file at path with data so that a crash at
// any point leaves either the old content or the new, never a torn half,
// and the new content is durable once it returns: write a temp file beside
// it, fsync, rename into place, fsync the directory. Checkpoints and the
// cluster's ring and manifest documents all persist through it, so they
// survive the same failures.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename has taken it
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and file creations in it survive
// a crash.
func syncDir(dir string) error {
	d, err := openFile(dir, os.O_RDONLY)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append writes one record holding the batch and advances the position by
// len(edges). Whether the record is durable when Append returns depends on
// the sync policy. Empty batches are a no-op; a batch naming a user id the
// element encoding cannot carry is refused whole with stream.ErrUserRange.
//
// A failed write is rolled back: the segment is truncated to the last
// record boundary so a partial frame cannot sit mid-file masquerading as a
// torn tail (which would make recovery silently discard every later,
// acknowledged record), and the log takes the next batch. A failed fsync,
// segment switch or rollback latches instead: the error is returned, and
// every later call that changes the log returns it until the directory is
// reopened. A record whose own fsync failed is cut from the file, so only
// a crash can bring it back.
func (l *Log) Append(edges []stream.Edge) error { return l.AppendEncoded(edges, nil) }

// AppendEncoded is Append for a batch whose record payload the caller already
// holds: a non-nil payload is written as the record instead of encoding edges
// again. It must decode to exactly edges (DecodeEdges) — the uvarint count and
// the elements, in any varint form the decoder reads back, as a binary stream
// body carries them behind its magic (stream.BinaryElements); one whose count
// is not len(edges) is refused before the log is touched. The bytes are
// copied, so payload is the caller's again when AppendEncoded returns. A nil
// payload is Append.
func (l *Log) AppendEncoded(edges []stream.Edge, payload []byte) error {
	if len(edges) == 0 {
		return nil
	}
	// The frame length field is 32-bit. An element takes at most 20 bytes in
	// any varint form, so this cap keeps any accepted payload comfortably
	// below 4 GiB — a larger batch must be rejected loudly, not written with
	// a wrapped length that recovery would discard as a torn tail.
	const maxBatchEdges = (1<<32 - 64) / 20
	if len(edges) > maxBatchEdges {
		return fmt.Errorf("wal: batch of %d edges exceeds the %d-edge record limit; split it", len(edges), maxBatchEdges)
	}
	if payload != nil {
		if count, n := binary.Uvarint(payload); n <= 0 || count != uint64(len(edges)) {
			return fmt.Errorf("wal: the payload does not open with the batch's count of %d edges", len(edges))
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	// One buffer, one Write call: frame header and payload land together
	// or are rolled back together.
	var err error
	rec := append(l.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	if payload != nil {
		rec = append(rec, payload...)
	} else if rec, err = appendEdges(rec, edges); err != nil {
		return fmt.Errorf("wal: %w", err) // refused before the log was touched
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.startSegment(l.pos); err != nil {
			return err
		}
	}
	payload = rec[8:] // the record's own copy from here on
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
	if _, err := l.f.Write(rec); err != nil {
		// The file may now hold a partial frame past l.size. Cut it back
		// to the record boundary; later appends then resume cleanly. Those
		// bytes were never synced, so nothing acknowledged goes with them.
		if terr := l.f.Truncate(l.size); terr != nil {
			return l.fail(fmt.Errorf("append failed (%v), rollback failed: %w", err, terr))
		}
		if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			return l.fail(fmt.Errorf("append failed (%v), reseek failed: %w", err, serr))
		}
		return err
	}
	l.buf = rec[:0]
	l.unsynced += len(edges)
	if l.opts.Sync == SyncEveryBatch || (l.opts.Sync == SyncEveryN && l.unsynced >= l.opts.SyncEveryN) {
		if err := l.f.Sync(); err != nil {
			// The caller is told the batch failed: cut its record, or a
			// restart replays it (best effort; the log is latched anyway).
			l.f.Truncate(l.size)
			return l.fail(err)
		}
		l.unsynced = 0
	}
	l.size += int64(len(rec))
	l.pos += uint64(len(edges))
	return nil
}

// Pos returns the stream position: the total number of edges appended over
// the log's lifetime (surviving restarts).
func (l *Log) Pos() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos
}

// Rotate closes the current segment and starts a fresh one at the current
// position, if the current segment holds any records. Checkpointing
// rotates before truncating so the whole covered prefix — including what
// was the append target — becomes reclaimable.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	if l.size <= segHeaderLen {
		return nil
	}
	return l.startSegment(l.pos)
}

// Sync fsyncs the current segment regardless of policy. A failed fsync
// latches, as on the append path: the log takes nothing more until it is
// reopened.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.unsynced = 0
	return nil
}

// Close fsyncs and closes the current segment and releases the directory
// lock; a failed log is closed without the fsync and Close returns its
// latched error. Further appends fail with ErrClosed. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.failed
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if l.lock != nil {
		if lerr := l.lock.release(); err == nil {
			err = lerr
		}
	}
	return err
}

// SkipTo advances an empty-suffix log to position pos by starting a fresh
// segment there. It is used on recovery when a checkpoint is ahead of the
// surviving WAL (possible under SyncOff): the covered-but-lost records are
// unneeded, but the position must not regress or later checkpoints would
// mislabel their coverage. It is an error to skip backwards.
func (l *Log) SkipTo(pos uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	if pos < l.pos {
		return fmt.Errorf("wal: SkipTo(%d) would regress position %d", pos, l.pos)
	}
	if pos == l.pos {
		return nil
	}
	return l.startSegment(pos)
}

// TruncateBefore deletes segments every edge of which lies below pos —
// i.e. segments fully covered by a checkpoint at pos. The segment
// containing pos (and later ones) survive; the current segment is never
// deleted. Call after a successful checkpoint to bound replay work.
func (l *Log) TruncateBefore(pos uint64) error {
	l.mu.Lock()
	cur, err := l.base, l.usable()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	segs, err := ListSegments(l.dir)
	if err != nil {
		return err
	}
	for i, base := range segs {
		// A segment's coverage ends at the next segment's base.
		if i+1 >= len(segs) || segs[i+1] > pos || base >= cur {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segName(base))); err != nil {
			return err
		}
	}
	return nil
}

// ReplayDir invokes fn for every record of dir's log whose edges all lie at
// or after from, in append order, passing the record's starting position.
// Records fully below from are skipped; a record straddling from is a
// corruption (records are the checkpoint granularity, so a checkpoint
// position always falls on a record boundary). The torn tail of the last
// segment, if Open has not already truncated it, is ignored. The walk is
// read-only — it mutates nothing, so it serves engine recovery and
// inspection of a live or crashed directory alike.
//
// Coverage of [from, end-of-log) is verified, not assumed: the first
// replayed segment must begin at or before from, and each later segment
// must begin exactly where the previous one ended. A hole — e.g. a
// truncated prefix after falling back to an older checkpoint whose
// covering segments are gone — fails with ErrCorrupt instead of silently
// replaying around the missing edges (XOR state would be wrong with no
// symptom).
func ReplayDir(dir string, from uint64, fn func(pos uint64, edges []stream.Edge) error) error {
	segs, err := ListSegments(dir)
	if err != nil {
		return err
	}
	started := false
	var next uint64 // end position of the previously replayed segment
	for i, base := range segs {
		if i+1 < len(segs) && segs[i+1] <= from {
			continue // entire segment below the replay point
		}
		if !started {
			if base > from {
				return fmt.Errorf("%w: WAL starts at %d, past replay point %d — records [%d,%d) are missing",
					ErrCorrupt, base, from, from, base)
			}
			started = true
		} else if base != next {
			return fmt.Errorf("%w: segment gap: expected base %d, found %d", ErrCorrupt, next, base)
		}
		pos := base
		last := i == len(segs)-1
		err := readSegment(SegmentPath(dir, base), func(edges []stream.Edge) error {
			recBase := pos
			pos += uint64(len(edges))
			if pos <= from {
				return nil
			}
			if recBase < from {
				return fmt.Errorf("%w: record [%d,%d) straddles replay point %d", ErrCorrupt, recBase, pos, from)
			}
			return fn(recBase, edges)
		})
		next = pos
		if err != nil {
			// Torn tails are tolerated only where a crash can leave one:
			// the final segment.
			if errors.Is(err, errTornTail) && last {
				return nil
			}
			if errors.Is(err, errTornTail) {
				return fmt.Errorf("%w: segment %s has a torn tail but is not last", ErrCorrupt, segName(base))
			}
			return err
		}
	}
	return nil
}

// errTornTail distinguishes an incomplete/corrupt trailing frame (crash
// artifact, tolerable in the last segment) from structural corruption.
var errTornTail = errors.New("wal: torn tail")

// readSegment streams a segment's records through fn. It returns
// errTornTail when the file ends in an incomplete or checksum-failing
// frame, after delivering all preceding valid records.
func readSegment(path string, fn func(edges []stream.Edge) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = readSegmentBytes(data, filepath.Base(path), fn)
	return err
}

// readSegmentBytes is readSegment over bytes already in memory; name is
// only for error messages. consumed is the on-disk extent of the valid
// prefix (header plus whole valid frames) — the authoritative truncation
// offset, measured from the actual bytes rather than re-derived by
// re-encoding (a CRC-valid frame with non-minimal varints would re-encode
// to a different length).
func readSegmentBytes(data []byte, name string, fn func(edges []stream.Edge) error) (consumed int64, err error) {
	if len(data) < segHeaderLen || len(bytes.TrimLeft(data, "\x00")) == 0 {
		// Shorter than a header, or all zeros: a crash between segment
		// creation and header durability (the artifact Open recreates in
		// place) — a torn tail holding nothing. A zeroed header followed
		// by data is corruption.
		return 0, errTornTail
	}
	if [8]byte(data[:8]) != segMagic {
		return 0, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, name)
	}
	consumed = segHeaderLen
	data = data[segHeaderLen:]
	for len(data) > 0 {
		if len(data) < 8 {
			return consumed, errTornTail
		}
		plen := binary.LittleEndian.Uint32(data[:4])
		want := binary.LittleEndian.Uint32(data[4:8])
		// No record has an empty payload, whose CRC is 0: a zero length is
		// the zero fill a crash leaves where lost pages were, not a frame.
		if plen == 0 || uint64(len(data)-8) < uint64(plen) {
			return consumed, errTornTail
		}
		payload := data[8 : 8+plen]
		if crc32.Checksum(payload, crcTable) != want {
			return consumed, errTornTail
		}
		edges, err := DecodeEdges(payload)
		if err != nil {
			// The CRC matched, so this is not a torn write: the writer and
			// reader disagree about the payload shape.
			return consumed, err
		}
		if err := fn(edges); err != nil {
			return consumed, err
		}
		data = data[8+plen:]
		consumed += int64(8 + plen)
	}
	return consumed, nil
}

// SegmentInfo summarises one on-disk segment, for Open and inspection tools.
type SegmentInfo struct {
	Base       uint64 // stream position of the first edge
	Records    int
	Edges      uint64
	Bytes      int64
	ValidBytes int64 // the valid prefix: header and whole valid frames, where Open truncates
	Torn       bool  // ends in an incomplete or checksum-failing frame
}

// ListSegments returns the base positions of the directory's segments in
// ascending order.
func ListSegments(dir string) ([]uint64, error) { return listSeq(dir, segPrefix, segSuffix) }

// listSeq returns the positions parseSeq reads from the directory's file
// names of one kind, in ascending order.
func listSeq(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, ent := range ents {
		if n, ok := parseSeq(ent.Name(), prefix, suffix); ok {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out, nil
}

// InspectSegment summarises one segment file, tolerating a torn tail —
// including the header-less file a crash during segment creation leaves
// (reported as Torn with the base taken from the filename), so inspection
// works on exactly the crashed directories it exists for.
func InspectSegment(path string) (SegmentInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SegmentInfo{}, err
	}
	info := SegmentInfo{Bytes: int64(len(data))}
	info.ValidBytes, err = readSegmentBytes(data, filepath.Base(path), func(edges []stream.Edge) error {
		info.Records++
		info.Edges += uint64(len(edges))
		return nil
	})
	if errors.Is(err, errTornTail) {
		info.Torn = true
		err = nil
	}
	if info.ValidBytes == 0 {
		info.Base, _ = parseSeq(filepath.Base(path), segPrefix, segSuffix)
	} else {
		info.Base = binary.LittleEndian.Uint64(data[8:16])
	}
	return info, err
}
