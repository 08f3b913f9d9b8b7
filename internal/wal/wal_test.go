package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

// mustAppendEdges is appendEdges for batches the encoding can carry.
func mustAppendEdges(tb testing.TB, buf []byte, edges []stream.Edge) []byte {
	tb.Helper()
	out, err := appendEdges(buf, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// testEdges builds a deterministic batch of n edges starting at seq.
func testEdges(seq, n int) []stream.Edge {
	out := make([]stream.Edge, n)
	for i := range out {
		op := stream.Insert
		if (seq+i)%3 == 0 {
			op = stream.Delete
		}
		out[i] = stream.Edge{
			User: stream.User(seq + i),
			Item: stream.Item((seq + i) * 7),
			Op:   op,
		}
	}
	return out
}

// collect replays the whole log into one slice.
func collect(t *testing.T, l *Log, from uint64) []stream.Edge {
	t.Helper()
	var out []stream.Edge
	if err := ReplayDir(l.dir, from, func(_ uint64, edges []stream.Edge) error {
		out = append(out, edges...)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []stream.Edge
	for i := 0; i < 10; i++ {
		batch := testEdges(i*50, 50)
		if err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
	}
	if err := l.Append(nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	if got := l.Pos(); got != 500 {
		t.Fatalf("Pos = %d, want 500", got)
	}
	got := collect(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEdges(0, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation nearly every batch.
	l, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncEveryN, SyncEveryN: 100})
	if err != nil {
		t.Fatal(err)
	}
	var want []stream.Edge
	for i := 0; i < 20; i++ {
		batch := testEdges(i*17, 17)
		if err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	for i, base := range segs {
		info, err := InspectSegment(filepath.Join(dir, segName(base)))
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if info.Base != base || info.Torn {
			t.Fatalf("segment %d info %+v, want base %d untorn", i, info, base)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: position survives, appends continue, replay sees everything.
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Pos(); got != uint64(len(want)) {
		t.Fatalf("reopened Pos = %d, want %d", got, len(want))
	}
	more := testEdges(len(want), 9)
	if err := l2.Append(more); err != nil {
		t.Fatal(err)
	}
	want = append(want, more...)
	got := collect(t, l2, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTornTailDiscardedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEdges(0, 30)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage and a partial frame at the tail.
	path := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tornSize := fileSize(t, path)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open over torn tail: %v", err)
	}
	defer l2.Close()
	if got := l2.Pos(); got != 30 {
		t.Fatalf("Pos after torn tail = %d, want 30", got)
	}
	if got := len(collect(t, l2, 0)); got != 30 {
		t.Fatalf("replayed %d edges, want 30", got)
	}
	if now := fileSize(t, path); now >= tornSize {
		t.Fatalf("torn tail not truncated: %d >= %d bytes", now, tornSize)
	}
	// Appending after recovery lands at a clean boundary.
	if err := l2.Append(testEdges(30, 5)); err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, l2, 0)); got != 35 {
		t.Fatalf("replayed %d edges after post-recovery append, want 35", got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestCorruptMiddleSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := l.Append(testEdges(i*20, 20)); err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close()
	segs, err := ListSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want ≥3 segments (err %v), got %d", err, len(segs))
	}
	// Flip a payload byte in the FIRST segment: CRC fails, and because it
	// is not the last segment the failure must surface, not be swallowed
	// as a torn tail.
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = ReplayDir(l.dir, 0, func(uint64, []stream.Edge) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay over corrupt middle segment = %v, want ErrCorrupt", err)
	}
}

func TestReplayFromSkipsAndStraddleFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 8; i++ {
		if err := l.Append(testEdges(i*10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// From a record boundary: only the suffix.
	got := collect(t, l, 50)
	if len(got) != 30 {
		t.Fatalf("replay from 50 returned %d edges, want 30", len(got))
	}
	if got[0] != testEdges(50, 1)[0] {
		t.Fatalf("suffix starts at %v, want user 50", got[0])
	}
	// Replay point inside a record: corrupt.
	err = ReplayDir(l.dir, 55, func(uint64, []stream.Edge) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("straddling replay = %v, want ErrCorrupt", err)
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if err := l.Append(testEdges(i*10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := ListSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	mid := segs[len(segs)/2]
	if err := l.TruncateBefore(mid); err != nil {
		t.Fatal(err)
	}
	after, _ := ListSegments(dir)
	if after[0] != mid {
		t.Fatalf("first surviving segment base %d, want %d", after[0], mid)
	}
	// The suffix from the truncation point is still fully replayable.
	if got := len(collect(t, l, mid)); got != int(100-mid) {
		t.Fatalf("replayed %d edges, want %d", got, 100-mid)
	}
	// Truncating at the live position keeps the current (last) segment.
	if err := l.TruncateBefore(l.Pos()); err != nil {
		t.Fatal(err)
	}
	if remaining, _ := ListSegments(dir); len(remaining) == 0 {
		t.Fatal("TruncateBefore deleted the current segment")
	}
}

func TestSkipTo(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEdges(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.SkipTo(5); err == nil {
		t.Fatal("backwards SkipTo accepted")
	}
	if err := l.SkipTo(10); err != nil {
		t.Fatalf("no-op SkipTo: %v", err)
	}
	if err := l.SkipTo(100); err != nil {
		t.Fatal(err)
	}
	if got := l.Pos(); got != 100 {
		t.Fatalf("Pos after SkipTo = %d, want 100", got)
	}
	if err := l.Append(testEdges(100, 3)); err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, l, 100)); got != 3 {
		t.Fatalf("replay from 100 returned %d edges, want 3", got)
	}
}

func TestCheckpointRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	if _, _, found, err := LatestCheckpoint(dir); err != nil || found {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}
	if err := WriteCheckpoint(dir, 100, []byte("sketch-at-100")); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, 250, []byte("sketch-at-250")); err != nil {
		t.Fatal(err)
	}
	pos, sk, found, err := LatestCheckpoint(dir)
	if err != nil || !found || pos != 250 || !bytes.Equal(sk, []byte("sketch-at-250")) {
		t.Fatalf("LatestCheckpoint = %d %q %v %v", pos, sk, found, err)
	}
	// Corrupt the newest: the previous one must be used.
	path := filepath.Join(dir, ckptName(250))
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pos, sk, found, err = LatestCheckpoint(dir)
	if err != nil || !found || pos != 100 || !bytes.Equal(sk, []byte("sketch-at-100")) {
		t.Fatalf("fallback LatestCheckpoint = %d %q %v %v", pos, sk, found, err)
	}
}

func TestCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	for _, pos := range []uint64{10, 20, 30, 40} {
		if err := WriteCheckpoint(dir, pos, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	all, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0] != 30 || all[1] != 40 {
		t.Fatalf("retained checkpoints %v, want [30 40]", all)
	}
}

func TestDecodeCheckpointErrors(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		[]byte("short"),
		append([]byte("NOTMAGIC"), make([]byte, 24)...),
	} {
		if _, _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeCheckpoint(%q) = %v, want ErrCorrupt", bad, err)
		}
	}
	// Length field inconsistent with the body but CRC recomputed: still bad.
	good := EncodeCheckpoint(7, []byte("abc"))
	if _, _, err := DecodeCheckpoint(good[:len(good)-5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated checkpoint accepted: %v", err)
	}
	pos, sk, err := DecodeCheckpoint(good)
	if err != nil || pos != 7 || !bytes.Equal(sk, []byte("abc")) {
		t.Fatalf("round trip = %d %q %v", pos, sk, err)
	}
}

func TestDecodeEdgesErrors(t *testing.T) {
	for _, bad := range [][]byte{
		{},           // no count
		{5},          // count without edges
		{1, 0x80},    // unterminated user varint
		{1, 2, 0x80}, // unterminated item varint
	} {
		if _, err := DecodeEdges(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeEdges(%v) = %v, want ErrCorrupt", bad, err)
		}
	}
	// Trailing bytes after the declared count are corruption, not slack.
	payload := mustAppendEdges(t, nil, testEdges(0, 2))
	if _, err := DecodeEdges(append(payload, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing payload byte accepted")
	}
}

func TestRotateExplicit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rotating an empty segment is a no-op.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := ListSegments(dir); len(segs) != 1 {
		t.Fatalf("empty rotate changed segment count: %v", segs)
	}
	if err := l.Append(testEdges(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	if len(segs) != 2 || segs[1] != 10 {
		t.Fatalf("segments after rotate %v, want [0 10]", segs)
	}
	if err := l.Append(testEdges(10, 5)); err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, l, 0)); got != 15 {
		t.Fatalf("replayed %d edges across rotated segments, want 15", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after Close = %v, want ErrClosed", err)
	}
	if err := l.SkipTo(99); !errors.Is(err, ErrClosed) {
		t.Fatalf("SkipTo after Close = %v, want ErrClosed", err)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	// Files that look almost like segments/checkpoints must not confuse
	// directory scans: wrong digit width, bad number, wrong affixes.
	for _, name := range []string{
		"wal-123.seg", "wal-xxxxxxxxxxxxxxxxxxxx.seg", "wal-00000000000000000001.tmp",
		"checkpoint-99.ckpt", "notes.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := ListSegments(dir)
	if err != nil || len(segs) != 0 {
		t.Fatalf("ListSegments = %v, %v; want empty", segs, err)
	}
	cks, err := ListCheckpoints(dir)
	if err != nil || len(cks) != 0 {
		t.Fatalf("ListCheckpoints = %v, %v; want empty", cks, err)
	}
	if _, _, found, err := LatestCheckpoint(filepath.Join(dir, "missing")); err != nil || found {
		t.Fatalf("missing dir: found=%v err=%v", found, err)
	}
	// A fresh log coexists with the foreign files.
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Pos(); got != 0 {
		t.Fatalf("Pos = %d, want 0", got)
	}
}

func TestReplayRefusesMissingPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 6; i++ {
		if err := l.Append(testEdges(i*20, 20)); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := ListSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	// Delete the first segment and replay from 0: the hole must be an
	// error, not a silent skip — the missing edges would corrupt parity.
	if err := os.Remove(SegmentPath(dir, segs[0])); err != nil {
		t.Fatal(err)
	}
	err = ReplayDir(dir, 0, func(uint64, []stream.Edge) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over missing prefix = %v, want ErrCorrupt", err)
	}
	// Delete a middle segment: a mid-log hole fails the same way even
	// when replay starts at an existing boundary.
	segs, _ = ListSegments(dir)
	if err := os.Remove(SegmentPath(dir, segs[1])); err != nil {
		t.Fatal(err)
	}
	err = ReplayDir(dir, segs[0], func(uint64, []stream.Edge) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over mid-log gap = %v, want ErrCorrupt", err)
	}
}

func TestTornSegmentCreationRecovered(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEdges(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between segment creation and header durability:
	// the rotated-to segment survives shorter than its header.
	if err := os.Truncate(SegmentPath(dir, 10), 5); err != nil {
		t.Fatal(err)
	}
	// The read-only inspection paths tolerate it too — vosinspect must
	// work on exactly these crashed directories.
	info, err := InspectSegment(SegmentPath(dir, 10))
	if err != nil || !info.Torn || info.Base != 10 || info.Edges != 0 {
		t.Fatalf("InspectSegment over torn creation = %+v, %v", info, err)
	}
	replayed := 0
	if err := ReplayDir(dir, 0, func(_ uint64, edges []stream.Edge) error {
		replayed += len(edges)
		return nil
	}); err != nil {
		t.Fatalf("ReplayDir over torn creation: %v", err)
	}
	if replayed != 10 {
		t.Fatalf("ReplayDir replayed %d edges, want 10", replayed)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open over torn segment creation: %v", err)
	}
	defer l2.Close()
	if got := l2.Pos(); got != 10 {
		t.Fatalf("Pos = %d, want 10", got)
	}
	if err := l2.Append(testEdges(10, 4)); err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, l2, 0)); got != 14 {
		t.Fatalf("replayed %d edges, want 14", got)
	}
}

func TestDirLockExcludesSecondOpen(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("directory flock is a no-op off unix")
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open on a locked directory succeeded")
	}
	// An explicitly unlocked open coexists (the caller's responsibility).
	l2, err := Open(dir, Options{DisableLock: true})
	if err != nil {
		t.Fatalf("DisableLock Open: %v", err)
	}
	l2.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with its Log: the directory is reusable.
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l3.Close()
}

func TestWriteCheckpointCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	if err := WriteCheckpoint(dir, 5, []byte("s")); err != nil {
		t.Fatal(err)
	}
	pos, sk, found, err := LatestCheckpoint(dir)
	if err != nil || !found || pos != 5 || !bytes.Equal(sk, []byte("s")) {
		t.Fatalf("LatestCheckpoint = %d %q %v %v", pos, sk, found, err)
	}
}

func TestOpenRejectsBadHeader(t *testing.T) {
	dir := t.TempDir()
	// A full-length header with the wrong magic is external corruption,
	// not a torn creation (a sub-header-length file would be — see
	// TestTornSegmentCreationRecovered), and must be rejected.
	bad := append([]byte("BADMAGIC"), make([]byte, segHeaderLen)...)
	if err := os.WriteFile(filepath.Join(dir, segName(0)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over bad header = %v, want ErrCorrupt", err)
	}
	if _, err := InspectSegment(filepath.Join(dir, segName(0))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("InspectSegment over bad header = %v, want ErrCorrupt", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncEveryBatch, SyncEveryN, SyncOff} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: p, SyncEveryN: 16})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := l.Append(testEdges(i*10, 10)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := l2.Pos(); got != 50 {
				t.Fatalf("Pos = %d, want 50", got)
			}
		})
	}
	if (SyncPolicy(99)).String() == "" {
		t.Fatal("unknown policy must still print")
	}
}

// TestAppendRefusesUserOutOfRange: a batch naming a user id the element
// encoding cannot carry is refused whole with stream.ErrUserRange — no
// byte written, no segment rotated to, the position where it was — and the
// log goes on taking batches; recorded as it stood, that user would replay
// as another one.
func TestAppendRefusesUserOutOfRange(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64}) // every append is due a rotation
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := testEdges(0, 20)
	if err := l.Append(before); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(testEdges(20, 3), stream.Edge{User: stream.MaxUser + 1, Item: 7})
	if err := l.Append(bad); !errors.Is(err, stream.ErrUserRange) {
		t.Fatalf("Append = %v, want stream.ErrUserRange", err)
	}
	if after, err := ListSegments(dir); err != nil || len(after) != len(segs) {
		t.Fatalf("the refused append left segments %v (%v), there were %v", after, err, segs)
	}
	if got := l.Pos(); got != 20 {
		t.Fatalf("Pos = %d after the refusal, want 20", got)
	}
	after := []stream.Edge{{User: stream.MaxUser, Item: 9, Op: stream.Delete}}
	if err := l.Append(after); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	want := append(append([]stream.Edge(nil), before...), after...)
	if len(got) != len(want) {
		t.Fatalf("replayed %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAppendEncodedLogsThePayload: a ready payload is the record as given,
// in whatever varint form it came (here overlong ones), copied so that the
// caller's bytes are free when the call returns; one whose count is not the
// batch's is refused with nothing written and the position where it was.
func TestAppendEncodedLogsThePayload(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	edges := []stream.Edge{{User: 1, Item: 2}, {User: 3, Item: 4, Op: stream.Delete}}
	payload := []byte{0x82, 0x00, 0x02, 0x82, 0x00, 0x87, 0x80, 0x00, 0x04} // count, user·op, item, …; some overlong
	if got, err := DecodeEdges(payload); err != nil || len(got) != 2 || got[0] != edges[0] || got[1] != edges[1] {
		t.Fatalf("the hand-built payload decodes to %v, %v", got, err)
	}
	if err := l.AppendEncoded(edges[:1], payload); err == nil {
		t.Fatal("a payload of 2 edges was logged for a batch of 1")
	}
	if got := l.Pos(); got != 0 {
		t.Fatalf("Pos = %d after the refusal, want 0", got)
	}
	if err := l.AppendEncoded(edges, payload); err != nil {
		t.Fatal(err)
	}
	logged := slices.Clone(payload)
	for i := range payload {
		payload[i] = 0xa5
	}
	if got := collect(t, l, 0); !slices.Equal(got, edges) {
		t.Fatalf("replayed %v, want %v", got, edges)
	}
	seg, err := os.ReadFile(SegmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg[segHeaderLen+8:], logged) {
		t.Fatalf("the record's payload is %x, want the bytes handed in, %x", seg[segHeaderLen+8:], logged)
	}
}
