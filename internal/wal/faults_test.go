package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

// errInjected is the failure faultDisk hands out.
var errInjected = errors.New("injected disk fault")

// faultDisk models the page cache beneath the log's files, and fails one
// file operation on demand. Writes reach the real files, so what the log
// reads back is what a page cache would show. Per segment it remembers what
// a crash would keep:
//   - bytes are durable only once a Sync succeeds;
//   - a failed Sync marks the unsynced range lost — after a writeback error
//     the kernel may drop those pages and let the next fsync succeed;
//   - crash writes a directory image that keeps the unsynced bytes or drops
//     them, and zeros the lost ranges in both.
//
// Directory entries are taken to be durable at once.
type faultDisk struct {
	mu      sync.Mutex
	fails   func(op string, n int) bool // whether the n-th operation, op, fails
	n       int                         // file operations so far
	fired   bool                        // one failure a disk
	firedOp string                      // the operation that failed
	files   map[string]*diskFile        // by path
}

// diskFile is what a crash keeps of one segment.
type diskFile struct {
	durable []byte     // the content as of the last successful Sync
	lost    [][2]int64 // ranges whose writeback failed
}

// useFaultDisk puts a fault disk beneath every file the package opens until
// the test ends. fails picks the one operation that fails; nil fails none.
func useFaultDisk(tb testing.TB, fails func(op string, n int) bool) *faultDisk {
	d := &faultDisk{fails: fails, files: map[string]*diskFile{}}
	prev := openFile
	openFile = d.open
	tb.Cleanup(func() { openFile = prev })
	return d
}

// failNth fails the k-th file operation, counting from 1.
func failNth(k int) func(string, int) bool {
	return func(_ string, n int) bool { return n == k }
}

// step counts one operation and reports whether it is the one to fail.
// Callers hold d.mu.
func (d *faultDisk) step(op string) bool {
	d.n++
	if d.fired || d.fails == nil || !d.fails(op, d.n) {
		return false
	}
	d.fired, d.firedOp = true, op
	return true
}

func (d *faultDisk) open(path string, flag int) (segFile, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.step("open") {
		return nil, errInjected
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	ff := &faultFile{d: d, f: f, path: path}
	if fi, err := f.Stat(); err == nil && fi.IsDir() {
		return ff, nil
	}
	if flag&os.O_TRUNC != 0 {
		d.files[path] = &diskFile{}
	} else if d.files[path] == nil {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Close()
			return nil, err
		}
		d.files[path] = &diskFile{durable: data}
	}
	ff.state = d.files[path]
	return ff, nil
}

// faultFile is one open handle on the fault disk; state is nil for a
// directory.
type faultFile struct {
	d     *faultDisk
	f     *os.File
	path  string
	state *diskFile
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.d.step("write") {
		n, _ := f.f.Write(p[:len(p)/2]) // a short write, as a full disk makes
		return n, errInjected
	}
	return f.f.Write(p)
}

func (f *faultFile) Sync() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	fail := f.d.step("sync")
	if f.state == nil {
		if fail {
			return errInjected
		}
		return nil
	}
	data, err := os.ReadFile(f.path)
	if err != nil {
		return err
	}
	if fail {
		if n := int64(len(f.state.durable)); n < int64(len(data)) {
			f.state.lost = append(f.state.lost, [2]int64{n, int64(len(data))})
		}
		return errInjected
	}
	f.state.durable = zeroLost(data, f.state.lost)
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.d.step("truncate") {
		return errInjected
	}
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	if int64(len(f.state.durable)) > size {
		f.state.durable = f.state.durable[:size]
	}
	kept := f.state.lost[:0]
	for _, r := range f.state.lost {
		if r[0] < size {
			kept = append(kept, [2]int64{r[0], min(r[1], size)})
		}
	}
	f.state.lost = kept
	return nil
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.d.step("seek") {
		return 0, errInjected
	}
	return f.f.Seek(offset, whence)
}

func (f *faultFile) Close() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	fail := f.d.step("close")
	if err := f.f.Close(); err != nil || !fail {
		return err
	}
	return errInjected // the descriptor is gone all the same
}

// zeroLost returns a copy of data with the lost ranges zeroed.
func zeroLost(data []byte, lost [][2]int64) []byte {
	out := slices.Clone(data)
	for _, r := range lost {
		clear(out[min(r[0], int64(len(out))):min(r[1], int64(len(out)))])
	}
	return out
}

// crash writes into dst the directory src as a crash would leave it: each
// segment the disk has seen holds its unsynced bytes (keep) or only its
// durable ones, with the lost ranges zeroed either way; other files are
// copied as they are. The disk fails nothing from then on.
func (d *faultDisk) crash(tb testing.TB, src, dst string, keep bool) {
	tb.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fails = nil
	ents, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		tb.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if st := d.files[filepath.Join(src, ent.Name())]; st != nil {
			if !keep {
				data = st.durable
			}
			data = zeroLost(data, st.lost)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// faultRecord is one Append the fault loop made: where it began and its
// edges; ok if it returned nil, mayHold if it failed on its own record's
// fsync, so that the record may survive.
type faultRecord struct {
	pos         uint64
	edges       []stream.Edge
	ok, mayHold bool
}

// same reports whether a replayed record is this append.
func (a faultRecord) same(pos uint64, edges []stream.Edge) bool {
	return a.pos == pos && slices.Equal(a.edges, edges)
}

// faultRun is what one run of the fault loop did, for checkReplay.
type faultRun struct {
	appends []faultRecord
	durable int    // the leading successful appends acknowledged durable
	floor   uint64 // the last SkipTo that returned nil: below it is covered
	skipped uint64 // the SkipTo the fault failed, else 0: the floor may have moved there
}

// runFaultLoop drives a log in dir under policy through a workload drawn
// from seed (appends, explicit Syncs, Rotates and SkipTos) on a disk that
// fails its k-th file operation, and returns what the log acknowledged and
// the disk. The log is left open, as a crash leaves it; nil if Open failed.
func runFaultLoop(t testing.TB, dir string, seed int64, k int, policy SyncPolicy) (*Log, *faultDisk, faultRun) {
	d := useFaultDisk(t, failNth(k))
	rng := rand.New(rand.NewSource(seed))
	var run faultRun
	l, err := Open(dir, Options{Sync: policy, SyncEveryN: 16, SegmentBytes: 160, DisableLock: true})
	if err != nil {
		return nil, d, run
	}
	var oks []int // the edge counts of the appends that returned nil
	acked := func() { run.durable = len(oks) }
	user := 0
	for range 40 {
		switch r := rng.Intn(10); {
		case r < 7:
			batch := testEdges(user, 1+rng.Intn(12))
			user += len(batch)
			pos, fired := l.Pos(), d.fired
			err := l.Append(batch)
			run.appends = append(run.appends, faultRecord{pos: pos, edges: batch, ok: err == nil,
				mayHold: err != nil && !fired && d.fired && d.firedOp == "sync"})
			if err == nil {
				oks = append(oks, len(batch))
				switch policy {
				case SyncEveryBatch:
					acked()
				case SyncEveryN: // fewer than SyncEveryN acknowledged edges are unsynced
					i, tail := len(oks), 0
					for ; i > 0 && tail+oks[i-1] < 16; i-- {
						tail += oks[i-1]
					}
					run.durable = max(run.durable, i)
				}
			}
		case r < 8:
			if l.Sync() == nil {
				acked()
			}
		case r < 9:
			if l.Rotate() == nil {
				acked()
			}
		default:
			to, fired := l.Pos()+uint64(1+rng.Intn(5)), d.fired
			if err := l.SkipTo(to); err == nil {
				acked()
				run.floor = to
			} else if !fired && d.fired {
				run.skipped = to
			}
		}
	}
	return l, d, run
}

// checkReplay reopens a crash image and holds what it replays to three
// conditions: it is a prefix of the appends that returned nil, with no hole
// followed by data; the only record it may hold past them is the one whose
// own fsync failed; and it holds every append acknowledged durable. The
// reopened log must then go on where the replay ends.
func checkReplay(dir string, run faultRun) error {
	l, err := Open(dir, Options{DisableLock: true})
	if err != nil {
		return fmt.Errorf("reopen: %v", err)
	}
	defer l.Close()
	from := run.floor
	var got []faultRecord
	replay := func() error {
		got = got[:0]
		return ReplayDir(l.dir, from, func(pos uint64, edges []stream.Edge) error {
			got = append(got, faultRecord{pos: pos, edges: edges})
			return nil
		})
	}
	if err = replay(); err != nil && run.skipped != 0 {
		// A SkipTo that failed may have left its segment behind, which
		// says that everything below it is covered, as SkipTo would have.
		from = run.skipped
		err = replay()
	}
	if err != nil {
		return fmt.Errorf("replay from %d: %v", from, err)
	}
	var want []faultRecord // the appends the replay may hold, in order
	durable := run.durable // how many of the ok ones it must hold
	for _, a := range run.appends {
		switch {
		case a.pos < from:
			if a.ok {
				durable--
			}
		case a.ok || a.mayHold:
			want = append(want, a)
		}
	}
	i, held := 0, 0
	for j, g := range got {
		for i < len(want) && !want[i].ok && !want[i].same(g.pos, g.edges) {
			i++ // the failed append may be missing
		}
		if i == len(want) || !want[i].same(g.pos, g.edges) {
			return fmt.Errorf("replayed record %d, at %d with %d edges, is not the next append the log may hold: a hole followed by data", j, g.pos, len(g.edges))
		}
		if !want[i].ok && j < len(got)-1 {
			return fmt.Errorf("replay holds the failed append at %d and records after it", g.pos)
		}
		if want[i].ok {
			held++
		}
		i++
	}
	if held < durable {
		return fmt.Errorf("replay holds %d acknowledged appends, %d were acknowledged durable", held, durable)
	}
	end := from
	if len(got) > 0 {
		last := got[len(got)-1]
		end = max(end, last.pos+uint64(len(last.edges)))
	}
	if l.Pos() != end {
		return fmt.Errorf("reopened at %d, the replay ends at %d", l.Pos(), end)
	}
	if err := l.Append(testEdges(1<<20, 3)); err != nil {
		return fmt.Errorf("append after reopen: %v", err)
	}
	return nil
}

// checkFaultRun runs the loop with the k-th operation failing, crashes, and
// checks both crash images, then closes the log and checks the directory as
// a restart without a crash finds it. ran reports whether the k-th operation came
// before the workload ended.
func checkFaultRun(t testing.TB, seed int64, k int, policy SyncPolicy) (ran bool, err error) {
	root, err := os.MkdirTemp(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, "live")
	l, d, run := runFaultLoop(t, dir, seed, k, policy)
	ran = d.fired
	if l == nil {
		return ran, nil // Open failed: nothing was acknowledged
	}
	defer l.Close()
	for _, keep := range []bool{true, false} {
		img := filepath.Join(root, fmt.Sprintf("crash-keep=%v", keep))
		d.crash(t, dir, img, keep)
		if err := checkReplay(img, run); err != nil {
			return ran, fmt.Errorf("crash image keep=%v: %w", keep, err)
		}
	}
	// A restart without a crash reads what the page cache holds: every
	// append that returned nil, and none that returned an error.
	l.Close()
	live := faultRun{appends: slices.Clone(run.appends), floor: run.floor, skipped: run.skipped}
	for i := range live.appends {
		live.appends[i].mayHold = false
		if live.appends[i].ok {
			live.durable++
		}
	}
	if err := checkReplay(dir, live); err != nil {
		return ran, fmt.Errorf("restart without a crash: %w", err)
	}
	return ran, nil
}

// TestSegmentFaults fails the k-th file operation, for every k the workload
// reaches, under each sync policy and a few workloads, then crashes and
// reopens both crash images: each replay is a prefix of the appends that
// returned nil (the failed one may end it), holds every append that was
// acknowledged durable, and reopens where it ends. Reopened without a
// crash, the log replays exactly the appends that returned nil.
func TestSegmentFaults(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEveryBatch, SyncEveryN, SyncOff} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", policy, seed), func(t *testing.T) {
				for k := 1; ; k++ {
					ran, err := checkFaultRun(t, seed, k, policy)
					if err != nil {
						t.Fatalf("operation %d failing: %v", k, err)
					}
					if !ran {
						break // the workload ended before operation k
					}
				}
			})
		}
	}
}

// FuzzSegmentFaults is TestSegmentFaults for any workload seed, policy and
// operation to fail, k mod 200 (a workload makes up to about 180, so some
// runs fail none).
func FuzzSegmentFaults(f *testing.F) {
	f.Add(int64(1), uint16(7), uint8(0))
	f.Add(int64(2), uint16(40), uint8(1))
	f.Add(int64(3), uint16(25), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, k uint16, policy uint8) {
		if _, err := checkFaultRun(t, seed, int(k%200), SyncPolicy(policy%3)); err != nil {
			t.Fatalf("operation %d failing: %v", k, err)
		}
	})
}

// TestPoisonedLogRefusesWrites: once an fsync fails, every method that
// changes the log returns the latched error — no segment is opened, no
// position moves — until the directory is reopened; Close returns it too,
// and the reopened log takes appends again.
func TestPoisonedLogRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	armed := false
	useFaultDisk(t, func(op string, _ int) bool { return armed && op == "sync" })
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if err := l.Append(testEdges(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	armed = true
	poison := l.Append(testEdges(3, 10))
	if !errors.Is(poison, errInjected) {
		t.Fatalf("Append over a failed fsync = %v, want the disk's error", poison)
	}
	segs, _ := ListSegments(dir)
	pos := l.Pos()
	for name, call := range map[string]func() error{
		"Append":         func() error { return l.Append(testEdges(13, 1)) },
		"Sync":           l.Sync,
		"Rotate":         l.Rotate,
		"SkipTo":         func() error { return l.SkipTo(pos + 10) },
		"TruncateBefore": func() error { return l.TruncateBefore(pos) },
	} {
		if err := call(); !errors.Is(err, poison) {
			t.Fatalf("%s on a failed log = %v, want the latched %v", name, err, poison)
		}
	}
	if now, _ := ListSegments(dir); !slices.Equal(now, segs) || l.Pos() != pos {
		t.Fatalf("a failed log moved to segments %v at %d, from %v at %d", now, l.Pos(), segs, pos)
	}
	if err := l.Close(); !errors.Is(err, poison) {
		t.Fatalf("Close of a failed log = %v, want the latched %v", err, poison)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(testEdges(20, 2)); err != nil {
		t.Fatalf("Append after reopening: %v", err)
	}
}

// TestZeroFilledTailIsTorn: the zeros a crash leaves where lost pages were —
// after a segment's last whole record, or in place of its header — read as a
// torn tail, not as corruption; a zeroed header before a record is.
func TestZeroFilledTailIsTorn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEdges(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := func(over string) {
		t.Helper()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open over %s: %v", over, err)
		}
		defer l.Close()
		if got := l.Pos(); got != 5 {
			t.Fatalf("Pos over %s = %d, want 5", over, got)
		}
		if got := len(collect(t, l, 0)); got != 5 {
			t.Fatalf("replayed %d edges over %s, want 5", got, over)
		}
	}
	seg, err := os.ReadFile(SegmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SegmentPath(dir, 0), append(seg, make([]byte, 40)...), 0o644); err != nil {
		t.Fatal(err)
	}
	reopen("zeros after the last record")
	if err := os.WriteFile(SegmentPath(dir, 5), make([]byte, 2*segHeaderLen), 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := InspectSegment(SegmentPath(dir, 5)); err != nil || !info.Torn || info.Base != 5 {
		t.Fatalf("InspectSegment over a zeroed header = %+v, %v", info, err)
	}
	reopen("a zeroed header")
	// A zeroed header with a record after it was not left by a crash: the
	// open fails loudly and the segment is kept as it is.
	corrupt := append(make([]byte, segHeaderLen), seg[segHeaderLen:]...)
	if err := os.WriteFile(SegmentPath(dir, 5), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("Open over a zeroed header before a record = %v, want ErrCorrupt", err)
	}
	if _, err := InspectSegment(SegmentPath(dir, 5)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("InspectSegment over a zeroed header before a record = %v, want ErrCorrupt", err)
	}
	if got, _ := os.ReadFile(SegmentPath(dir, 5)); !slices.Equal(got, corrupt) {
		t.Fatal("a failed Open rewrote the segment with the zeroed header")
	}
}
