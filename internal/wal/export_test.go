package wal

import "testing"

// FaultDisk is the fault disk (faultDisk) for the engine-level tests in
// package wal_test.
type FaultDisk = faultDisk

// UseFaultDisk puts a fault disk that fails nothing beneath every file the
// package opens until the test ends.
func UseFaultDisk(tb testing.TB) *FaultDisk { return useFaultDisk(tb, nil) }

// FailNextSync makes the next fsync the disk sees fail.
func (d *faultDisk) FailNextSync() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fails = func(op string, _ int) bool { return op == "sync" }
}

// Crash writes into dst the directory src as a crash would leave it (crash).
func (d *faultDisk) Crash(tb testing.TB, src, dst string, keep bool) { d.crash(tb, src, dst, keep) }
