package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/wal"
	"github.com/vossketch/vos/server"
)

// buildVosd compiles the daemon once per test binary into a temp dir.
func buildVosd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vosd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/vosd: %v\n%s", err, out)
	}
	return bin
}

// startVosd launches the daemon on an ephemeral port over dataDir and
// returns its base URL plus a stop function (SIGTERM + wait — the graceful
// path, which writes a final checkpoint).
func startVosd(t *testing.T, bin, dataDir string, extraArgs ...string) (string, func()) {
	t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0", "-dir", dataDir}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The daemon prints "vosd listening on http://ADDR (...)" once serving.
	sc := bufio.NewScanner(stdout)
	base := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			base = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("vosd never reported its listen address (scan err: %v)", sc.Err())
	}
	go func() { // keep draining so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Error("vosd did not exit within 30s of SIGTERM")
		}
	}
	t.Cleanup(stop)
	return base, stop
}

// startVosdUDP is startVosd with -udp-listen: it additionally captures the
// "vosd udp ingest on ADDR" line and returns the datagram address.
func startVosdUDP(t *testing.T, bin, dataDir string) (string, string, func()) {
	t.Helper()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-udp-listen", "127.0.0.1:0", "-dir", dataDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	base, udpAddr := "", ""
	for (base == "" || udpAddr == "") && sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			base = strings.Fields(line[i+len("listening on "):])[0]
		}
		if i := strings.Index(line, "udp ingest on "); i >= 0 {
			udpAddr = strings.Fields(line[i+len("udp ingest on "):])[0]
		}
	}
	if base == "" || udpAddr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("vosd never reported both addresses (http=%q udp=%q, scan err: %v)", base, udpAddr, sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Error("vosd did not exit within 30s of SIGTERM")
		}
	}
	t.Cleanup(stop)
	return base, udpAddr, stop
}

// TestVosdUDPSmoke drives the real binary's datagram plane end to end:
// UDP ingest with acks, delivery confirmed clean, then HTTP queries over
// the same state and the /v1/stats UDP ledger.
func TestVosdUDPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	bin := buildVosd(t)
	base, udpAddr, stop := startVosdUDP(t, bin, t.TempDir())
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	uc, err := client.NewUDP(udpAddr, client.UDPOptions{BatchSize: 64, AckEvery: 4, AckWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	var edges []vos.Edge
	for i := 0; i < 250; i++ {
		edges = append(edges, vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
		edges = append(edges, vos.Edge{User: 2, Item: vos.Item(i + 125), Op: vos.Insert})
	}
	if err := uc.Ingest(ctx, edges); err != nil {
		t.Fatal(err)
	}
	if err := uc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	ust := uc.Stats()
	if !ust.Acked || ust.LastAck.Gaps != 0 || ust.LastAck.Replays != 0 {
		t.Fatalf("udp delivery not confirmed clean: %+v", ust)
	}
	if err := uc.Close(); err != nil {
		t.Fatal(err)
	}

	// The same state answers over HTTP: UDP and HTTP are one engine.
	cl := client.New(base, client.Options{})
	defer cl.Close()
	if card, err := cl.Cardinality(ctx, 1); err != nil || card != 250 {
		t.Fatalf("cardinality(1) after UDP ingest = %d, %v; want 250", card, err)
	}
	sim, err := cl.Similarity(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Jaccard <= 0 {
		t.Fatalf("overlapping users estimate %+v, want positive jaccard", sim)
	}

	// /v1/stats carries the UDP ledger when the plane is on.
	resp, err := http.Get(base + server.RouteStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UDP == nil {
		t.Fatal("/v1/stats has no udp section with -udp-listen on")
	}
	if st.UDP.EdgesApplied != 500 || st.UDP.FramesApplied == 0 {
		t.Fatalf("udp stats: %+v, want 500 edges applied", st.UDP)
	}
	if st.UDP.GapsDetected != 0 || st.UDP.ReplaysDropped != 0 || st.UDP.Malformed != 0 || st.UDP.AdmitRejected != 0 {
		t.Fatalf("loopback clean delivery reported loss: %+v", st.UDP)
	}
}

// TestVosdSmoke is the CI end-to-end gate: build the daemon, ingest a
// dynamic stream through the client, checkpoint, restart the process, and
// verify the recovered daemon answers bit-identically to the pre-restart
// one.
func TestVosdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	bin := buildVosd(t)
	dataDir := t.TempDir()
	ctx, cancelCtx := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelCtx()

	base, stop := startVosd(t, bin, dataDir)
	cl := client.New(base, client.Options{BatchSize: 128})

	// Two overlapping users plus churn, including unsubscriptions.
	var edges []vos.Edge
	for i := 0; i < 300; i++ {
		edges = append(edges, vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
		edges = append(edges, vos.Edge{User: 2, Item: vos.Item(i + 150), Op: vos.Insert})
	}
	for u := vos.User(10); u < 40; u++ {
		for i := 0; i < 15; i++ {
			edges = append(edges, vos.Edge{User: u, Item: vos.Item(int(u)*1000 + i), Op: vos.Insert})
		}
	}
	if err := cl.Ingest(ctx, edges); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint deletes live only in the WAL suffix until shutdown.
	var dels []vos.Edge
	for i := 150; i < 200; i++ {
		dels = append(dels, vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Delete})
	}
	if err := cl.Ingest(ctx, dels); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	before, err := cl.Similarity(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	beforeCard, err := cl.Cardinality(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if beforeCard != 250 {
		t.Fatalf("cardinality(1) = %d, want 250", beforeCard)
	}
	candidates := []vos.User{2, 10, 11, 12, 13, 14}
	beforeTop, err := cl.TopK(ctx, 1, candidates, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(beforeTop) != 3 || beforeTop[0].User != 2 {
		t.Fatalf("topk before restart: %+v (want user 2 first)", beforeTop)
	}
	cl.Close()
	stop()

	// Restart over the same directory: recovery = checkpoint + WAL suffix.
	base2, stop2 := startVosd(t, bin, dataDir)
	cl2 := client.New(base2, client.Options{})
	defer cl2.Close()
	after, err := cl2.Similarity(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("recovered similarity %+v != pre-restart %+v", after, before)
	}
	afterCard, err := cl2.Cardinality(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if afterCard != beforeCard {
		t.Fatalf("recovered cardinality %d != pre-restart %d", afterCard, beforeCard)
	}
	afterTop, err := cl2.TopK(ctx, 1, candidates, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(afterTop) != fmt.Sprint(beforeTop) {
		t.Fatalf("recovered topk %+v != pre-restart %+v", afterTop, beforeTop)
	}
	stop2()
}

// TestVosdBadFlags: a flag value the daemon cannot honour fails fast
// instead of starting a daemon with silent defaults — a durability or window
// knob without the flag that turns the feature on included. A daemon that
// takes its flags serves until the test binary exits, so a row that is not
// refused within the timeout has been accepted.
func TestVosdBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad -sync value", []string{"-dir", t.TempDir(), "-sync", "sometimes"}},
		{"bad -hash-family value", []string{"-hash-family", "sideways"}},
		{"negative -window", []string{"-window", "-1s"}},
		{"-buckets 0 with -window", []string{"-window", "1m", "-buckets", "0"}},
		{"-window not divisible by -buckets", []string{"-window", "1s", "-buckets", "7"}},
		{"-buckets without -window", []string{"-buckets", "7"}},
		{"-ann-bands without -ann", []string{"-ann-bands", "32"}},
		{"-checkpoint-interval without -dir", []string{"-checkpoint-interval", "30s"}},
		{"-sync-every-n without -dir", []string{"-sync", "interval", "-sync-every-n", "100"}},
		{"-segment-bytes without -dir", []string{"-segment-bytes", "1048576"}},
		{"-sync without -dir", []string{"-sync", "off"}},
	} {
		done := make(chan error, 1)
		go func() { done <- run(append([]string{"-listen", "127.0.0.1:0"}, tc.args...), io.Discard) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s accepted: the daemon is serving", tc.name)
		}
	}
}

// TestVosdWindowSmoke drives the real binary in sliding-window mode:
// ingest, confirm the stats advertise the window, retire everything with
// a far-future event timestamp, and confirm the state emptied.
func TestVosdWindowSmoke(t *testing.T) {
	bin := buildVosd(t)
	url, stop := startVosd(t, bin, t.TempDir(), "-window", "1h", "-buckets", "4")
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(url, client.Options{Linger: -1})
	defer cl.Close()

	if err := cl.Ingest(ctx, []vos.Edge{
		{User: 1, Item: 10, Op: vos.Insert},
		{User: 2, Item: 10, Op: vos.Insert},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.WindowSeconds != 3600 || st.WindowBuckets != 4 {
		t.Fatalf("stats window = (%v s, %d buckets), want (3600 s, 4)", st.WindowSeconds, st.WindowBuckets)
	}
	if card, err := cl.Cardinality(ctx, 1); err != nil || card != 1 {
		t.Fatalf("cardinality = %d, %v; want 1", card, err)
	}

	// Event time a day ahead retires the whole window.
	if err := cl.AdvanceWindow(ctx, time.Now().Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if card, err := cl.Cardinality(ctx, 1); err != nil || card != 0 {
		t.Fatalf("cardinality after aging out = %d, %v; want 0", card, err)
	}
}

// TestCheckpointEveryPeriod: -checkpoint-interval's loop writes one
// checkpoint a period of its clock, and its stop returns with none in
// flight — no half-written file, and the loop is gone, so a later period
// writes nothing.
func TestCheckpointEveryPeriod(t *testing.T) {
	dir := t.TempDir()
	eng, err := vos.OpenEngine(dir, vos.EngineConfig{Sketch: vos.Config{MemoryBits: 1 << 16, SketchBits: 128, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ingest := func(item vos.Item) {
		if err := eng.ProcessBatch([]vos.Edge{{User: 1, Item: item, Op: vos.Insert}}); err != nil {
			t.Fatal(err)
		}
	}
	checkpoints := func() []uint64 {
		pos, err := wal.ListCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		return pos
	}
	clk := clock.NewManual(time.Unix(0, 0))
	ingest(1)
	stop := checkpointEvery(eng, time.Minute, clk, false)
	clk.BlockUntil(1)
	before := checkpoints()
	clk.Advance(time.Minute)
	clk.BlockUntil(1) // parked again: this period's checkpoint is written
	fresh := 0
	for _, pos := range checkpoints() {
		if !slices.Contains(before, pos) {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d new checkpoints after one period (before: %v, after: %v), want 1", fresh, before, checkpoints())
	}

	ingest(2)
	clk.Advance(time.Minute) // a checkpoint may be running now; stop waits it out
	stop()
	settled := checkpoints()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "tmp-") {
			t.Fatalf("stop returned with %s half written", ent.Name())
		}
	}
	clk.Advance(time.Minute)
	if got := checkpoints(); !slices.Equal(got, settled) {
		t.Fatalf("checkpoints %v after stop, then %v a period later: the loop outlived stop", settled, got)
	}
}
