package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/cluster"
)

// smokeSketch is the shared sketch identity of every backend, handoff
// target and oracle in these tests; smokeSketchArgs is the same identity
// as vosd flags.
var smokeSketch = vos.Config{MemoryBits: 1 << 14, SketchBits: 256, Seed: 5}
var smokeSketchArgs = []string{"-memory-bits", "16384", "-sketch-bits", "256", "-seed", "5"}

// buildBinary compiles one of the repo's commands into a temp dir.
func buildBinary(t *testing.T, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// proc is a started daemon: its base URL and the handles to stop it.
type proc struct {
	base string
	cmd  *exec.Cmd
	t    *testing.T
}

// sigterm stops the daemon gracefully (vosd writes a final checkpoint).
func (p *proc) sigterm() {
	if p.cmd == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	p.waitExit()
}

// sigkill is the crash: no drain, no checkpoint, the process just dies.
func (p *proc) sigkill() {
	if p.cmd == nil {
		return
	}
	p.cmd.Process.Kill()
	p.waitExit()
}

func (p *proc) waitExit() {
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		p.t.Error("daemon did not exit within 30s")
	}
	p.cmd = nil
}

// port extracts the daemon's host:port so a restart can reclaim the same
// address (the ring document keeps pointing at it).
func (p *proc) port() string {
	u, err := url.Parse(p.base)
	if err != nil {
		p.t.Fatal(err)
	}
	return u.Host
}

// startDaemon launches bin with args and scans stdout for the
// "listening on http://ADDR" line both daemons print once serving.
func startDaemon(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("daemon never reported its listen address (scan err: %v)", sc.Err())
	}
	go func() { // keep draining so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()
	p := &proc{base: base, cmd: cmd, t: t}
	t.Cleanup(func() {
		if p.cmd != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	return p
}

// startVosd launches a durable backend with the shared sketch identity.
func startVosd(t *testing.T, bin, dataDir, listen string) *proc {
	t.Helper()
	args := append([]string{"-listen", listen, "-dir", dataDir, "-shards", "2"}, smokeSketchArgs...)
	return startDaemon(t, bin, args...)
}

// smokeWorkload is a deterministic fully dynamic stream: overlapping
// users, churn, and unsubscriptions.
func smokeWorkload(users, perUser int) []vos.Edge {
	var edges []vos.Edge
	for u := 0; u < users; u++ {
		for i := 0; i < perUser; i++ {
			// Half-overlapping item ranges make neighbors similar.
			edges = append(edges, vos.Edge{User: vos.User(u), Item: vos.Item(u*perUser/2 + i), Op: vos.Insert})
		}
	}
	for u := 0; u < users; u += 3 {
		for i := 0; i < perUser/4; i++ {
			edges = append(edges, vos.Edge{User: vos.User(u), Item: vos.Item(u*perUser/2 + i), Op: vos.Delete})
		}
	}
	return edges
}

// oracleEngine folds edges into a fresh single engine — the ground truth.
func oracleEngine(t *testing.T, edges []vos.Edge) *vos.Engine {
	t.Helper()
	eng, err := vos.NewEngine(vos.EngineConfig{Sketch: smokeSketch, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	return eng
}

// assertGatewayParity compares the gateway's answers and serialized state
// against the single-engine oracle, bit for bit.
func assertGatewayParity(ctx context.Context, t *testing.T, cl *client.ClusterClient, oracle *vos.Engine, users int) {
	t.Helper()
	state, err := cl.ExportSketch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, want) {
		t.Fatal("cluster export differs from the single-engine oracle")
	}
	for u := vos.User(0); u < vos.User(users); u += 5 {
		got, err := cl.Similarity(ctx, u, u+1)
		if err != nil {
			t.Fatal(err)
		}
		if wantE := oracle.Query(u, u+1); got != wantE {
			t.Fatalf("similarity(%d,%d) = %+v, oracle %+v", u, u+1, got, wantE)
		}
		card, err := cl.Cardinality(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if wantC := oracle.Cardinality(u); card != wantC {
			t.Fatalf("cardinality(%d) = %d, oracle %d", u, card, wantC)
		}
	}
	candidates := make([]vos.User, 0, users-1)
	for u := vos.User(0); u < vos.User(users); u++ {
		if u != 1 {
			candidates = append(candidates, u)
		}
	}
	got, err := cl.TopK(ctx, 1, candidates, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantTop := oracle.TopK(1, candidates, 5)
	if fmt.Sprint(got) != fmt.Sprint(wantTop) {
		t.Fatalf("topk = %+v, oracle %+v", got, wantTop)
	}
}

// TestVosgwSmoke is the CI end-to-end cluster gate over real binaries:
// three vosd backends behind a vosgw, ingest, a live shard handoff to a
// fresh fourth node, a graceful restart of one backend, then bit-exact
// queries against a single-engine oracle.
func TestVosgwSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binaries")
	}
	vosdBin := buildBinary(t, "github.com/vossketch/vos/cmd/vosd", "vosd")
	vosgwBin := buildBinary(t, ".", "vosgw")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	nodes := make([]*proc, 3)
	shards := make([]string, 3)
	for i := range nodes {
		nodes[i] = startVosd(t, vosdBin, dirs[i], "127.0.0.1:0")
		shards[i] = nodes[i].base
	}
	ringPath := filepath.Join(t.TempDir(), "ring.json")
	if err := cluster.SaveRing(ringPath, &cluster.Ring{Version: 1, RouteSeed: 7, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	gw := startDaemon(t, vosgwBin, "-listen", "127.0.0.1:0", "-ring", ringPath)

	cl := client.NewCluster(gw.base, client.Options{BatchSize: 128})
	t.Cleanup(func() { cl.Close() })

	edges := smokeWorkload(45, 40)
	half := len(edges) / 2
	if err := cl.Ingest(ctx, edges[:half]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Live handoff: shard 1 moves to a fresh durable node mid-stream.
	freshDir := t.TempDir()
	freshNode := startVosd(t, vosdBin, freshDir, "127.0.0.1:0")
	version, err := cl.Handoff(ctx, 1, freshNode.base)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("ring version after handoff: %d, want 2", version)
	}
	ring, err := cl.Ring(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Shards[1] != freshNode.base {
		t.Fatalf("ring after handoff: %+v", ring)
	}

	if err := cl.Ingest(ctx, edges[half:]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Coordinated cluster checkpoint: every backend persists under a full
	// quiesce, the manifest records ring v2 rows.
	m, err := cl.CheckpointCluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.RingVersion != 2 || len(m.Shards) != 3 {
		t.Fatalf("cluster checkpoint manifest: %+v", m)
	}

	// Graceful restart of one backend on the same address; the ring still
	// points at it, so queries must come back bit-exact afterwards.
	addr := nodes[0].port()
	nodes[0].sigterm()
	nodes[0] = startVosd(t, vosdBin, dirs[0], addr)

	assertGatewayParity(ctx, t, cl, oracleEngine(t, edges), 45)
}

// TestClusterCrashParity is the crash half of the correctness bar: kill
// -9 one backend mid-stream (after the gateway acked — synchronous
// shipping means acked edges are in that backend's WAL), restart it from
// its durability dir on the same address, finish the stream through the
// gateway, and every answer plus every per-shard serialized sketch must be
// bit-identical to an uninterrupted single-engine run. K ∈ {2,3,4}.
func TestClusterCrashParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binaries")
	}
	vosdBin := buildBinary(t, "github.com/vossketch/vos/cmd/vosd", "vosd")
	vosgwBin := buildBinary(t, ".", "vosgw")

	for _, k := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("nodes=%d", k), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()

			dirs := make([]string, k)
			nodes := make([]*proc, k)
			shards := make([]string, k)
			for i := range nodes {
				dirs[i] = t.TempDir()
				nodes[i] = startVosd(t, vosdBin, dirs[i], "127.0.0.1:0")
				shards[i] = nodes[i].base
			}
			ring := &cluster.Ring{Version: 1, RouteSeed: 7, Shards: shards}
			ringPath := filepath.Join(t.TempDir(), "ring.json")
			if err := cluster.SaveRing(ringPath, ring); err != nil {
				t.Fatal(err)
			}
			gw := startDaemon(t, vosgwBin, "-listen", "127.0.0.1:0", "-ring", ringPath)
			cl := client.NewCluster(gw.base, client.Options{BatchSize: 128})
			t.Cleanup(func() { cl.Close() })

			edges := smokeWorkload(30+k, 32)
			half := len(edges) / 2
			if err := cl.Ingest(ctx, edges[:half]); err != nil {
				t.Fatal(err)
			}
			// Flush: the gateway forwards synchronously, so the ack means
			// every edge so far is in its owner's WAL.
			if err := cl.Flush(ctx); err != nil {
				t.Fatal(err)
			}

			// Crash the backend owning the most-loaded shard, then restart
			// it from its durability dir on the same address.
			victim := 1 % k
			addr := nodes[victim].port()
			nodes[victim].sigkill()
			nodes[victim] = startVosd(t, vosdBin, dirs[victim], addr)

			if err := cl.Ingest(ctx, edges[half:]); err != nil {
				t.Fatal(err)
			}
			if err := cl.Flush(ctx); err != nil {
				t.Fatal(err)
			}

			users := 30 + k
			assertGatewayParity(ctx, t, cl, oracleEngine(t, edges), users)

			// Per-shard exactness: each backend's serialized sketch equals
			// an engine fed exactly its shard's slice of the stream.
			for s, node := range shards {
				if s == victim {
					node = nodes[victim].base
				}
				var own []vos.Edge
				for _, e := range edges {
					if ring.ShardOf(e.User) == s {
						own = append(own, e)
					}
				}
				bc := client.New(node, client.Options{})
				state, err := bc.ExportSketch(ctx)
				bc.Close()
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleEngine(t, own).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(state, want) {
					t.Fatalf("shard %d state differs from its slice oracle after crash+restart", s)
				}
			}
		})
	}
}

// TestVosgwBadFlags: configuration mistakes fail fast instead of starting
// a gateway over a broken ring.
func TestVosgwBadFlags(t *testing.T) {
	if err := run([]string{"-listen", "127.0.0.1:0"}, &strings.Builder{}); err == nil {
		t.Fatal("missing -ring accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-ring", filepath.Join(t.TempDir(), "missing.json")}, &strings.Builder{}); err == nil {
		t.Fatal("nonexistent ring file accepted")
	}
	bad := filepath.Join(t.TempDir(), "ring.json")
	if err := os.WriteFile(bad, []byte(`{"version":0,"shards":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-ring", bad}, &strings.Builder{}); err == nil {
		t.Fatal("invalid ring document accepted")
	}
}

// TestReadmeNamesEveryFlag: every flag vosd and vosgw parse — read from
// their -h output, not from a list kept beside them — is named in the
// README, so an operator never meets a flag the documentation is silent on.
func TestReadmeNamesEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct{ pkg, name string }{
		{"github.com/vossketch/vos/cmd/vosd", "vosd"},
		{".", "vosgw"},
	} {
		usage, err := exec.Command(buildBinary(t, b.pkg, b.name), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", b.name, err, usage)
		}
		flags := regexp.MustCompile(`(?m)^  -(\S+)`).FindAllSubmatch(usage, -1)
		if len(flags) == 0 {
			t.Fatalf("%s -h lists no flags:\n%s", b.name, usage)
		}
		for _, f := range flags {
			named := regexp.MustCompile(`(?m)(^|[^\w-])-` + regexp.QuoteMeta(string(f[1])) + `([^\w-]|$)`)
			if !named.Match(readme) {
				t.Errorf("README never names %s's -%s", b.name, f[1])
			}
		}
	}
}
