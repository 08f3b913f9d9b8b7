package gen

import (
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

func tinyProfile() Profile {
	return Profile{
		Name: "tiny", Users: 500, Items: 800, Edges: 5000,
		UserSkew: 1.6, ItemSkew: 1.3,
	}
}

func TestProfileByName(t *testing.T) {
	for _, want := range []string{"YouTube", "Flickr", "Orkut", "LiveJournal"} {
		p, err := ProfileByName(want)
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if p.Name != want {
			t.Errorf("got %q", p.Name)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestProfileScaled(t *testing.T) {
	s := YouTube.Scaled(0.01)
	if s.Users == 0 || s.Edges == 0 {
		t.Fatal("scaled to zero")
	}
	if s.Users > YouTube.Users/50 {
		t.Errorf("users %d not scaled down", s.Users)
	}
	// Average degree approximately preserved.
	ratio := s.AvgDegree() / YouTube.AvgDegree()
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("avg degree ratio %v after scaling", ratio)
	}
	if s.Edges > s.Users*s.Items {
		t.Error("edges exceed complete graph")
	}
}

func TestProfileScaledPanics(t *testing.T) {
	for _, f := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%v) should panic", f)
				}
			}()
			YouTube.Scaled(f)
		}()
	}
}

func TestBipartiteShape(t *testing.T) {
	p := tinyProfile()
	edges := Bipartite(p, 1)

	// Edge count near target.
	if got, want := float64(len(edges)), float64(p.Edges); got < want*0.9 || got > want*1.1 {
		t.Errorf("edge count %d, want ~%d", len(edges), p.Edges)
	}
	// All inserts, all IDs in range, no duplicate (u, i).
	seen := make(map[edgeKey]struct{}, len(edges))
	for _, e := range edges {
		if e.Op != stream.Insert {
			t.Fatalf("non-insert %s in static graph", e)
		}
		if uint64(e.User) >= p.Users || uint64(e.Item) >= p.Items {
			t.Fatalf("out of range %s", e)
		}
		k := edgeKey{e.User, e.Item}
		if _, dup := seen[k]; dup {
			t.Fatalf("duplicate edge %s", e)
		}
		seen[k] = struct{}{}
	}
	if err := stream.Validate(edges); err != nil {
		t.Fatalf("static graph infeasible: %v", err)
	}
}

func TestBipartiteDeterministic(t *testing.T) {
	p := tinyProfile()
	a := Bipartite(p, 7)
	b := Bipartite(p, 7)
	if len(a) != len(b) {
		t.Fatal("lengths differ across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	c := Bipartite(p, 8)
	sameLen := len(a) == len(c)
	samePrefix := true
	for i := 0; samePrefix && sameLen && i < 50 && i < len(a); i++ {
		samePrefix = a[i] == c[i]
	}
	if sameLen && samePrefix {
		t.Error("different seeds produced the same stream prefix")
	}
}

func TestBipartiteDegreeSkew(t *testing.T) {
	// The degree distribution should be heavy-tailed: the busiest 10% of
	// users should own well more than 10% of edges.
	p := Profile{Name: "skewtest", Users: 2000, Items: 5000, Edges: 30000,
		UserSkew: 1.6, ItemSkew: 1.3}
	edges := Bipartite(p, 3)
	deg := make(map[stream.User]int)
	for _, e := range edges {
		deg[e.User]++
	}
	counts := make([]int, 0, len(deg))
	for _, d := range deg {
		counts = append(counts, d)
	}
	// Selection-free check: mass of users with degree > 3x mean.
	mean := float64(len(edges)) / float64(len(counts))
	heavy := 0
	for _, d := range counts {
		if float64(d) > 3*mean {
			heavy += d
		}
	}
	frac := float64(heavy) / float64(len(edges))
	if frac < 0.05 {
		t.Errorf("heavy users own %.1f%% of edges; distribution not skewed", frac*100)
	}
}

func TestBipartiteTinyUniverse(t *testing.T) {
	// Degree forced to saturate the item universe: must still terminate
	// and produce a feasible graph.
	p := Profile{Name: "sat", Users: 10, Items: 5, Edges: 50,
		UserSkew: 1.5, ItemSkew: 1.2}
	edges := Bipartite(p, 1)
	if err := stream.Validate(edges); err != nil {
		t.Fatal(err)
	}
	if len(edges) != 50 {
		t.Errorf("complete graph should have 50 edges, got %d", len(edges))
	}
}

func TestDynamizeFeasibleAndDeletes(t *testing.T) {
	base := Bipartite(tinyProfile(), 2)
	cfg := DynamizeConfig{EventProb: 0.002, DeleteFrac: 0.5, Reinsert: false, Seed: 3}
	out := Dynamize(base, cfg)
	if err := stream.Validate(out); err != nil {
		t.Fatalf("dynamized stream infeasible: %v", err)
	}
	st := stream.NewStats()
	for _, e := range out {
		st.Observe(e)
	}
	if st.Deletes == 0 {
		t.Error("no deletions generated at q=0.002 over 5000 edges")
	}
	if st.Inserts != uint64(len(base)) {
		t.Errorf("inserts %d != base %d without reinsertion", st.Inserts, len(base))
	}
}

func TestDynamizeReinsertRestoresGraph(t *testing.T) {
	base := Bipartite(tinyProfile(), 2)
	cfg := DynamizeConfig{EventProb: 0.001, DeleteFrac: 0.5, Reinsert: true, Seed: 3}
	out := Dynamize(base, cfg)
	if err := stream.Validate(out); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	// Final live set must equal the base edge set.
	live := make(map[edgeKey]struct{})
	for _, e := range out {
		k := edgeKey{e.User, e.Item}
		if e.Op == stream.Insert {
			live[k] = struct{}{}
		} else {
			delete(live, k)
		}
	}
	if len(live) != len(base) {
		t.Fatalf("final graph has %d edges, base %d", len(live), len(base))
	}
	for _, e := range base {
		if _, ok := live[edgeKey{e.User, e.Item}]; !ok {
			t.Fatalf("edge %s lost", e)
		}
	}
}

func TestDynamizeZeroProbIsIdentity(t *testing.T) {
	base := Bipartite(tinyProfile(), 9)
	out := Dynamize(base, DynamizeConfig{EventProb: 0, DeleteFrac: 0.5, Seed: 1})
	if len(out) != len(base) {
		t.Fatalf("q=0 changed length: %d vs %d", len(out), len(base))
	}
	for i := range base {
		if out[i] != base[i] {
			t.Fatalf("q=0 reordered the stream at %d", i)
		}
	}
}

func TestDynamizeRejectsBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"delete in base": func() {
			Dynamize([]stream.Edge{{User: 1, Item: 1, Op: stream.Delete}},
				DynamizeConfig{EventProb: 0.1, DeleteFrac: 0.5})
		},
		"bad q": func() {
			Dynamize(nil, DynamizeConfig{EventProb: 2, DeleteFrac: 0.5})
		},
		"bad d": func() {
			Dynamize(nil, DynamizeConfig{EventProb: 0.1, DeleteFrac: -1})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPaperDynamizeParameters(t *testing.T) {
	cfg := PaperDynamize(3_000_000, 1)
	if cfg.DeleteFrac != 0.5 {
		t.Errorf("d = %v, want 0.5", cfg.DeleteFrac)
	}
	if cfg.EventProb <= 0 || cfg.EventProb > 0.01 {
		t.Errorf("q = %v out of expected range", cfg.EventProb)
	}
	if cfg.Reinsert {
		t.Error("paper model should not reinsert")
	}
	// Expected events = q * base ≈ 3.
	if ev := cfg.EventProb * 3_000_000; ev < 2.5 || ev > 3.5 {
		t.Errorf("expected events %v, want ~3", ev)
	}
}

func TestPlantedPair(t *testing.T) {
	edges := PlantedPair(1, 2, 100, 80, 30, 5)
	if err := stream.Validate(edges); err != nil {
		t.Fatal(err)
	}
	setA := make(map[stream.Item]struct{})
	setB := make(map[stream.Item]struct{})
	for _, e := range edges {
		switch e.User {
		case 1:
			setA[e.Item] = struct{}{}
		case 2:
			setB[e.Item] = struct{}{}
		default:
			t.Fatalf("unexpected user %d", e.User)
		}
	}
	if len(setA) != 100 || len(setB) != 80 {
		t.Fatalf("sizes %d/%d", len(setA), len(setB))
	}
	common := 0
	for it := range setA {
		if _, ok := setB[it]; ok {
			common++
		}
	}
	if common != 30 {
		t.Errorf("common = %d, want 30", common)
	}
}

func TestPlantedPairPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("impossible overlap should panic")
		}
	}()
	PlantedPair(1, 2, 5, 5, 6, 1)
}

func TestPlantedJaccard(t *testing.T) {
	for _, j := range []float64{0, 0.1, 0.5, 0.9, 1} {
		c := PlantedJaccard(1000, j)
		if c < 0 || c > 1000 {
			t.Fatalf("common %d out of range", c)
		}
		got := float64(c) / float64(2000-c)
		if diff := got - j; diff > 0.002 || diff < -0.002 {
			t.Errorf("J target %v realised %v", j, got)
		}
	}
}

func TestEdgeSetSampleAll(t *testing.T) {
	s := newEdgeSet(4)
	s.add(1, 1)
	s.add(1, 2)
	s.add(2, 1)
	s.remove(1, 1)
	s.remove(9, 9) // absent: no-op
	if len(s.list) != 2 {
		t.Fatalf("size = %d", len(s.list))
	}
	victims := s.sample(randSource(1), 1)
	if len(victims) != 2 {
		t.Errorf("frac=1 sampled %d of 2", len(victims))
	}
	if got := s.sample(randSource(1), 0); got != nil {
		t.Errorf("frac=0 sampled %d", len(got))
	}
}
