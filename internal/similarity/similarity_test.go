package similarity

import (
	"math"
	"testing"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/stream"
)

func testBudget() Budget {
	return Budget{K32: 50, Users: 500, Lambda: 2}
}

func TestBudgetMath(t *testing.T) {
	b := Budget{K32: 100, Users: 5000, Lambda: 2}
	if b.TotalBits() != 32*100*5000 {
		t.Errorf("TotalBits = %d", b.TotalBits())
	}
	if b.VOSSketchBits() != 6400 {
		t.Errorf("VOSSketchBits = %d", b.VOSSketchBits())
	}
}

func TestNewAllMethods(t *testing.T) {
	for _, m := range append([]string{MethodExact}, Methods...) {
		e, err := New(m, testBudget(), 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if e.Name() != m {
			t.Errorf("Name() = %q, want %q", e.Name(), m)
		}
	}
	// Case-insensitive lookup.
	if _, err := New("vos", testBudget(), 1); err != nil {
		t.Errorf("lowercase lookup failed: %v", err)
	}
	if _, err := New("bogus", testBudget(), 1); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := New(MethodVOS, Budget{}, 1); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad method")
		}
	}()
	MustNew("bogus", testBudget(), 1)
}

func TestNewAllOrder(t *testing.T) {
	ests, err := NewAll(testBudget(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 4 {
		t.Fatalf("NewAll returned %d estimators", len(ests))
	}
	for i, m := range Methods {
		if ests[i].Name() != m {
			t.Errorf("position %d: %s, want %s", i, ests[i].Name(), m)
		}
	}
}

func TestAllMethodsTrackCardinality(t *testing.T) {
	edges := gen.PlantedPair(1, 2, 40, 30, 10, 3)
	ests, _ := NewAll(testBudget(), 7)
	ests = append(ests, Estimator(NewExact()))
	for _, est := range ests {
		for _, e := range edges {
			est.Process(e)
		}
		if est.Cardinality(1) != 40 || est.Cardinality(2) != 30 {
			t.Errorf("%s: cardinalities %d/%d", est.Name(), est.Cardinality(1), est.Cardinality(2))
		}
	}
}

func TestAllMethodsRoughAccuracyStatic(t *testing.T) {
	// Insertion-only regime: every method should land in the right
	// neighbourhood (RP gets wide tolerance: its variance at K32=50 is
	// large by design).
	const size, common = 200, 100
	trueJ := float64(common) / float64(2*size-common)
	edges := gen.PlantedPair(1, 2, size, size, common, 5)

	b := Budget{K32: 200, Users: 100, Lambda: 2}
	type tolerance struct{ s, j float64 }
	tol := map[string]tolerance{
		MethodVOS:     {s: 30, j: 0.10},
		MethodMinHash: {s: 30, j: 0.10},
		MethodOPH:     {s: 30, j: 0.10},
		MethodRP:      {s: 90, j: 0.30},
	}
	sums := map[string]float64{}
	sumj := map[string]float64{}
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		ests, err := NewAll(b, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for _, est := range ests {
			for _, e := range edges {
				est.Process(e)
			}
			sums[est.Name()] += est.EstimateCommonItems(1, 2)
			sumj[est.Name()] += est.EstimateJaccard(1, 2)
		}
	}
	for name, tl := range tol {
		avgS := sums[name] / trials
		avgJ := sumj[name] / trials
		if math.Abs(avgS-common) > tl.s {
			t.Errorf("%s: mean ŝ = %.1f, want %d ± %.0f", name, avgS, common, tl.s)
		}
		if math.Abs(avgJ-trueJ) > tl.j {
			t.Errorf("%s: mean Ĵ = %.3f, want %.3f ± %.2f", name, avgJ, trueJ, tl.j)
		}
	}
}

// BenchmarkProcessK100 times one insert into each §III baseline at k = 100,
// the users cycling over 1,000.
func BenchmarkProcessK100(b *testing.B) {
	for _, m := range []string{MethodMinHash, MethodOPH, MethodRP} {
		b.Run(m, func(b *testing.B) {
			s := MustNew(m, Budget{K32: 100, Users: 1000, Lambda: 2}, 1)
			for i := 0; i < b.N; i++ {
				s.Process(stream.Edge{User: stream.User(i % 1000), Item: stream.Item(i), Op: stream.Insert})
			}
		})
	}
}

func TestExactOracle(t *testing.T) {
	x := NewExact()
	for _, e := range gen.PlantedPair(1, 2, 30, 20, 10, 9) {
		x.Process(e)
	}
	if x.EstimateCommonItems(1, 2) != 10 {
		t.Errorf("exact common = %v", x.EstimateCommonItems(1, 2))
	}
	wantJ := 10.0 / 40.0
	if x.EstimateJaccard(1, 2) != wantJ {
		t.Errorf("exact J = %v", x.EstimateJaccard(1, 2))
	}
	if x.Cardinality(1) != 30 {
		t.Errorf("exact n = %d", x.Cardinality(1))
	}
}

func TestTopSimilar(t *testing.T) {
	x := NewExact()
	// u=1 shares 3 items with 2, 1 item with 3, 0 with 4.
	add := func(u stream.User, items ...stream.Item) {
		for _, it := range items {
			x.Process(stream.Edge{User: u, Item: it, Op: stream.Insert})
		}
	}
	add(1, 10, 11, 12, 13)
	add(2, 10, 11, 12)
	add(3, 13, 99)
	add(4, 77)
	got := TopSimilar(x, 1, []stream.User{1, 2, 3, 4}, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("TopSimilar = %v", got)
	}
	if all := TopSimilar(x, 1, []stream.User{2, 3, 4}, 10); len(all) != 3 {
		t.Errorf("over-ask returned %d", len(all))
	}
}

func TestTopSimilarBatchPathMatchesLoop(t *testing.T) {
	// TopSimilar ranks a VOS adapter through the sketch's native top-K; the
	// result must equal the generic per-pair path.
	b := Budget{K32: 100, Users: 50, Lambda: 2}
	est := MustNew(MethodVOS, b, 3)
	for _, e := range gen.PlantedPair(1, 2, 100, 100, 60, 4) {
		est.Process(e)
	}
	for u := stream.User(3); u < 20; u++ {
		for i := 0; i < 40; i++ {
			est.Process(stream.Edge{
				User: u,
				Item: stream.Item(uint64(u)*100000 + uint64(i)),
				Op:   stream.Insert,
			})
		}
	}
	candidates := make([]stream.User, 0, 20)
	for u := stream.User(1); u < 20; u++ {
		candidates = append(candidates, u)
	}

	if _, ok := est.(vosAdapter); !ok {
		t.Fatal("New(MethodVOS) should build the VOS adapter")
	}
	gotBatch := TopSimilar(est, 1, candidates, 5)

	// Force the generic path through a wrapper that hides the adapter.
	generic := plainEstimator{est}
	gotLoop := TopSimilar(generic, 1, candidates, 5)

	if len(gotBatch) != len(gotLoop) {
		t.Fatalf("lengths differ: %d vs %d", len(gotBatch), len(gotLoop))
	}
	for i := range gotBatch {
		if gotBatch[i] != gotLoop[i] {
			t.Errorf("rank %d: batch %d, loop %d", i, gotBatch[i], gotLoop[i])
		}
	}
	if gotBatch[0] != 2 {
		t.Errorf("top similar = %d, want 2", gotBatch[0])
	}
}

// plainEstimator hides the concrete type of the wrapped estimator.
type plainEstimator struct{ e Estimator }

func (p plainEstimator) Name() string          { return p.e.Name() }
func (p plainEstimator) Process(e stream.Edge) { p.e.Process(e) }
func (p plainEstimator) EstimateCommonItems(u, v stream.User) float64 {
	return p.e.EstimateCommonItems(u, v)
}
func (p plainEstimator) EstimateJaccard(u, v stream.User) float64 {
	return p.e.EstimateJaccard(u, v)
}
func (p plainEstimator) Cardinality(u stream.User) int64 { return p.e.Cardinality(u) }
