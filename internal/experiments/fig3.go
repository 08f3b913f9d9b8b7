package experiments

import (
	"fmt"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/similarity"
)

// Figure 3 measures estimation accuracy under the paper's §V protocol:
// all methods share the memory budget m = 32·K32·|U| bits (VOS with
// λ = Lambda), the workload is the dynamized dataset stream, the tracked
// pairs are those among the TopUsers highest-cardinality users sharing at
// least minCommon items, AAPE scores the common-item estimates ŝ and
// ARMSE the Jaccard estimates Ĵ.
//
// Panels: (a) AAPE over time on YouTube, (b) final AAPE on all datasets,
// (c) ARMSE over time on YouTube, (d) final ARMSE on all datasets.

// AccuracyResult holds one dataset's accuracy trajectories for every
// method, plus the workload provenance the tables report.
type AccuracyResult struct {
	Dataset      string
	Elements     int
	Deletes      int
	Pairs        int
	MedianCommon int
	// T is the stream position of each checkpoint; AAPE and ARMSE hold one
	// value a checkpoint for every method of similarity.Methods.
	T           []uint64
	AAPE, ARMSE map[string][]float64
}

// Final returns every method's AAPE and ARMSE at the end of the stream.
func (r *AccuracyResult) Final() (aape, armse map[string]float64) {
	aape, armse = map[string]float64{}, map[string]float64{}
	for _, m := range similarity.Methods {
		aape[m] = r.AAPE[m][len(r.T)-1]
		armse[m] = r.ARMSE[m][len(r.T)-1]
	}
	return aape, armse
}

// RunAccuracy executes the §V accuracy protocol on one dataset profile.
func RunAccuracy(p gen.Profile, opts Options) (*AccuracyResult, error) {
	opts = opts.normalized()
	ds := BuildDataset(p, opts)
	pairs, median, err := TrackedPairs(ds, opts)
	if err != nil {
		return nil, err
	}
	ests, err := similarity.NewAll(opts.budget(ds.Profile), uint64(opts.Seed))
	if err != nil {
		return nil, err
	}
	// opts.Checkpoints evenly spaced positions, and the end of the stream
	// when it is not one of them.
	every := max(len(ds.Edges)/opts.Checkpoints, 1)
	var at []int
	for t := every; t <= len(ds.Edges); t += every {
		at = append(at, t)
	}
	if len(ds.Edges)%every != 0 {
		at = append(at, len(ds.Edges))
	}
	checkpoints, err := measure(ds.Edges, ests, pairs, at)
	if err != nil {
		return nil, err
	}

	res := &AccuracyResult{
		Dataset:      ds.Profile.Name,
		Elements:     len(ds.Edges),
		Deletes:      ds.Deletes,
		Pairs:        len(pairs),
		MedianCommon: median,
		AAPE:         map[string][]float64{},
		ARMSE:        map[string][]float64{},
	}
	for _, c := range checkpoints {
		res.T = append(res.T, c.T)
		for m, est := range ests {
			res.AAPE[est.Name()] = append(res.AAPE[est.Name()], AAPE(c.TruthS, c.EstS[m]))
			res.ARMSE[est.Name()] = append(res.ARMSE[est.Name()], ARMSE(c.TruthJ, c.EstJ[m]))
		}
	}
	return res, nil
}

func (r *AccuracyResult) annotate(t *Table, opts Options) {
	t.AddNote("dataset %s: %d elements (%d deletions), %d tracked pairs (median s = %d)",
		r.Dataset, r.Elements, r.Deletes, r.Pairs, r.MedianCommon)
	t.AddNote("memory-equalised: m = 32·%d·|U| bits for every method; VOS λ = %d; seed %d",
		opts.K32, opts.Lambda, opts.Seed)
}

// seriesTable renders one metric's trajectories as a t-by-method table.
func seriesTable(id, title string, series map[string][]float64, r *AccuracyResult, opts Options) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: append([]string{"t"}, similarity.Methods...),
	}
	r.annotate(t, opts)
	for i, at := range r.T {
		row := []string{fmt.Sprintf("%d", at)}
		for _, m := range similarity.Methods {
			row = append(row, fmt.Sprintf("%.4f", series[m][i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig3TimeSeries regenerates Figures 3(a) and 3(c): AAPE and ARMSE over
// stream time on the YouTube dataset.
func Fig3TimeSeries(opts Options) (aape, armse *Table, err error) {
	opts = opts.normalized()
	r, err := RunAccuracy(opts.profile(), opts)
	if err != nil {
		return nil, nil, err
	}
	aape = seriesTable("fig3a", fmt.Sprintf("AAPE of ŝ over time (%s, k = %d)", opts.Dataset, opts.K32),
		r.AAPE, r, opts)
	armse = seriesTable("fig3c", fmt.Sprintf("ARMSE of Ĵ over time (%s, k = %d)", opts.Dataset, opts.K32),
		r.ARMSE, r, opts)
	return aape, armse, nil
}

// Fig3Final regenerates Figures 3(b) and 3(d): final-time AAPE and ARMSE
// on all four datasets.
func Fig3Final(opts Options) (aape, armse *Table, err error) {
	opts = opts.normalized()
	aape = &Table{
		ID:     "fig3b",
		Title:  fmt.Sprintf("Final AAPE of ŝ on all datasets (k = %d)", opts.K32),
		Header: append([]string{"dataset"}, similarity.Methods...),
	}
	armse = &Table{
		ID:     "fig3d",
		Title:  fmt.Sprintf("Final ARMSE of Ĵ on all datasets (k = %d)", opts.K32),
		Header: append([]string{"dataset"}, similarity.Methods...),
	}
	for _, p := range gen.Profiles {
		r, err := RunAccuracy(p, opts)
		if err != nil {
			return nil, nil, err
		}
		r.annotate(aape, opts)
		r.annotate(armse, opts)
		finalA, finalR := r.Final()
		rowA := []string{p.Name}
		rowR := []string{p.Name}
		for _, m := range similarity.Methods {
			rowA = append(rowA, fmt.Sprintf("%.4f", finalA[m]))
			rowR = append(rowR, fmt.Sprintf("%.4f", finalR[m]))
		}
		aape.AddRow(rowA...)
		armse.AddRow(rowR...)
	}
	return aape, armse, nil
}
