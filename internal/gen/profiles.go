// Package gen generates the workloads of the paper's evaluation: synthetic
// bipartite subscription graphs whose shape follows the four Mislove et al.
// (IMC'07) online social networks, and the Trièst-style (KDD'16) fully
// dynamic stream transformation with mass-deletion events.
//
// Substitution note (see README.md, "Reproducing the paper"): the original datasets are crawls of
// YouTube, Flickr, Orkut and LiveJournal. They are not redistributable here,
// so each is replaced by a generated graph that preserves the published
// shape — relative user counts, average degree, and a heavy-tailed degree
// distribution — at a configurable scale. Every competing method consumes
// only the resulting edge sequence, so relative accuracy and runtime, which
// is what the paper's figures compare, carry over.
package gen

import "fmt"

// Profile describes a dataset's shape: its size at paper scale and the
// skew of its degree distributions. Scaled shrinks it for laptop runs.
type Profile struct {
	// Name of the original dataset.
	Name string
	// Users and Items are the node counts at full (paper) scale. The
	// Mislove graphs are social follow graphs; the paper treats the
	// followed side as items, so Items ≈ Users.
	Users, Items uint64
	// Edges is the full-scale subscription count.
	Edges uint64
	// UserSkew is the Zipf exponent of the user degree distribution
	// (Mislove et al. report out-degree power-law coefficients ~1.5-2).
	UserSkew float64
	// ItemSkew is the Zipf exponent of item popularity; heavier skew
	// means top items are shared by more users, raising pair overlap.
	ItemSkew float64
}

// The four profiles of the paper's §V at published full scale
// (node/edge counts from Mislove et al., IMC'07, rounded).
var (
	YouTube = Profile{
		Name: "YouTube", Users: 1_157_827, Items: 1_157_827,
		Edges: 4_945_382, UserSkew: 1.63, ItemSkew: 1.30,
	}
	Flickr = Profile{
		Name: "Flickr", Users: 1_846_198, Items: 1_846_198,
		Edges: 22_613_981, UserSkew: 1.74, ItemSkew: 1.35,
	}
	Orkut = Profile{
		Name: "Orkut", Users: 3_072_441, Items: 3_072_441,
		Edges: 223_534_301, UserSkew: 1.50, ItemSkew: 1.30,
	}
	LiveJournal = Profile{
		Name: "LiveJournal", Users: 5_284_457, Items: 5_284_457,
		Edges: 77_402_652, UserSkew: 1.59, ItemSkew: 1.32,
	}
)

// Profiles lists the four datasets in the order the paper plots them.
var Profiles = []Profile{YouTube, Flickr, Orkut, LiveJournal}

// ProfileByName returns the profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("gen: unknown dataset profile %q", name)
}

// Scaled returns a copy of the profile shrunk by factor f (0 < f <= 1):
// node counts scale by f and edge counts by f as well, preserving average
// degree. Skews are unchanged. Counts are floored at small minimums so even
// extreme scales remain usable.
func (p Profile) Scaled(f float64) Profile {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("gen: scale factor %v out of (0, 1]", f))
	}
	s := p
	s.Users = max(uint64(float64(p.Users)*f), 100)
	s.Items = max(uint64(float64(p.Items)*f), 100)
	s.Edges = max(uint64(float64(p.Edges)*f), 1000)
	// Average degree cannot exceed the item universe.
	s.Edges = min(s.Edges, s.Users*s.Items)
	return s
}

// AvgDegree returns Edges/Users, the mean subscriptions per user.
func (p Profile) AvgDegree() float64 {
	return float64(p.Edges) / float64(p.Users)
}

func (p Profile) String() string {
	return fmt.Sprintf("%s{|U|=%d |I|=%d |E|=%d deg=%.1f}",
		p.Name, p.Users, p.Items, p.Edges, p.AvgDegree())
}
