package vos_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/vossketch/vos"
)

// Similar-user suggestions over a follow graph with unfollows: 2,000 users
// in 40 interest communities follow 120 channels each (80 % from their
// community's pool, the rest from a Zipf celebrity tail), then each undoes
// a random fifth. TopSimilar over a VOS estimator serves the suggestions,
// which are audited against the planted communities and the exact top 5.
func Example_socialNetwork() {
	const (
		communities, perComm = 40, 50
		users                = communities * perComm
		pool, tail           = 150, 20_000
		follows, topK        = 120, 5
		audits               = 6
	)
	rng := rand.New(rand.NewSource(7))
	sketch := vos.MustNewEstimator(vos.MethodVOS, vos.Budget{K32: 100, Users: users, Lambda: 2}, 1)
	truth := vos.NewExact()
	apply := func(u int, ch vos.Item, op vos.Op) {
		e := vos.Edge{User: vos.User(u), Item: ch, Op: op}
		sketch.Process(e)
		truth.Process(e)
	}
	celebrity := rand.NewZipf(rng, 1.5, 8, tail-1)

	inserts, deletes := 0, 0
	for u := 0; u < users; u++ {
		seen := make(map[vos.Item]bool, follows)
		list := make([]vos.Item, 0, follows)
		for len(list) < follows {
			var ch vos.Item
			if rng.Float64() < 0.8 {
				ch = vos.Item(u/perComm*pool + rng.Intn(pool))
			} else {
				ch = vos.Item(communities*pool) + vos.Item(celebrity.Uint64())
			}
			if !seen[ch] {
				seen[ch] = true
				list = append(list, ch)
				apply(u, ch, vos.Insert)
				inserts++
			}
		}
		for _, i := range rng.Perm(len(list))[:len(list)/5] {
			apply(u, list[i], vos.Delete)
			deletes++
		}
	}
	fmt.Printf("%d users in %d communities: %d follows, %d unfollows\n", users, communities, inserts, deletes)

	candidates := make([]vos.User, users)
	for u := range candidates {
		candidates[u] = vos.User(u)
	}
	sameTotal, agreeTotal := 0, 0
	for a := 0; a < audits; a++ {
		u := vos.User(rng.Intn(users))
		got := vos.TopSimilar(sketch, u, candidates, topK)
		want := vos.TopSimilar(truth, u, candidates, topK)
		same, agree := 0, 0
		for _, g := range got {
			if int(g)/perComm == int(u)/perComm {
				same++
			}
			for _, w := range want {
				if g == w {
					agree++
				}
			}
		}
		fmt.Printf("user %4d (community %2d, %d follows): %d/%d suggestions from its community, %d/%d in the exact top %d\n",
			u, int(u)/perComm, truth.Cardinality(u), same, topK, agree, topK, topK)
		sameTotal += same
		agreeTotal += agree
	}
	fmt.Printf("community precision %d/%d, exact top-%d agreement %d/%d\n", sameTotal, audits*topK, topK, agreeTotal, audits*topK)
	// Output:
	// 2000 users in 40 communities: 240000 follows, 48000 unfollows
	// user 1685 (community 33, 96 follows): 5/5 suggestions from its community, 1/5 in the exact top 5
	// user  463 (community  9, 96 follows): 5/5 suggestions from its community, 2/5 in the exact top 5
	// user  358 (community  7, 96 follows): 5/5 suggestions from its community, 2/5 in the exact top 5
	// user 1277 (community 25, 96 follows): 5/5 suggestions from its community, 1/5 in the exact top 5
	// user  638 (community 12, 96 follows): 5/5 suggestions from its community, 1/5 in the exact top 5
	// user 1017 (community 20, 96 follows): 5/5 suggestions from its community, 1/5 in the exact top 5
	// community precision 30/30, exact top-5 agreement 8/30
}

// User-based collaborative filtering: 1,500 viewers with two favourite
// genres each watch 60 of 4,800 movies (75 % within their genres), then
// un-watch half of their out-of-taste picks. A viewer's 20 most similar
// viewers by estimated Jaccard vote, weighted by that estimate, for the
// movies the viewer has not seen; the top 8 are audited against the
// viewer's genres and the random baseline.
func Example_collaborativeFiltering() {
	const (
		genres, perGenre = 12, 400
		viewers, watches = 1500, 60
		neighbours, recs = 20, 8
		audits           = 4
	)
	rng := rand.New(rand.NewSource(21))
	sketch := vos.MustNewEstimator(vos.MethodVOS, vos.Budget{K32: 100, Users: viewers, Lambda: 2}, 5)
	genreOf := func(m vos.Item) int { return int(m) / perGenre }

	// watched[u] is the viewer's history, which a real service keeps in its
	// database; only the similarity tier is sketched.
	watched := make([][]vos.Item, viewers)
	tastes := make([][2]int, viewers)
	inserts, deletes := 0, 0
	for u := range watched {
		g1 := rng.Intn(genres)
		tastes[u] = [2]int{g1, (g1 + 1 + rng.Intn(genres-1)) % genres}
		seen := make(map[vos.Item]bool, watches)
		for len(watched[u]) < watches {
			var m vos.Item
			if rng.Float64() < 0.75 {
				m = vos.Item(tastes[u][rng.Intn(2)]*perGenre + rng.Intn(perGenre))
			} else {
				m = vos.Item(rng.Intn(genres)*perGenre + rng.Intn(perGenre))
			}
			if !seen[m] {
				seen[m] = true
				watched[u] = append(watched[u], m)
				sketch.Process(vos.Edge{User: vos.User(u), Item: m, Op: vos.Insert})
				inserts++
			}
		}
		kept := watched[u][:0]
		for _, m := range watched[u] {
			if g := genreOf(m); g != tastes[u][0] && g != tastes[u][1] && rng.Float64() < 0.5 {
				sketch.Process(vos.Edge{User: vos.User(u), Item: m, Op: vos.Delete})
				deletes++
				continue
			}
			kept = append(kept, m)
		}
		watched[u] = kept
	}
	fmt.Printf("%d viewers: %d watches, %d un-watches\n", viewers, inserts, deletes)

	everyone := make([]vos.User, viewers)
	for u := range everyone {
		everyone[u] = vos.User(u)
	}
	hitsTotal := 0
	for a := 0; a < audits; a++ {
		u := vos.User(rng.Intn(viewers))
		seen := make(map[vos.Item]bool, len(watched[u]))
		for _, m := range watched[u] {
			seen[m] = true
		}
		score := make(map[vos.Item]float64)
		for _, nb := range vos.TopSimilar(sketch, u, everyone, neighbours) {
			if w := sketch.EstimateJaccard(u, nb); w > 0 {
				for _, m := range watched[nb] {
					if !seen[m] {
						score[m] += w
					}
				}
			}
		}
		movies := make([]vos.Item, 0, len(score))
		for m := range score {
			movies = append(movies, m)
		}
		sort.Slice(movies, func(i, j int) bool {
			if score[movies[i]] != score[movies[j]] {
				return score[movies[i]] > score[movies[j]]
			}
			return movies[i] < movies[j]
		})
		hits := 0
		for _, m := range movies[:recs] {
			if g := genreOf(m); g == tastes[u][0] || g == tastes[u][1] {
				hits++
			}
		}
		fmt.Printf("viewer %4d (genres %2d and %2d): %d/%d recommendations in its genres\n",
			u, tastes[u][0], tastes[u][1], hits, recs)
		hitsTotal += hits
	}
	fmt.Printf("genre hits %d/%d, random baseline %.1f\n", hitsTotal, audits*recs, float64(audits*recs)*2/genres)
	// Output:
	// 1500 viewers: 90000 watches, 9616 un-watches
	// viewer  836 (genres  9 and  7): 1/8 recommendations in its genres
	// viewer  512 (genres  2 and  7): 6/8 recommendations in its genres
	// viewer 1142 (genres  8 and  2): 7/8 recommendations in its genres
	// viewer   51 (genres  3 and 11): 4/8 recommendations in its genres
	// genre hits 18/32, random baseline 5.3
}

// Near-duplicate documents over an edited corpus: each document is a user
// and its three-word shingles are its items, so an edit deletes the old
// shingles and inserts the new ones. A lightly reworded copy is flagged
// (estimated Jaccard ≥ 0.5) until a rewrite pushes it below the threshold.
func Example_nearDuplicates() {
	sketch := vos.MustNew(vos.Config{MemoryBits: 1 << 22, SketchBits: 4096, Seed: 11})
	shingles := make(map[string]map[vos.Item]bool)
	var names []string

	upsert := func(name, text string) {
		words := strings.Fields(text)
		next := make(map[vos.Item]bool)
		for i := 0; i+3 <= len(words); i++ {
			next[vos.ItemFromString(strings.Join(words[i:i+3], " "))] = true
		}
		prev, ok := shingles[name]
		if !ok {
			names = append(names, name)
		}
		id := vos.UserFromString(name)
		added, removed := 0, 0
		for sh := range prev {
			if !next[sh] {
				sketch.Process(vos.Edge{User: id, Item: sh, Op: vos.Delete})
				removed++
			}
		}
		for sh := range next {
			if !prev[sh] {
				sketch.Process(vos.Edge{User: id, Item: sh, Op: vos.Insert})
				added++
			}
		}
		shingles[name] = next
		fmt.Printf("%-16s +%d/-%d shingles\n", name, added, removed)
	}
	nearDuplicates := func() {
		found := false
		for i, a := range names {
			for _, b := range names[i+1:] {
				if est := sketch.Query(vos.UserFromString(a), vos.UserFromString(b)); est.Jaccard >= 0.5 {
					fmt.Printf("  near-duplicates: %s ~ %s (Ĵ = %.2f)\n", a, b, est.Jaccard)
					found = true
				}
			}
		}
		if !found {
			fmt.Println("  near-duplicates: none")
		}
	}

	base := strings.Repeat("the quick brown fox jumps over the lazy dog while the cat watches from the warm windowsill and the birds sing in the garden as morning light fills the quiet street ", 6)
	copied := strings.ReplaceAll(base, "quick brown fox", "swift brown fox")
	upsert("press-release", base)
	upsert("syndicated-copy", copied)
	upsert("quarterly-report", strings.Repeat("revenue grew in the third quarter driven by subscriptions and the services segment while operating costs held flat across all regions and guidance for the next year remains unchanged pending market review ", 6))
	nearDuplicates()

	rewritten := strings.ReplaceAll(copied, "the lazy dog while the cat watches", "a sleeping hound as three cats stare")
	upsert("syndicated-copy", strings.ReplaceAll(rewritten, "morning light fills the quiet street", "evening shadows cross the busy avenue"))
	nearDuplicates()
	est := sketch.Query(vos.UserFromString("press-release"), vos.UserFromString("syndicated-copy"))
	fmt.Printf("press-release vs syndicated-copy after the rewrite: Ĵ = %.2f\n", est.Jaccard)
	// Output:
	// press-release    +31/-0 shingles
	// syndicated-copy  +31/-0 shingles
	// quarterly-report +32/-0 shingles
	//   near-duplicates: press-release ~ syndicated-copy (Ĵ = 0.83)
	// syndicated-copy  +17/-17 shingles
	//   near-duplicates: none
	// press-release vs syndicated-copy after the rewrite: Ĵ = 0.24
}
