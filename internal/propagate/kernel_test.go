package propagate

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"crowdrank/internal/graph"
)

// listWalkSums is the adjacency-list formulation of walkSums, kept as the
// reference the CSR kernel must reproduce bit for bit: for each nonzero
// cur[i][k] it walks g.Out(k), looks each weight up in direct, and skips
// the target j == i term by term.
func listWalkSums(g *graph.PreferenceGraph, direct [][]float64, hops int, prune float64) ([][]float64, int) {
	n := g.N()
	indirect := newMatrix(n)
	if hops < 2 {
		return indirect, 0
	}
	cur := newMatrix(n)
	for i := 0; i < n; i++ {
		copy(cur[i], direct[i])
	}
	next := newMatrix(n)
	for h := 2; h <= hops; h++ {
		for i := 0; i < n; i++ {
			row := next[i]
			for j := range row {
				row[j] = 0
			}
			curRow := cur[i]
			for k := 0; k < n; k++ {
				w := curRow[k]
				if w <= prune || k == i {
					continue
				}
				for _, j := range g.Out(k) {
					if j == i {
						continue
					}
					row[j] += w * direct[k][j]
				}
			}
			for j := 0; j < n; j++ {
				indirect[i][j] += row[j]
			}
		}
		cur, next = next, cur
	}
	pairs := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && indirect[i][j] > 0 {
				pairs++
			}
		}
	}
	return indirect, pairs
}

// kernelTestGraph builds a seeded random preference graph shaped like a
// smoothed one: most compared pairs carry both directions (w and 1-w),
// some only one (unanimous 1-edges), and edges are inserted in a shuffled
// order so g.Out lists are not sorted. Vertex 0 is isolated, vertex 1 has
// only incoming edges and vertex 2 only outgoing ones.
func kernelTestGraph(t *testing.T, n int, density float64, seed uint64) *graph.PreferenceGraph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x6b65726e))
	g, err := graph.NewPreferenceGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []graph.Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, graph.Pair{I: i, J: j})
		}
	}
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	set := func(i, j int, w float64) {
		if err := g.SetWeight(i, j, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pairs {
		if p.I == 0 || rng.Float64() >= density {
			continue
		}
		i, j := p.I, p.J
		if rng.IntN(2) == 0 {
			i, j = j, i
		}
		w := 0.05 + 0.9*rng.Float64()
		switch {
		case i == 1 || j == 2:
			set(j, i, w) // 1 only receives, 2 only sends
		case j == 1 || i == 2:
			set(i, j, w)
		case rng.IntN(5) == 0:
			set(i, j, 1) // a one-directional edge
		default:
			set(i, j, w)
			set(j, i, 1-w)
		}
	}
	if len(g.Out(0))+len(g.In(0)) != 0 || len(g.Out(1)) != 0 || len(g.In(2)) != 0 {
		t.Fatalf("vertex roles not honored: out(0)=%v in(0)=%v out(1)=%v in(2)=%v",
			g.Out(0), g.In(0), g.Out(1), g.In(2))
	}
	return g
}

// TestClosureBitIdenticalToListWalk pins Step 3's output: the CSR kernel
// must give every closure weight and every Stats field exactly as the
// adjacency-list reference does, across the sequential cutoff, the
// parallel path, pruning and hop bounds.
func TestClosureBitIdenticalToListWalk(t *testing.T) {
	for _, n := range []int{24, 90} { // either side of the n < 64 sequential cutoff
		for trial := 0; trial < 3; trial++ {
			g := kernelTestGraph(t, n, 0.25, uint64(100*n+trial))
			direct := g.WeightsMatrix()
			for hops := 1; hops <= 4; hops++ {
				for _, prune := range []float64{0, 0.05} {
					p := DefaultParams()
					p.MaxHops = hops
					p.PruneEpsilon = prune
					refInd, refPairs := listWalkSums(g, direct, hops, prune)
					want, wantStats, err := blend(direct, refInd, Stats{IndirectPairs: refPairs, HopsUsed: hops}, p)
					if err != nil {
						t.Fatal(err)
					}
					for _, par := range []int{0, 4} {
						p.Parallelism = par
						name := fmt.Sprintf("n=%d trial=%d hops=%d prune=%v par=%d", n, trial, hops, prune, par)
						got, gotStats, err := Closure(g, p)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if gotStats != wantStats {
							t.Fatalf("%s: stats %+v, reference %+v", name, gotStats, wantStats)
						}
						for i := 0; i < n; i++ {
							for j := 0; j < n; j++ {
								a, b := got.Weight(i, j), want.Weight(i, j)
								if math.Float64bits(a) != math.Float64bits(b) {
									t.Fatalf("%s: w(%d,%d) = %v, reference %v", name, i, j, a, b)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestWalkSumsBitIdenticalToListWalk compares the raw walk sums too, so a
// difference the closure's clamping or normalization would hide still
// fails.
func TestWalkSumsBitIdenticalToListWalk(t *testing.T) {
	g := kernelTestGraph(t, 80, 0.3, 4242)
	direct := g.WeightsMatrix()
	for _, par := range []int{1, 3} {
		want, wantPairs := listWalkSums(g, direct, 4, 0)
		got, gotPairs := walkSums(g, direct, 4, 0, par)
		if gotPairs != wantPairs {
			t.Fatalf("par=%d: %d indirect pairs, reference %d", par, gotPairs, wantPairs)
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("par=%d: indirect[%d][%d] = %v, reference %v", par, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
