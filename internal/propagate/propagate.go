// Package propagate implements Step 3 of result inference (Section V-C):
// computing indirect pairwise preferences by transitivity and blending them
// with the direct preferences into the transitive closure G_P^*.
//
// For a path P(v_i, ..., v_j) the inferred weight is the product of the edge
// weights along P; multiple paths between the same endpoints are summed with
// equal importance. Enumerating all simple paths of length up to n-1 is
// exponential, so this implementation accumulates bounded-hop walk products
// (matrix powers of the weight matrix) up to MaxHops hops: because every
// weight lies in (0, 1), longer chains contribute geometrically less, and
// the dominant transitive evidence lives in the short chains. MaxHops is an
// option and an ablation benchmark covers its effect. Each hop multiplies
// the dense current power by the weight matrix held in compressed sparse
// row form, skipping zero (or pruned) entries of the current power.
//
// The final preference is w̌_ij = alpha*w_ij + (1-alpha)*w*_ij, followed by
// the pairwise normalization w_ij <- w_ij / (w_ij + w_ji) so that
// w_ij + w_ji = 1 (the probability constraint of Ailon et al.). The result
// is a complete weighted tournament, so it always admits a Hamiltonian path
// (Theorem 5.1).
package propagate

import (
	"fmt"
	"sync"

	"crowdrank/internal/graph"
	"crowdrank/internal/invariant"
)

// Params tunes propagation. The zero value is not usable; call
// DefaultParams.
type Params struct {
	// Alpha weighs direct versus indirect preference in the blend
	// w̌ = alpha*direct + (1-alpha)*indirect. The paper leaves it
	// user-specified; 0.5 is the neutral default.
	Alpha float64
	// MaxHops bounds the transitive chains considered (2..MaxHops hops).
	// MaxHops = 1 disables propagation (direct preferences only).
	MaxHops int
	// PruneEpsilon drops walk products below this magnitude during
	// accumulation; 0 keeps everything.
	PruneEpsilon float64
	// PriorStrength shrinks each pair's indirect ratio toward 1/2 in
	// proportion to how little walk evidence supports it: the ratio is
	// damped by total/(total + PriorStrength*meanTotal), where total is the
	// pair's two-directional walk mass and meanTotal the average over
	// informed pairs. Without shrinkage, a pair supported by one or two
	// noisy walks can receive an extreme weight, and the Step 4 product
	// objective chains such "wormhole" edges into high-probability but
	// wrong rankings. 0 disables shrinkage.
	PriorStrength float64
	// WeightFloor keeps every normalized weight inside
	// [WeightFloor, 1-WeightFloor] so the closure is strictly complete and
	// log-weights stay finite for Step 4's search.
	WeightFloor float64
	// Parallelism shards the walk-sum accumulation (each source row is
	// independent) over this many goroutines. The result is identical to
	// the sequential computation — rows never share accumulators. 0 or 1
	// means sequential.
	Parallelism int
}

// DefaultParams returns the propagation parameters used in the reproduction.
func DefaultParams() Params {
	return Params{
		Alpha:         0.5,
		MaxHops:       3,
		PruneEpsilon:  0,
		PriorStrength: 1.0,
		WeightFloor:   1e-4,
	}
}

func (p Params) validate() error {
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("propagate: alpha %v outside [0,1]", p.Alpha)
	}
	if p.MaxHops < 1 {
		return fmt.Errorf("propagate: MaxHops must be >= 1, got %d", p.MaxHops)
	}
	if p.PruneEpsilon < 0 {
		return fmt.Errorf("propagate: negative PruneEpsilon %v", p.PruneEpsilon)
	}
	if p.PriorStrength < 0 {
		return fmt.Errorf("propagate: negative PriorStrength %v", p.PriorStrength)
	}
	if p.WeightFloor <= 0 || p.WeightFloor >= 0.5 {
		return fmt.Errorf("propagate: WeightFloor %v outside (0, 0.5)", p.WeightFloor)
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("propagate: negative Parallelism %d", p.Parallelism)
	}
	return nil
}

// Stats reports propagation diagnostics.
type Stats struct {
	// IndirectPairs counts ordered pairs that received indirect evidence.
	IndirectPairs int
	// UninformedPairs counts unordered pairs with no direct or indirect
	// evidence in either direction, which fall back to 0.5/0.5.
	UninformedPairs int
	// HopsUsed echoes the effective hop bound.
	HopsUsed int
}

// Closure computes the normalized transitive closure G_P^* of the smoothed
// preference graph g. The returned graph is complete: every ordered pair
// (i, j), i != j, has weight in [WeightFloor, 1-WeightFloor] and
// w_ij + w_ji = 1.
func Closure(g *graph.PreferenceGraph, p Params) (*graph.PreferenceGraph, Stats, error) {
	if err := p.validate(); err != nil {
		return nil, Stats{}, err
	}
	if g == nil {
		return nil, Stats{}, fmt.Errorf("propagate: nil preference graph")
	}
	n := g.N()
	direct := g.WeightsMatrix()

	hops := p.MaxHops
	if hops > n-1 {
		hops = n - 1
	}
	if hops < 1 {
		hops = 1
	}
	indirect, indirectPairs := walkSums(g, direct, hops, p.PruneEpsilon, p.Parallelism)
	return blend(direct, indirect, Stats{IndirectPairs: indirectPairs, HopsUsed: hops}, p)
}

// blend mixes the direct weights with the indirect walk sums into the
// normalized closure (the second half of Closure). stats arrives with
// IndirectPairs and HopsUsed set; blend counts UninformedPairs.
func blend(direct, indirect [][]float64, stats Stats, p Params) (*graph.PreferenceGraph, Stats, error) {
	n := len(direct)
	closure, err := graph.NewPreferenceGraph(n)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("propagate: %w", err)
	}

	// Mean two-directional walk mass over informed pairs, the reference
	// scale for PriorStrength shrinkage.
	meanMass := 0.0
	informed := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mass := indirect[i][j] + indirect[j][i]
			if mass > 0 {
				meanMass += mass
				informed++
			}
		}
	}
	if informed > 0 {
		meanMass /= float64(informed)
	}

	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Direct and indirect evidence live on different scales: direct
			// weights are probabilities (w_ij + w_ji = 1 after smoothing)
			// while walk sums grow with the number of contributing paths.
			// Normalize each source per pair before blending so alpha
			// keeps its meaning; the paper's final normalization
			// w_ij / (w_ij + w_ji) makes the two formulations agree up to
			// this per-source scaling. See DESIGN.md.
			dTotal := direct[i][j] + direct[j][i]
			iTotal := indirect[i][j] + indirect[j][i]
			var indRatio float64
			if iTotal > 0 {
				indRatio = indirect[i][j] / iTotal
				if p.PriorStrength > 0 && meanMass > 0 {
					conf := iTotal / (iTotal + p.PriorStrength*meanMass)
					indRatio = 0.5 + conf*(indRatio-0.5)
				}
			}
			var wij float64
			switch {
			case dTotal > 0 && iTotal > 0:
				wij = p.Alpha*direct[i][j]/dTotal + (1-p.Alpha)*indRatio
			case dTotal > 0:
				wij = direct[i][j] / dTotal
			case iTotal > 0:
				wij = indRatio
			default:
				stats.UninformedPairs++
				wij = 0.5
			}
			wij = clampWeight(wij, p.WeightFloor)
			if err := closure.SetWeight(i, j, wij); err != nil {
				return nil, Stats{}, fmt.Errorf("propagate: %w", err)
			}
			if err := closure.SetWeight(j, i, 1-wij); err != nil {
				return nil, Stats{}, fmt.Errorf("propagate: %w", err)
			}
		}
	}
	// Stage-boundary assertion (no-op unless built with
	// -tags crowdrank_invariants): the closure is a complete tournament
	// with w_ij + w_ji = 1, the state Theorem 5.1 relies on.
	invariant.CheckTournament(closure)
	return closure, stats, nil
}

func clampWeight(w, floor float64) float64 {
	switch {
	case w < floor:
		return floor
	case w > 1-floor:
		return 1 - floor
	default:
		return w
	}
}

// walkSums accumulates, for every ordered pair (i, j), the sum over
// 2..hops-hop walks of the product of edge weights: indirect[i][j] =
// sum_{h=2..hops} (W^h)_ij, with diagonal contributions discarded at every
// step so cycles through the source do not feed back.
//
// Each hop multiplies the dense current power by W held in compressed
// sparse row form (edge targets and weights inline, in g.Out order), so a
// row of W^h is built by scanning the nonzero entries of the current
// power's row and streaming each one's edge list. Every entry of a row
// receives its terms in the same order as a walk over g.Out(k) with
// direct[k][j] lookups would give it, so the sums are bit-identical to
// that formulation.
func walkSums(g *graph.PreferenceGraph, direct [][]float64, hops int, prune float64, parallelism int) ([][]float64, int) {
	n := g.N()
	indirect := newMatrix(n)
	if hops < 2 {
		return indirect, 0
	}

	// CSR copy of W, edges in g.Out order. rowPtr is int, so offsets hold
	// any edge count up to n*(n-1); int32 suffices for cols because n
	// itself is far below 2^31 whenever the n x n matrices here fit.
	rowPtr := make([]int, n+1)
	for k := 0; k < n; k++ {
		rowPtr[k+1] = rowPtr[k] + len(g.Out(k))
	}
	cols := make([]int32, rowPtr[n])
	vals := make([]float64, rowPtr[n])
	for k := 0; k < n; k++ {
		e := rowPtr[k]
		for _, j := range g.Out(k) {
			cols[e] = int32(j)
			vals[e] = direct[k][j]
			e++
		}
	}

	cur := newMatrix(n) // current power W^h, starting at W^1 = direct
	for i := 0; i < n; i++ {
		copy(cur[i], direct[i])
	}
	next := newMatrix(n)

	// Each source row i is independent of every other row, so the per-hop
	// update shards trivially across goroutines with identical results.
	updateRow := func(i int) {
		row := next[i]
		clear(row)
		for k, w := range cur[i] {
			if w <= prune || k == i {
				continue
			}
			lo, hi := rowPtr[k], rowPtr[k+1]
			ks := cols[lo:hi]
			vs := vals[lo:hi]
			vs = vs[:len(ks)] // lets the compiler drop vs[e]'s bounds check
			for e, j := range ks {
				row[j] += w * vs[e]
			}
		}
		// Walks that return to the source are discarded: row[i] collected
		// them above but is reset before anything reads it.
		row[i] = 0
		acc := indirect[i]
		for j, v := range row {
			acc[j] += v
		}
	}

	for h := 2; h <= hops; h++ {
		if parallelism <= 1 || n < 64 {
			for i := 0; i < n; i++ {
				updateRow(i)
			}
		} else {
			workers := parallelism
			if workers > n {
				workers = n
			}
			var wg sync.WaitGroup
			rowCh := make(chan int)
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for i := range rowCh {
						updateRow(i)
					}
				}()
			}
			for i := 0; i < n; i++ {
				rowCh <- i
			}
			close(rowCh)
			wg.Wait()
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

func newMatrix(n int) [][]float64 {
	rows := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range rows {
		rows[i], backing = backing[:n:n], backing[n:]
	}
	return rows
}
