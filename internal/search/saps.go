package search

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"crowdrank/internal/graph"
)

// InitStrategy selects how SAPS builds the initial path for each start
// vertex (Algorithm 2, line 3 offers two constructions).
type InitStrategy int

const (
	// InitScoreRanked orders vertices by the difference between their total
	// outgoing and incoming edge weights (a Borda-like score), rotating the
	// order so the requested start vertex leads its block. This is the
	// "ranking the nodes based on the difference of their out-/in-edge
	// weights in G_P^*" construction and the default.
	InitScoreRanked InitStrategy = iota + 1
	// InitNearestNeighbor grows the path greedily from the start vertex,
	// always stepping to the unvisited vertex with the highest edge weight.
	InitNearestNeighbor
)

// SAPSParams tunes the simulated-annealing path search. The zero value is
// not usable; call DefaultSAPSParams.
type SAPSParams struct {
	// Iterations is N, the annealing iterations per start vertex.
	Iterations int
	// Temperature is the initial temperature T.
	Temperature float64
	// Cooling is the per-iteration cooling rate c in (0, 1).
	Cooling float64
	// Starts is the number of start vertices to anneal from; 0 means all n
	// (the paper's "for all v in V"). Start vertices are taken in random
	// order when Starts < n. The first start always uses the score-ranked
	// initial path regardless of Init, so the search never does worse than
	// that construction.
	Starts int
	// Init selects the initial-path construction for the remaining starts.
	Init InitStrategy
	// Objective selects the path-preference reading (see Objective).
	Objective Objective
	// Parallelism fans the independent starts out over this many
	// goroutines (each start anneals in isolation, so the fan-out is
	// embarrassingly parallel). Results are deterministic for a fixed seed
	// regardless of scheduling: each start derives its own PCG stream from
	// the caller's source up front, and ties between equally good paths
	// resolve by start order. 0 or 1 means sequential.
	Parallelism int
}

// DefaultSAPSParams returns the SAPS configuration used for the experiment
// reproduction.
func DefaultSAPSParams() SAPSParams {
	return SAPSParams{
		Iterations:  200,
		Temperature: 1.0,
		Cooling:     0.97,
		Starts:      8,
		Init:        InitScoreRanked,
		Objective:   ObjectiveAllPairs,
	}
}

func (p SAPSParams) validate() error {
	if p.Iterations < 1 {
		return fmt.Errorf("search: SAPS Iterations must be >= 1, got %d", p.Iterations)
	}
	if p.Temperature <= 0 {
		return fmt.Errorf("search: SAPS Temperature must be positive, got %v", p.Temperature)
	}
	if p.Cooling <= 0 || p.Cooling >= 1 {
		return fmt.Errorf("search: SAPS Cooling %v outside (0,1)", p.Cooling)
	}
	if p.Starts < 0 {
		return fmt.Errorf("search: SAPS Starts must be >= 0, got %d", p.Starts)
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("search: SAPS Parallelism must be >= 0, got %d", p.Parallelism)
	}
	switch p.Init {
	case InitNearestNeighbor, InitScoreRanked:
	default:
		return fmt.Errorf("search: unknown SAPS init strategy %d", p.Init)
	}
	if !p.Objective.valid() {
		return fmt.Errorf("search: unknown SAPS objective %d", p.Objective)
	}
	return nil
}

// sapsTables holds what every start of one search reads and none writes.
type sapsTables struct {
	logw [][]float64
	// asym[u][v] = logw[u][v] - logw[v][u], the all-pairs objective's
	// gain of ordering u before v rather than v before u. Precomputing it
	// turns each move's inner loop into a walk along one row instead of a
	// row and a column load per pair. Nil under the consecutive objective,
	// which never reads it.
	asym [][]float64
	obj  Objective
}

// newSAPSTables builds the shared tables for logw under objective obj.
func newSAPSTables(logw [][]float64, obj Objective) *sapsTables {
	t := &sapsTables{logw: logw, obj: obj}
	if obj == ObjectiveAllPairs {
		n := len(logw)
		t.asym = make([][]float64, n)
		backing := make([]float64, n*n)
		for u := range t.asym {
			t.asym[u], backing = backing[:n:n], backing[n:]
			for v := range t.asym[u] {
				t.asym[u][v] = logw[u][v] - logw[v][u]
			}
		}
	}
	return t
}

// sapsState carries the annealing state for one start: the current path and
// its cost d (the negated objective, minimized).
type sapsState struct {
	*sapsTables
	path  []int
	cost  float64
	evals int
}

// newSAPSState starts an annealing state on path (which it takes over).
func newSAPSState(t *sapsTables, path []int) *sapsState {
	return &sapsState{sapsTables: t, path: path, cost: -scorePath(t.logw, path, t.obj)}
}

// SAPS runs the simulated-annealing path search of Algorithms 2-3: from
// each start vertex it builds an initial path, then for N iterations
// proposes a Rotate, a Reverse, and a RandomSwap in turn, accepting
// improvements always and deteriorations with the Boltzmann probability
// exp(-delta/T), cooling T by the factor c each iteration. The best path
// over all starts (by the configured objective) is returned.
func SAPS(g *graph.PreferenceGraph, p SAPSParams, rng *rand.Rand) (*Result, error) {
	return SAPSContext(context.Background(), g, p, rng)
}

// SAPSContext is SAPS with cancellation: the annealing loops poll ctx and
// abandon the search with ctx's error as soon as it is cancelled or its
// deadline passes. An already-cancelled context returns promptly without
// annealing.
func SAPSContext(ctx context.Context, g *graph.PreferenceGraph, p SAPSParams, rng *rand.Rand) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("search: nil random source")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	logw, err := logWeights(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	if n == 1 {
		return newResult([]int{0}, 0, 1), nil
	}
	if n == 2 {
		best := []int{0, 1}
		if logw[1][0] > logw[0][1] {
			best = []int{1, 0}
		}
		return newResult(best, scorePath(logw, best, p.Objective), 2), nil
	}

	starts := p.Starts
	if starts == 0 || starts > n {
		starts = n
	}
	startOrder := rng.Perm(n)[:starts]
	scoreOrder := scoreRankedOrder(g) // shared by all score-ranked inits
	tables := newSAPSTables(logw, p.Objective)

	// Derive every start's random stream up front so parallel scheduling
	// cannot change the result.
	seeds := make([][2]uint64, starts)
	for i := range seeds {
		seeds[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}

	type startResult struct {
		path  []int
		cost  float64
		evals int
	}
	results := make([]startResult, starts)

	runStart := func(s int) {
		v := startOrder[s]
		// The first start uses the plain score-ranked order so the search
		// result is never worse than that construction; later starts
		// diversify via the configured strategy seeded at v.
		var path []int
		switch {
		case s == 0:
			path = append([]int(nil), scoreOrder...)
		case p.Init == InitScoreRanked:
			path = rotatedOrder(scoreOrder, v)
		default:
			path = nearestNeighborPath(logw, v)
		}
		st := newSAPSState(tables, path)
		local := rand.New(rand.NewPCG(seeds[s][0], seeds[s][1]))
		best := append([]int(nil), st.path...)
		bestCost := st.cost
		temp := p.Temperature
		for iter := 0; iter < p.Iterations; iter++ {
			if ctx.Err() != nil {
				break // cancelled; the aggregate below returns ctx's error
			}
			st.proposeRotate(local, temp)
			st.proposeReverse(local, temp)
			st.proposeSwap(local, temp)
			if st.cost < bestCost {
				bestCost = st.cost
				best = append(best[:0], st.path...)
			}
			temp *= p.Cooling
		}
		results[s] = startResult{path: best, cost: bestCost, evals: st.evals}
	}

	workers := p.Parallelism
	if workers <= 1 || starts == 1 {
		for s := 0; s < starts; s++ {
			runStart(s)
		}
	} else {
		if workers > starts {
			workers = starts
		}
		var wg sync.WaitGroup
		next := make(chan int)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for s := range next {
					runStart(s)
				}
			}()
		}
		for s := 0; s < starts; s++ {
			next <- s
		}
		close(next)
		wg.Wait()
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var bestPath []int
	bestCost := math.Inf(1)
	evals := 0
	for s := 0; s < starts; s++ {
		evals += results[s].evals
		if results[s].cost < bestCost {
			bestCost = results[s].cost
			bestPath = results[s].path
		}
	}
	return newResult(bestPath, -bestCost, evals), nil
}

// scoreRankedOrder ranks every vertex by (sum of outgoing) - (sum of
// incoming) edge weights, descending.
func scoreRankedOrder(g *graph.PreferenceGraph) []int {
	n := g.N()
	score := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			score[i] += g.Weight(i, j) - g.Weight(j, i)
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] > score[order[b]] })
	return order
}

// rotatedOrder rotates order so vertex v leads.
func rotatedOrder(order []int, v int) []int {
	n := len(order)
	pos := 0
	for i, u := range order {
		if u == v {
			pos = i
			break
		}
	}
	out := make([]int, n)
	for i := range order {
		out[i] = order[(pos+i)%n]
	}
	return out
}

// nearestNeighborPath grows a path greedily from v by maximum edge weight.
func nearestNeighborPath(logw [][]float64, v int) []int {
	n := len(logw)
	path := make([]int, 0, n)
	used := make([]bool, n)
	cur := v
	path = append(path, cur)
	used[cur] = true
	for len(path) < n {
		next, best := -1, math.Inf(-1)
		for u := 0; u < n; u++ {
			if used[u] {
				continue
			}
			if logw[cur][u] > best {
				best = logw[cur][u]
				next = u
			}
		}
		path = append(path, next)
		used[next] = true
		cur = next
	}
	return path
}

// accept implements Algorithm 3's updateHP decision for a proposed cost
// delta at temperature temp.
func accept(delta, temp float64, rng *rand.Rand) bool {
	if delta < 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Float64() < math.Exp(-delta/temp)
}

// proposeRotate applies Rotate(P, first, middle, last): the block
// [middle..last] moves in front of [first..middle-1].
func (s *sapsState) proposeRotate(rng *rand.Rand, temp float64) {
	n := len(s.path)
	if n < 3 {
		return
	}
	first := rng.IntN(n - 1)
	last := first + 1 + rng.IntN(n-first-1)
	middle := first + 1 + rng.IntN(last-first)
	s.evals++

	var delta float64
	if s.obj == ObjectiveConsecutive {
		delta = s.rotateDeltaConsecutive(first, middle, last)
	} else {
		delta = s.rotateDeltaAllPairs(first, middle, last)
	}
	if !accept(delta, temp, rng) {
		return
	}
	rotate(s.path[first:last+1], middle-first)
	s.cost += delta
}

// rotateDeltaAllPairs computes the all-pairs cost change of Rotate(P,
// first, middle, last). Only cross pairs (x in the first block, y in the
// second) flip; cost = -score, so flipping an ordered pair (x before y)
// changes the cost by +asym[x][y]. Each x reads one row of asym.
func (s *sapsState) rotateDeltaAllPairs(first, middle, last int) float64 {
	var delta float64
	second := s.path[middle : last+1]
	for _, x := range s.path[first:middle] {
		ax := s.asym[x]
		for _, y := range second {
			delta += ax[y]
		}
	}
	return delta
}

func (s *sapsState) rotateDeltaConsecutive(first, middle, last int) float64 {
	n := len(s.path)
	x1 := s.path[first]
	xk := s.path[middle-1]
	y1 := s.path[middle]
	ym := s.path[last]
	// Cost is -sum of logw over consecutive edges: a removed edge (u, v)
	// contributes +logw[u][v] to the delta, an added edge -logw.
	delta := s.logw[xk][y1] // removed (xk -> y1)
	delta -= s.logw[ym][x1] // added (ym -> x1)
	if first > 0 {
		a := s.path[first-1]
		delta += s.logw[a][x1]
		delta -= s.logw[a][y1]
	}
	if last < n-1 {
		b := s.path[last+1]
		delta += s.logw[ym][b]
		delta -= s.logw[xk][b]
	}
	return delta
}

// rotate moves seg[k:] in front of seg[:k] in place.
func rotate(seg []int, k int) {
	reverseInts(seg[:k])
	reverseInts(seg[k:])
	reverseInts(seg)
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// proposeReverse applies Reverse(P, first, last): the segment is reversed.
func (s *sapsState) proposeReverse(rng *rand.Rand, temp float64) {
	n := len(s.path)
	if n < 2 {
		return
	}
	first := rng.IntN(n - 1)
	last := first + 1 + rng.IntN(n-first-1)
	s.evals++

	var delta float64
	if s.obj == ObjectiveConsecutive {
		x1 := s.path[first]
		xk := s.path[last]
		if first > 0 {
			a := s.path[first-1]
			delta += s.logw[a][x1] - s.logw[a][xk]
		}
		if last < n-1 {
			b := s.path[last+1]
			delta += s.logw[xk][b] - s.logw[x1][b]
		}
		for t := first; t < last; t++ {
			delta += s.logw[s.path[t]][s.path[t+1]] - s.logw[s.path[t+1]][s.path[t]]
		}
	} else {
		delta = s.reverseDeltaAllPairs(first, last)
	}
	if !accept(delta, temp, rng) {
		return
	}
	reverseInts(s.path[first : last+1])
	s.cost += delta
}

// reverseDeltaAllPairs computes the all-pairs cost change of Reverse(P,
// first, last): every ordered pair inside the segment flips.
func (s *sapsState) reverseDeltaAllPairs(first, last int) float64 {
	var delta float64
	seg := s.path[first : last+1]
	for a, x := range seg {
		ax := s.asym[x]
		for _, y := range seg[a+1:] {
			delta += ax[y]
		}
	}
	return delta
}

// proposeSwap applies RandomSwap(P, i, j): two random positions exchange
// their vertices.
func (s *sapsState) proposeSwap(rng *rand.Rand, temp float64) {
	n := len(s.path)
	if n < 2 {
		return
	}
	i := rng.IntN(n)
	j := rng.IntN(n)
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	s.evals++

	var delta float64
	if s.obj == ObjectiveConsecutive {
		delta = s.swapDeltaConsecutive(i, j)
	} else {
		delta = s.swapDeltaAllPairs(i, j)
	}
	if !accept(delta, temp, rng) {
		return
	}
	s.path[i], s.path[j] = s.path[j], s.path[i]
	s.cost += delta
}

// swapDeltaAllPairs computes the all-pairs cost change of swapping
// positions i < j: x and y trade places, so (x, y) flips, and so does
// every pair x or y forms with a vertex z between them.
func (s *sapsState) swapDeltaAllPairs(i, j int) float64 {
	x, y := s.path[i], s.path[j]
	ax := s.asym[x]
	delta := ax[y]
	for _, z := range s.path[i+1 : j] {
		delta += ax[z] + s.asym[z][y]
	}
	return delta
}

// swapDeltaConsecutive computes the consecutive-objective cost change of
// swapping positions i < j. Cost is -sum of logw over consecutive edges, so
// removed edges contribute +logw and added edges -logw.
func (s *sapsState) swapDeltaConsecutive(i, j int) float64 {
	n := len(s.path)
	xi, xj := s.path[i], s.path[j]
	delta := 0.0
	if j == i+1 {
		delta += s.logw[xi][xj] - s.logw[xj][xi]
		if i > 0 {
			a := s.path[i-1]
			delta += s.logw[a][xi] - s.logw[a][xj]
		}
		if j < n-1 {
			b := s.path[j+1]
			delta += s.logw[xj][b] - s.logw[xi][b]
		}
		return delta
	}
	if i > 0 {
		a := s.path[i-1]
		delta += s.logw[a][xi] - s.logw[a][xj]
	}
	next := s.path[i+1]
	delta += s.logw[xi][next] - s.logw[xj][next]
	prev := s.path[j-1]
	delta += s.logw[prev][xj] - s.logw[prev][xi]
	if j < n-1 {
		b := s.path[j+1]
		delta += s.logw[xj][b] - s.logw[xi][b]
	}
	return delta
}
