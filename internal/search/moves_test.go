package search

import (
	"math"
	"slices"
	"testing"
)

// TestMoveDeltasMatchRecompute drives the three SAPS proposal moves with a
// huge temperature (so nearly every proposal is accepted) and verifies after
// every single move that the incrementally maintained cost equals a full
// recomputation — a direct check of each delta formula, per objective.
func TestMoveDeltasMatchRecompute(t *testing.T) {
	for _, obj := range []Objective{ObjectiveAllPairs, ObjectiveConsecutive} {
		for trial := 0; trial < 5; trial++ {
			rng := newRNG(uint64(trial + 8000))
			n := 5 + rng.IntN(15)
			g := randomTournament(t, n, rng)
			logw, err := logWeights(g)
			if err != nil {
				t.Fatal(err)
			}
			st := newSAPSState(newSAPSTables(logw, obj), rng.Perm(n))
			const hotTemp = 1e12 // accept essentially everything
			check := func(move string, step int) {
				t.Helper()
				want := -scorePath(logw, st.path, obj)
				if math.Abs(st.cost-want) > 1e-6 {
					t.Fatalf("%v %s step %d: incremental cost %v != recomputed %v",
						obj, move, step, st.cost, want)
				}
			}
			for step := 0; step < 60; step++ {
				st.proposeRotate(rng, hotTemp)
				check("rotate", step)
				st.proposeReverse(rng, hotTemp)
				check("reverse", step)
				st.proposeSwap(rng, hotTemp)
				check("swap", step)
			}
		}
	}
}

// TestAllPairsDeltasBitIdentical checks every all-pairs move delta, bit for
// bit, against the formulation that computes log w(u,v) - log w(v,u) from
// logw pair by pair: reading the precomputed asymmetry table must perform
// the same subtractions and sum them in the same order. (Whole-search pins
// cannot see this: one-ulp delta differences vanish into a cost hundreds
// of times larger.)
func TestAllPairsDeltasBitIdentical(t *testing.T) {
	rng := newRNG(8050)
	for trial := 0; trial < 4; trial++ {
		n := 3 + rng.IntN(60)
		logw, err := logWeights(randomTournament(t, n, rng))
		if err != nil {
			t.Fatal(err)
		}
		st := newSAPSState(newSAPSTables(logw, ObjectiveAllPairs), rng.Perm(n))
		path := st.path
		asym := func(u, v int) float64 { return logw[u][v] - logw[v][u] }
		same := func(move string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d %s: delta %v, pairwise reference %v", n, move, got, want)
			}
		}
		for k := 0; k < 300; k++ {
			first := rng.IntN(n - 1)
			last := first + 1 + rng.IntN(n-first-1)
			middle := first + 1 + rng.IntN(last-first)
			var want float64
			for a := first; a < middle; a++ {
				for b := middle; b <= last; b++ {
					want += asym(path[a], path[b])
				}
			}
			same("rotate", st.rotateDeltaAllPairs(first, middle, last), want)

			want = 0
			for a := first; a < last; a++ {
				for b := a + 1; b <= last; b++ {
					want += asym(path[a], path[b])
				}
			}
			same("reverse", st.reverseDeltaAllPairs(first, last), want)

			want = asym(path[first], path[last])
			for m := first + 1; m < last; m++ {
				want += asym(path[first], path[m]) + asym(path[m], path[last])
			}
			same("swap", st.swapDeltaAllPairs(first, last), want)

			rng.Shuffle(n, func(a, b int) { path[a], path[b] = path[b], path[a] })
		}
	}
}

// TestMovesPreservePermutation verifies the move implementations never
// corrupt the path.
func TestMovesPreservePermutation(t *testing.T) {
	rng := newRNG(8100)
	n := 12
	g := randomTournament(t, n, rng)
	logw, err := logWeights(g)
	if err != nil {
		t.Fatal(err)
	}
	st := newSAPSState(newSAPSTables(logw, ObjectiveAllPairs), rng.Perm(n))
	for step := 0; step < 200; step++ {
		st.proposeRotate(rng, 1e12)
		st.proposeReverse(rng, 1e12)
		st.proposeSwap(rng, 1e12)
		seen := make([]bool, n)
		for _, v := range st.path {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("step %d corrupted the path: %v", step, st.path)
			}
			seen[v] = true
		}
	}
}

// TestAcceptSemantics checks the Metropolis rule directly.
func TestAcceptSemantics(t *testing.T) {
	rng := newRNG(8200)
	if !accept(-1, 0.5, rng) {
		t.Error("improving moves must always be accepted")
	}
	if accept(1, 0, rng) {
		t.Error("worsening moves at zero temperature must be rejected")
	}
	// At delta/T = 10 the acceptance probability is ~4.5e-5: out of 2000
	// tries, essentially none should pass; at delta/T = 0.01, essentially
	// all should.
	hot, cold := 0, 0
	for i := 0; i < 2000; i++ {
		if accept(0.01, 1, rng) {
			hot++
		}
		if accept(10, 1, rng) {
			cold++
		}
	}
	if hot < 1900 {
		t.Errorf("near-neutral acceptance rate too low: %d/2000", hot)
	}
	if cold > 10 {
		t.Errorf("strongly-worsening acceptance rate too high: %d/2000", cold)
	}
}

// TestSAPSPinnedOutput pins SAPS's exact output on a fixed n=60 tournament
// and seed, under both objectives and with parallel starts: the path and
// the bits of LogProb were recorded before the move deltas were moved onto
// the precomputed asymmetry table, which must change no delta, acceptance
// or path.
func TestSAPSPinnedOutput(t *testing.T) {
	g := randomTournament(t, 60, newRNG(6060))
	for _, tc := range []struct {
		obj   Objective
		path  []int
		bits  uint64
		evals int
	}{
		{ObjectiveAllPairs, []int{12, 57, 37, 7, 16, 23, 25, 46, 9, 36, 8, 17, 10, 20, 1, 55, 24, 56, 59, 28, 5, 34, 50, 22, 11, 35, 30, 41, 52, 51, 47, 3, 49, 40, 14, 19, 13, 53, 43, 18, 38, 44, 26, 58, 48, 0, 33, 2, 6, 39, 4, 15, 21, 54, 29, 32, 42, 31, 45, 27}, 0xc09452cf247c61ab, 4777},
		{ObjectiveConsecutive, []int{2, 1, 19, 9, 36, 22, 53, 35, 45, 17, 27, 40, 55, 20, 50, 33, 57, 31, 3, 12, 52, 14, 43, 37, 10, 46, 47, 23, 29, 24, 8, 6, 13, 4, 25, 5, 39, 59, 51, 7, 54, 42, 41, 44, 0, 34, 26, 21, 32, 28, 49, 18, 48, 16, 11, 56, 30, 38, 15, 58}, 0xc02cede7ea286381, 4773},
	} {
		for _, par := range []int{0, 3} {
			p := DefaultSAPSParams()
			p.Objective = tc.obj
			p.Parallelism = par
			res, err := SAPS(g, p, newRNG(6061))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Path, tc.path) {
				t.Errorf("%v par=%d: path %v, recorded %v", tc.obj, par, res.Path, tc.path)
			}
			if got := math.Float64bits(res.LogProb); got != tc.bits || res.Evaluations != tc.evals {
				t.Errorf("%v par=%d: LogProb bits %#x after %d evaluations, recorded %#x after %d",
					tc.obj, par, got, res.Evaluations, tc.bits, tc.evals)
			}
		}
	}
}
