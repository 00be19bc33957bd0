package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"crowdrank/internal/bench"
	"crowdrank/internal/core"
)

// TestInferPinnedOutputN1000 pins core.Infer's exact output on the
// benchmark-sized round (n=1000, ratio 0.1, default options, fixed PCG
// seed): a hash of the ranking and the bits of LogProb were recorded before
// Step 3's walk-sum kernel and Step 4's move deltas were rewritten for
// speed, and must not move by a single bit.
func TestInferPinnedOutputN1000(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1000 inference")
	}
	round, err := bench.NewRound(bench.DefaultRunConfig(1000, 0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Infer(round.Cfg.N, round.Cfg.Workers, round.Votes, core.DefaultOptions(), rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, v := range res.Ranking {
		fmt.Fprintf(h, "%d,", v)
	}
	const wantHash, wantBits uint64 = 0x963f7d395373a5d9, 0xc10992e7542f6823
	if got := h.Sum64(); got != wantHash {
		t.Errorf("ranking hash %#x, recorded %#x", got, wantHash)
	}
	if got := math.Float64bits(res.LogProb); got != wantBits {
		t.Errorf("LogProb %v (bits %#x), recorded bits %#x", res.LogProb, got, wantBits)
	}
}
