package store

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRefRunsMergeShuffledWithRepeats feeds shuffled sequence numbers,
// with repeats, through push (and cuts at random points): merge must
// emit every ref exactly once, in non-decreasing sequence order.
func TestRefRunsMergeShuffledWithRepeats(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		seqs := make([]uint64, n)
		for i := range seqs {
			seqs[i] = uint64(rng.Intn(n/2 + 1))
		}
		// Partly sorted input, as recovery sees it: sorted stretches
		// broken by shuffled ones.
		if rng.Intn(2) == 0 {
			slices.Sort(seqs)
			for k := rng.Intn(10); k > 0 && n > 1; k-- {
				i, j := rng.Intn(n), rng.Intn(n)
				seqs[i], seqs[j] = seqs[j], seqs[i]
			}
		}
		obs := make([]Observation, n)
		var rr refRuns
		for i, seq := range seqs {
			if rng.Intn(20) == 0 {
				rr.cut()
			}
			rr.push(seq, &obs[i])
		}
		rr.cut()

		emitted := make(map[*Observation]int)
		var got []uint64
		rr.merge(func(r seqRef) bool {
			emitted[r.obs]++
			got = append(got, r.seq)
			return true
		})
		if len(got) != n || len(emitted) != n {
			t.Fatalf("seed %d: merged %d refs (%d distinct) of %d", seed, len(got), len(emitted), n)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("seed %d: merge out of order: %v", seed, got)
		}
		want := slices.Clone(seqs)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: merged sequences %v, want %v", seed, got, want)
		}
	}
}
