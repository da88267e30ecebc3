package cluster

import (
	"fmt"
	"testing"
)

// benchRounds times b.N calls of round on every node of an n-node cluster,
// so ns/op is host nanoseconds per round (all ranks' work plus their
// hand-offs) and allocs/op is allocations per round across all ranks. Node
// start-up and a warm-up that sizes slots and free lists stay outside the
// timer: rank 0 resets and stops it while the others wait at a barrier.
func benchRounds(b *testing.B, n int, round func(nd *Node)) {
	b.ReportAllocs()
	c := New(n, testModel())
	err := c.Run(func(nd *Node) {
		for i := 0; i < 16; i++ {
			round(nd)
		}
		nd.Allreduce(OpMax, nil)
		if nd.Rank() == 0 {
			b.ResetTimer()
		}
		nd.Allreduce(OpMax, nil)
		for i := 0; i < b.N; i++ {
			round(nd)
		}
		nd.Allreduce(OpMax, nil)
		if nd.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduceRound is one 2-float sum allreduce (the size of PCG's
// fused dot products) per round. n=4 is a rank or two per worker on most
// hosts; 32 and 128 are many ranks per worker, 128 being the paper's node
// count.
func BenchmarkAllreduceRound(b *testing.B) {
	for _, n := range []int{4, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRounds(b, n, func(nd *Node) {
				x := [2]float64{1, float64(nd.Rank())}
				nd.Allreduce(OpSum, x[:])
			})
		})
	}
}

// BenchmarkP2PRound is one ring halo exchange per round: every rank sends 64
// floats (one solve-wide block) to both ring neighbours, then receives and
// releases theirs — the inbox hand-off and the payload free list, no
// collective. Needing both neighbours' messages keeps adjacent ranks within
// a round of each other, as the solver's exchanges do, so the free lists
// reach their working set in the warm-up.
func BenchmarkP2PRound(b *testing.B) {
	for _, n := range []int{4, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			payload := make([]float64, 64) // read-only, shared by all ranks
			benchRounds(b, n, func(nd *Node) {
				next, prev := (nd.Rank()+1)%n, (nd.Rank()+n-1)%n
				nd.ISend(next, 3, payload)
				nd.ISend(prev, 3, payload)
				fromPrev, fromNext := nd.IRecv(prev, 3), nd.IRecv(next, 3)
				nd.Release(fromPrev.Wait())
				nd.Release(fromNext.Wait())
			})
		})
	}
}
