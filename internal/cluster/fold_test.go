package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"esrp/internal/replay"
)

// foldRef is the serial reference of an Allreduce: the members' payloads
// combined in ascending order with one accumulator. Written out with its own
// loops so it shares nothing with Op.apply.
func foldRef(op Op, payloads [][]float64) []float64 {
	acc := append([]float64(nil), payloads[0]...)
	for _, p := range payloads[1:] {
		for i := range acc {
			switch op {
			case OpSum:
				acc[i] += p[i]
			case OpMax:
				acc[i] = math.Max(acc[i], p[i])
			case OpMin:
				acc[i] = math.Min(acc[i], p[i])
			}
		}
	}
	return acc
}

// TestAllreduceFoldOnce is the differential test of the releaser-folded
// Allreduce: whichever member arrives last and folds the bank, every member
// must read a result bit-equal to the serial ascending-rank fold and leave
// with clock max(entry clocks) + collectiveCost. Payloads span 24 decimal
// orders of magnitude so any other summation order shows in the bits, entry
// clocks differ per rank and round, and Bcast / Gather / Barrier / a Sub
// view's collectives are interleaved at co-prime strides so the checked
// Allreduces land on both arena banks in every neighbourhood. GOMAXPROCS
// sets the worker count: 1 is a single worker, 2 and 4 run the last
// arriver's fold genuinely in parallel with members on other workers copying
// the previous collective's result out of the other bank — the shape a
// fold/reader race would need. Runs under -race.
func TestAllreduceFoldOnce(t *testing.T) {
	const rounds = 24
	lengths := []int{0, 1, 2, 7}
	ops := []Op{OpSum, OpMax, OpMin}
	for _, n := range []int{2, 5, 33, 128} {
		// vals[round][rank] is that rank's payload (the round's length is a
		// prefix of it); flops[round][rank] skews the entry clocks.
		rng := rand.New(rand.NewSource(int64(n)))
		vals := make([][][]float64, rounds)
		flops := make([][]float64, rounds)
		for k := range vals {
			vals[k] = make([][]float64, n)
			flops[k] = make([]float64, n)
			for r := range vals[k] {
				vals[k][r] = make([]float64, 7)
				for i := range vals[k][r] {
					vals[k][r][i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(24)-12))
				}
				flops[k][r] = float64(rng.Intn(5000))
			}
		}
		var subRanks []int // every rank not ≡ 1 mod 3: keeps 0, skips 1 (none at n = 2)
		for r := 0; r < n; r++ {
			if r%3 != 1 {
				subRanks = append(subRanks, r)
			}
		}
		if n == 33 { // the data must be able to tell fold orders apart
			asc := foldRef(OpSum, vals[0])
			desc := make([][]float64, n)
			for r := range desc {
				desc[r] = vals[0][n-1-r]
			}
			if fmt.Sprint(asc) == fmt.Sprint(foldRef(OpSum, desc)) {
				t.Fatal("test data does not distinguish ascending from descending summation")
			}
		}

		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("n=%d/procs=%d", n, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				c := New(n, testModel())
				// Entry clocks, written by their owner before the collective
				// and read by everyone after it (the collective orders them).
				entry := make([][]float64, 2*rounds)
				for i := range entry {
					entry[i] = make([]float64, n)
				}

				// check runs one Allreduce on view v (whose members are the
				// global ranks `members`) and compares result and clock
				// against the serial reference. seq indexes the entry table.
				check := func(v *Node, members []int, seq, k int) {
					op, length := ops[k%len(ops)], lengths[k%len(lengths)]
					g := v.GlobalRank()
					v.Compute(replay.WorkVec, flops[k][g])
					entry[seq][g] = v.Clock()
					x := append([]float64(nil), vals[k][g][:length]...)
					v.Allreduce(op, x)

					payloads := make([][]float64, len(members))
					tmax := 0.0
					for i, m := range members {
						payloads[i] = vals[k][m][:length]
						tmax = math.Max(tmax, entry[seq][m])
					}
					want := foldRef(op, payloads)
					for i := range want {
						if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
							panic(fmt.Sprintf("round %d rank %d op %d len %d: x[%d] = %x, serial fold %x",
								k, g, op, length, i, math.Float64bits(x[i]), math.Float64bits(want[i])))
						}
					}
					if wantClock := tmax + v.collectiveCost(8*length); v.Clock() != wantClock {
						panic(fmt.Sprintf("round %d rank %d: clock %g, want max entry %g + cost = %g",
							k, g, v.Clock(), tmax, wantClock))
					}
				}

				all := c.root.ranks
				err := c.Run(func(nd *Node) {
					var sub *Node
					if len(subRanks) > 1 {
						sub = nd.Sub(subRanks)
					}
					for k := 0; k < rounds; k++ {
						check(nd, all, k, k)
						if k%2 == 0 {
							root := k % n
							data := []float64{float64(k), float64(root)}
							if nd.Rank() != root {
								data[0], data[1] = -1, -1
							}
							nd.Bcast(root, data)
							if data[0] != float64(k) || data[1] != float64(root) {
								panic(fmt.Sprintf("round %d: bcast got %v", k, data))
							}
						}
						if k%3 == 0 {
							root := (k + 1) % n
							parts := nd.Gather(root, vals[k][nd.Rank()][:2])
							if nd.Rank() == root {
								for r := range parts {
									if parts[r][0] != vals[k][r][0] || parts[r][1] != vals[k][r][1] {
										panic(fmt.Sprintf("round %d: gather slot %d = %v", k, r, parts[r]))
									}
								}
							}
						}
						if sub != nil && k%4 != 3 {
							check(sub, subRanks, rounds+k, k)
						}
						if k%5 == 0 {
							nd.Allreduce(OpMax, nil)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
