package evolution

import (
	"fmt"
	"testing"
)

// synthEpochs builds two alternating community sets over n communities of
// ~32 members each: set B perturbs set A (membership churn, one merge
// pair, one split), so every Advance exercises matching plus every event
// kind without ever repeating an epoch.
func synthEpochs(n int) (a, b [][]uint32) {
	a = make([][]uint32, 0, n)
	b = make([][]uint32, 0, n)
	for i := 0; i < n; i++ {
		base := uint32(i) * 64
		a = append(a, r(base, base+32))
		switch {
		case i%7 == 0 && i+1 < n:
			// Merge pair: community i swallows half of i's high range.
			b = append(b, r(base, base+48))
		case i%7 == 3:
			// Split: two halves.
			b = append(b, r(base, base+16), r(base+16, base+32))
		default:
			// Churn: drop the low 4 members, add 4 new ones.
			b = append(b, r(base+4, base+36))
		}
	}
	return a, b
}

// BenchmarkEvolutionDiff measures one epoch diff (matching +
// classification + journal upkeep) against community count.
func BenchmarkEvolutionDiff(bm *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		bm.Run(fmt.Sprintf("communities=%d", n), func(bm *testing.B) {
			setA, setB := synthEpochs(n)
			tr := New(Config{Depth: 8})
			tr.Rebase(0, setA)
			bm.ReportAllocs()
			bm.ResetTimer()
			epoch := uint64(0)
			for i := 0; i < bm.N; i++ {
				epoch++
				comms := setB
				if i%2 == 1 {
					comms = setA
				}
				if _, err := tr.Advance(epoch, comms); err != nil {
					bm.Fatal(err)
				}
			}
		})
	}
}
