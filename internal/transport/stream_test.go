package transport

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rangeset"
)

// TestOnChunkLostMatchesByteWalk checks that the gap-walking onChunkLost
// requeues exactly the bytes a per-byte scan would: every byte of the lost
// chunk that is neither acked nor FEC-recovered, on top of what rtx
// already held.
func TestOnChunkLostMatchesByteWalk(t *testing.T) {
	const domain = 128
	rng := rand.New(rand.NewSource(1))
	fill := func(set *rangeset.Set, n int) {
		for i := 0; i < n; i++ {
			a := uint64(rng.Intn(domain))
			set.Add(a, a+1+uint64(rng.Intn(12)))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		s := &SendStream{}
		fill(&s.acked, rng.Intn(8))
		fill(&s.recovered, rng.Intn(8))
		fill(&s.rtx, rng.Intn(3))
		var want rangeset.Set
		for _, r := range s.rtx.All() {
			want.Add(r.Start, r.End)
		}
		off := uint64(rng.Intn(domain))
		c := chunk{offset: off, length: uint64(rng.Intn(domain - int(off) + 16))}
		for x := c.offset; x < c.offset+c.length; x++ {
			if !s.acked.Contains(x, x+1) && !s.recovered.Contains(x, x+1) {
				want.Add(x, x+1)
			}
		}
		s.onChunkLost(c)
		if !slices.Equal(s.rtx.All(), want.All()) {
			t.Fatalf("trial %d: chunk [%d,%d) acked %v recovered %v: rtx %v, want %v", trial,
				c.offset, c.offset+c.length, s.acked.All(), s.recovered.All(), s.rtx.All(), want.All())
		}
	}
}
