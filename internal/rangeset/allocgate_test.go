package rangeset

import "testing"

// TestAllocGateAddSubtract gates the in-place Add/Subtract rewrites
// (scripts/check.sh runs every TestAllocGate*): once a set's backing array
// has grown, sequential appends, gap fills and front subtractions must not
// allocate — in xlinkdebug builds too, where checkWellFormed runs after
// every edit and must only format its message on failure.
func TestAllocGateAddSubtract(t *testing.T) {
	var s Set
	for i := uint64(0); i < 64; i += 2 {
		s.Add(i*10, i*10+5) // pre-grow the backing array
	}
	next := uint64(10000)
	if avg := testing.AllocsPerRun(100, func() {
		s.Add(next, next+5)   // new trailing range
		s.Add(next+5, next+9) // extends it in place
		s.Subtract(0, 15)     // trims/drops from the front
		next += 10
	}); avg != 0 {
		t.Fatalf("warm Add/Subtract allocates %.1f/op, want 0", avg)
	}
}
