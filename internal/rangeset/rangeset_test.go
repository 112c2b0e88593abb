package rangeset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddDisjoint(t *testing.T) {
	var s Set
	if got := s.Add(10, 20); got != 10 {
		t.Fatalf("added %d, want 10", got)
	}
	if got := s.Add(30, 40); got != 10 {
		t.Fatalf("added %d, want 10", got)
	}
	if s.Size() != 20 || len(s.All()) != 2 {
		t.Fatalf("size=%d ranges=%d", s.Size(), len(s.All()))
	}
}

func TestAddOverlap(t *testing.T) {
	var s Set
	s.Add(10, 20)
	if got := s.Add(15, 25); got != 5 {
		t.Fatalf("overlap add returned %d, want 5", got)
	}
	if len(s.All()) != 1 || s.All()[0] != (Range{10, 25}) {
		t.Fatalf("ranges %v", s.All())
	}
	if got := s.Add(10, 25); got != 0 {
		t.Fatal("fully covered add should return 0")
	}
}

func TestAddAdjacentMerges(t *testing.T) {
	var s Set
	s.Add(10, 20)
	s.Add(20, 30)
	if len(s.All()) != 1 || s.All()[0] != (Range{10, 30}) {
		t.Fatalf("adjacent merge failed: %v", s.All())
	}
}

func TestAddBridges(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(20, 30)
	s.Add(40, 50)
	if got := s.Add(5, 45); got != 20 {
		t.Fatalf("bridge add returned %d, want 20", got)
	}
	if len(s.All()) != 1 || s.All()[0] != (Range{0, 50}) {
		t.Fatalf("ranges %v", s.All())
	}
}

func TestContains(t *testing.T) {
	var s Set
	s.Add(10, 30)
	if !s.Contains(10, 30) || !s.Contains(15, 20) || !s.Contains(5, 5) {
		t.Fatal("contains")
	}
	if s.Contains(5, 15) || s.Contains(25, 35) || s.Contains(40, 50) {
		t.Fatal("should not contain")
	}
}

func TestCoveredPrefix(t *testing.T) {
	var s Set
	s.Add(0, 100)
	s.Add(150, 200)
	if got := s.CoveredPrefix(0); got != 100 {
		t.Fatalf("prefix from 0 = %d", got)
	}
	if got := s.CoveredPrefix(100); got != 100 {
		t.Fatalf("prefix from gap = %d", got)
	}
	if got := s.CoveredPrefix(160); got != 200 {
		t.Fatalf("prefix from 160 = %d", got)
	}
}

func TestFirstMissing(t *testing.T) {
	var s Set
	s.Add(10, 20)
	s.Add(30, 40)
	if a, b := s.FirstMissing(0, 100); a != 0 || b != 10 {
		t.Fatalf("missing = [%d,%d)", a, b)
	}
	if a, b := s.FirstMissing(10, 100); a != 20 || b != 30 {
		t.Fatalf("missing = [%d,%d)", a, b)
	}
	if a, b := s.FirstMissing(15, 18); a != 18 || b != 18 {
		t.Fatalf("fully covered window: [%d,%d)", a, b)
	}
	if a, b := s.FirstMissing(35, 100); a != 40 || b != 100 {
		t.Fatalf("missing = [%d,%d)", a, b)
	}
}

func TestSubtract(t *testing.T) {
	var s Set
	s.Add(0, 100)
	s.Subtract(20, 30)
	if s.Size() != 90 || len(s.All()) != 2 {
		t.Fatalf("after subtract: %v", s.All())
	}
	if s.Contains(20, 30) {
		t.Fatal("subtracted region still present")
	}
	s.Subtract(0, 100)
	if !s.Empty() {
		t.Fatal("full subtract should empty the set")
	}
}

func TestFirst(t *testing.T) {
	var s Set
	if _, ok := s.First(); ok {
		t.Fatal("empty set has no first")
	}
	s.Add(50, 60)
	s.Add(10, 20)
	r, ok := s.First()
	if !ok || r.Start != 10 {
		t.Fatalf("first = %v", r)
	}
	if r.Len() != 10 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestPropertyInvariants(t *testing.T) {
	f := func(ops [][2]uint16) bool {
		var s Set
		total := map[uint64]bool{}
		for _, op := range ops {
			a, b := uint64(op[0]), uint64(op[1])
			if a > b {
				a, b = b, a
			}
			want := uint64(0)
			for x := a; x < b; x++ {
				if !total[x] {
					want++
					total[x] = true
				}
			}
			if got := s.Add(a, b); got != want {
				return false
			}
			rs := s.All()
			for i := 0; i < len(rs); i++ {
				if rs[i].Start >= rs[i].End {
					return false
				}
				if i > 0 && rs[i-1].End >= rs[i].Start {
					return false
				}
			}
		}
		return s.Size() == uint64(len(total))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLookups checks the binary-searched lookups (Contains,
// CoveredPrefix, FirstMissing) and edits (Add, Subtract) against a bitmap
// model of the set over a small domain.
func TestPropertyLookups(t *testing.T) {
	const domain = 96
	rng := rand.New(rand.NewSource(1))
	var s Set
	var model [domain + 1]bool // model[domain] stays false
	for step := 0; step < 4000; step++ {
		a, b := uint64(rng.Intn(domain)), uint64(rng.Intn(domain))
		if a > b {
			a, b = b, a
		}
		if rng.Intn(3) == 0 {
			s.Subtract(a, b)
			for x := a; x < b; x++ {
				model[x] = false
			}
		} else {
			s.Add(a, b)
			for x := a; x < b; x++ {
				model[x] = true
			}
		}
		for x := uint64(0); x <= domain; x++ {
			prefix := x
			for prefix < domain && model[prefix] {
				prefix++
			}
			if got := s.CoveredPrefix(x); got != prefix {
				t.Fatalf("step %d: CoveredPrefix(%d) = %d, model %d (set %v)", step, x, got, prefix, s.All())
			}
			for y := x; y <= domain; y += 7 {
				if got, want := s.Contains(x, y), y <= prefix; got != want {
					t.Fatalf("step %d: Contains(%d,%d) = %v, model %v (set %v)", step, x, y, got, want, s.All())
				}
				ms, me := y, y
				for z := x; z < y; z++ {
					if !model[z] {
						ms, me = z, z+1
						for me < y && !model[me] {
							me++
						}
						break
					}
				}
				if gs, ge := s.FirstMissing(x, y); gs != ms || ge != me {
					t.Fatalf("step %d: FirstMissing(%d,%d) = %d,%d, model %d,%d (set %v)",
						step, x, y, gs, ge, ms, me, s.All())
				}
			}
		}
	}
}
