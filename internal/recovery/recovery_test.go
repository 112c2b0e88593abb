package recovery

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/rangeset"
	"repro/internal/wire"
)

func sent(s *Space, at time.Duration, n int) []*SentPacket {
	var out []*SentPacket
	for i := 0; i < n; i++ {
		sp := &SentPacket{PN: s.NextPN(), SentAt: at, Bytes: 1200, AckEliciting: true}
		s.OnPacketSent(sp)
		out = append(out, sp)
	}
	return out
}

func TestAckBasics(t *testing.T) {
	rtt := cc.NewRTTEstimator()
	s := NewSpace(rtt)
	sent(s, 0, 3)
	res := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 2}}, 0, 50*time.Millisecond)
	if len(res.Acked) != 3 {
		t.Fatalf("acked %d, want 3", len(res.Acked))
	}
	if res.LatestRTT != 50*time.Millisecond {
		t.Fatalf("rtt sample = %v", res.LatestRTT)
	}
	if !rtt.HasSample() || rtt.Smoothed() != 50*time.Millisecond {
		t.Fatal("rtt estimator not updated")
	}
	if s.HasUnacked() {
		t.Fatal("all packets acked")
	}
	if s.LargestAcked() != 2 {
		t.Fatalf("largestAcked = %d", s.LargestAcked())
	}
}

func TestDuplicateAckIgnored(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 2)
	r1 := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 1}}, 0, 10*time.Millisecond)
	if len(r1.Acked) != 2 {
		t.Fatal("first ack")
	}
	r2 := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 1}}, 0, 20*time.Millisecond)
	if len(r2.Acked) != 0 {
		t.Fatal("duplicate ack must ack nothing")
	}
}

func TestPacketThresholdLoss(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	pkts := sent(s, 0, 5)
	// Ack 3 and 4; pn 0 and 1 are >=3 behind → lost; pn 2 not yet.
	res := s.OnAck([]wire.AckRange{{Smallest: 3, Largest: 4}}, 0, 20*time.Millisecond)
	if len(res.Acked) != 2 {
		t.Fatalf("acked %d", len(res.Acked))
	}
	if len(res.Lost) != 2 || res.Lost[0].PN != 0 || res.Lost[1].PN != 1 {
		t.Fatalf("lost %v", res.Lost)
	}
	_ = pkts
	// pn 2 should have a pending time-threshold deadline.
	if s.LossTime() == 0 {
		t.Fatal("expected loss timer for pn 2")
	}
}

func TestTimeThresholdLoss(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 2)
	// Ack pn 1 at 40ms → rtt 40ms; pn 0 is 1 behind (below packet threshold).
	res := s.OnAck([]wire.AckRange{{Smallest: 1, Largest: 1}}, 0, 40*time.Millisecond)
	if len(res.Lost) != 0 {
		t.Fatal("no loss yet")
	}
	deadline := s.LossTime()
	if deadline == 0 {
		t.Fatal("loss timer must be armed")
	}
	// 9/8 * 40ms = 45ms.
	if deadline != 45*time.Millisecond {
		t.Fatalf("loss deadline %v, want 45ms", deadline)
	}
	lost := s.OnLossTimeout(deadline)
	if len(lost) != 1 || lost[0].PN != 0 {
		t.Fatalf("lost %v", lost)
	}
}

func TestLostPacketAckedLater(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 5)
	res := s.OnAck([]wire.AckRange{{Smallest: 4, Largest: 4}}, 0, 20*time.Millisecond)
	if len(res.Lost) != 2 { // pn 0, 1 by packet threshold
		t.Fatalf("lost %d", len(res.Lost))
	}
	// Late ack for a declared-lost packet must not re-ack it.
	res2 := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 0}}, 0, 30*time.Millisecond)
	if len(res2.Acked) != 0 {
		t.Fatal("spurious re-ack of lost packet")
	}
}

func TestPTODeadlineAndBackoff(t *testing.T) {
	rtt := cc.NewRTTEstimator()
	rtt.Update(100*time.Millisecond, 0)
	s := NewSpace(rtt)
	sent(s, 10*time.Millisecond, 1)
	d1 := s.PTODeadline()
	if d1 == 0 {
		t.Fatal("PTO must be armed with packets in flight")
	}
	want := 10*time.Millisecond + rtt.PTO()
	if d1 != want {
		t.Fatalf("PTO deadline %v, want %v", d1, want)
	}
	probes := s.OnPTO(d1)
	if len(probes) != 1 || probes[0].PN != 0 {
		t.Fatalf("probes %v", probes)
	}
	if s.PTOCount() != 1 {
		t.Fatal("backoff count")
	}
	// The next deadline anchors at the probe time with doubled backoff.
	d2 := s.PTODeadline()
	if d2 != d1+2*rtt.PTO() {
		t.Fatalf("second deadline %v, want %v (probe time + doubled PTO)", d2, d1+2*rtt.PTO())
	}
	// Progress resets backoff.
	s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 0}}, 0, 200*time.Millisecond)
	if s.PTOCount() != 0 {
		t.Fatal("ack must reset PTO count")
	}
	if s.PTODeadline() != 0 {
		t.Fatal("no in-flight packets: no PTO")
	}
}

func TestUnackedLookup(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 3)
	res := s.OnAck([]wire.AckRange{{Smallest: 1, Largest: 1}}, 0, 10*time.Millisecond)
	if len(res.Acked) != 1 || res.Acked[0].PN != 1 {
		t.Fatalf("pn 1 should have been unacked: acked %v", res.Acked)
	}
	if res := s.OnAck([]wire.AckRange{{Smallest: 1, Largest: 1}}, 0, 20*time.Millisecond); len(res.Acked) != 0 {
		t.Fatal("pn 1 was acked")
	}
	if res := s.OnAck([]wire.AckRange{{Smallest: 99, Largest: 99}}, 0, 30*time.Millisecond); len(res.Acked) != 0 {
		t.Fatal("unknown pn")
	}
}

func TestInFlightExcludesNonEliciting(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sp := &SentPacket{PN: s.NextPN(), SentAt: 0, Bytes: 50, AckEliciting: false}
	s.OnPacketSent(sp)
	if len(s.InFlight()) != 0 || s.HasUnacked() {
		t.Fatal("ack-only packets are not in flight")
	}
	if s.PTODeadline() != 0 {
		t.Fatal("no PTO for non-eliciting packets")
	}
}

func TestGCTrimsSendHistory(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	for round := 0; round < 50; round++ {
		pkts := sent(s, time.Duration(round)*time.Millisecond, 4)
		s.OnAck([]wire.AckRange{{Smallest: pkts[0].PN, Largest: pkts[3].PN}}, 0,
			time.Duration(round+1)*time.Millisecond)
	}
	if len(s.sent) != 0 {
		t.Fatalf("gc left %d entries", len(s.sent))
	}
	if s.Stats().AckedPackets != 200 {
		t.Fatalf("acked counter %d", s.Stats().AckedPackets)
	}
}

func TestStatsCounting(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 5)
	s.OnAck([]wire.AckRange{{Smallest: 4, Largest: 4}}, 0, 20*time.Millisecond)
	st := s.Stats()
	if st.SentPackets != 5 || st.AckedPackets != 1 || st.LostPackets != 2 {
		t.Fatalf("stats %+v", st)
	}
	s.OnPTO(30 * time.Millisecond)
	if s.Stats().PTOs != 1 {
		t.Fatal("pto counter")
	}
}

func TestNoRTTSampleWhenLargestNotNewlyAcked(t *testing.T) {
	rtt := cc.NewRTTEstimator()
	s := NewSpace(rtt)
	sent(s, 0, 3)
	s.OnAck([]wire.AckRange{{Smallest: 2, Largest: 2}}, 0, 30*time.Millisecond)
	first := rtt.Smoothed()
	// Ack covering already-acked largest: no new sample.
	res := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 2}}, 0, 90*time.Millisecond)
	if res.LatestRTT != 0 {
		t.Fatal("no RTT sample for stale largest")
	}
	if rtt.Smoothed() != first {
		t.Fatal("estimator should be unchanged")
	}
	if len(res.Acked) != 2 {
		t.Fatalf("acked %d, want 2 (pn 0,1)", len(res.Acked))
	}
}

func TestAckHugeFirstRange(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 3)
	// A map walk would look up ~2^62 packet numbers here; the merge walk
	// touches only the three sent packets.
	res := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 1 << 62}}, 0, 10*time.Millisecond)
	if len(res.Acked) != 3 || res.Acked[0].PN != 0 || res.Acked[2].PN != 2 {
		t.Fatalf("acked %v, want pn 0..2", res.Acked)
	}
	if res.LatestRTT != 0 {
		t.Fatal("largest reported pn was never sent: no RTT sample")
	}
	if s.visits > 8 {
		t.Fatalf("visited %d send-history entries for 3 packets", s.visits)
	}
}

func TestAckRangesContract(t *testing.T) {
	bad := [][]wire.AckRange{
		{{Smallest: 0, Largest: 1}, {Smallest: 3, Largest: 4}}, // ascending
		{{Smallest: 3, Largest: 6}, {Smallest: 1, Largest: 3}}, // overlapping
		{{Smallest: 5, Largest: 2}},                            // inverted
	}
	for _, ranges := range bad {
		s := NewSpace(cc.NewRTTEstimator())
		sent(s, 0, 8)
		recovered := func() (r any) {
			defer func() { r = recover() }()
			s.OnAck(ranges, 0, 10*time.Millisecond)
			return nil
		}()
		if assert.Enabled && recovered == nil {
			t.Fatalf("xlinkdebug build: ranges %v accepted", ranges)
		}
		if !assert.Enabled && recovered != nil {
			t.Fatalf("release build: ranges %v panicked: %v", ranges, recovered)
		}
	}
}

// TestAckCostIndependentOfAge runs a steady connection — a 64-packet
// window, a 3-packet loss burst every 500 packets, one ACK of the
// receiver's newest 32 ranges per 2 packets — and checks that the
// send-history entries one ACK visits do not grow with connection age. The
// ACK's oldest range reaches back to the connection start, so a walk over
// every acknowledged packet number would cost ~4x more at 4T than at T.
func TestAckCostIndependentOfAge(t *testing.T) {
	const (
		ticks  = 1000 // T, in 2-packet ticks
		window = 64
		sample = ticks / 4
	)
	s := NewSpace(cc.NewRTTEstimator())
	var rcv rangeset.Set
	var inFlight []uint64
	var ranges []wire.AckRange
	perAck := func(from, to int) float64 {
		var visits uint64
		for tick := from; tick < to; tick++ {
			now := time.Duration(tick) * time.Millisecond
			for i := 0; i < 2; i++ {
				sp := &SentPacket{PN: s.NextPN(), SentAt: now, Bytes: 1200, AckEliciting: true}
				s.OnPacketSent(sp)
				inFlight = append(inFlight, sp.PN)
			}
			if len(inFlight) <= window {
				continue
			}
			for _, pn := range inFlight[:2] {
				if pn%500 >= 3 {
					rcv.Add(pn, pn+1)
				}
			}
			inFlight = inFlight[2:]
			all := rcv.All()
			ranges = ranges[:0]
			for i := len(all) - 1; i >= 0 && len(ranges) < 32; i-- {
				ranges = append(ranges, wire.AckRange{Smallest: all[i].Start, Largest: all[i].End - 1})
			}
			before := s.visits
			s.OnAck(ranges, 0, now)
			if tick >= to-sample {
				visits += s.visits - before
			}
		}
		return float64(visits) / sample
	}
	atT := perAck(0, ticks)
	at4T := perAck(ticks, 4*ticks)
	t.Logf("send-history entries visited per ACK: %.1f at T, %.1f at 4T (%d ranges)", atT, at4T, len(ranges))
	if at4T > 1.5*atT {
		t.Fatalf("send-history entries visited per ACK grew with age: %.1f at T, %.1f at 4T", atT, at4T)
	}
	if s.Stats().LostPackets == 0 || len(ranges) < 8 {
		t.Fatalf("workload lost %d packets over %d ranges; the loss bursts did not take effect",
			s.Stats().LostPackets, len(ranges))
	}
}

// refSpace drives a Space through the map-indexed ACK walk the merge walk
// replaced: every packet number of every range is looked up in byPN and
// the acked packets are sorted afterwards. FuzzOnAck checks that the two
// agree exactly.
type refSpace struct {
	*Space
	byPN    map[uint64]*SentPacket
	trimmed uint64 // every pn below this has left byPN
}

func (r *refSpace) send(sp *SentPacket) {
	r.OnPacketSent(sp)
	r.byPN[sp.PN] = sp
}

// sync drops the byPN entries gc trimmed from the send history.
func (r *refSpace) sync() {
	floor := r.PeekPN()
	if len(r.sent) > 0 {
		floor = r.sent[0].PN
	}
	for ; r.trimmed < floor; r.trimmed++ {
		delete(r.byPN, r.trimmed)
	}
}

func (r *refSpace) onAck(ranges []wire.AckRange, ackDelay, now time.Duration, detect bool) AckResult {
	s := r.Space
	var res AckResult
	if len(ranges) == 0 {
		return res
	}
	largest := ranges[0].Largest
	newlyAckedLargest := false
	for _, rg := range ranges {
		for pn := rg.Smallest; ; pn++ {
			if sp, ok := r.byPN[pn]; ok && !sp.acked {
				sp.acked = true
				if !sp.declaredLost {
					res.Acked = append(res.Acked, sp)
					s.stats.AckedPackets++
				}
				if sp.PN == largest {
					newlyAckedLargest = true
					res.LatestRTT = now - sp.SentAt
				}
			}
			if pn == rg.Largest {
				break
			}
		}
	}
	if len(res.Acked) == 0 {
		return res
	}
	slices.SortFunc(res.Acked, func(a, b *SentPacket) int { return cmp.Compare(a.PN, b.PN) })
	if int64(largest) > s.largestAcked {
		s.largestAcked = int64(largest)
	}
	if newlyAckedLargest && res.LatestRTT > 0 {
		s.rtt.Update(res.LatestRTT, ackDelay)
	}
	s.ptoCount = 0
	if detect {
		res.Lost = s.detectLost(now)
		s.gc()
		r.sync()
	}
	return res
}

// runOnAckProgram interprets prog as a sequence of sends, ACKs (strictly
// descending, disjoint ranges that may reach past the sent packets), loss
// timeouts, PTOs and path evacuations, applying each to a merge-walk Space
// and a reference map-walk Space and failing on the first divergence.
func runOnAckProgram(t *testing.T, prog []byte) {
	pos := 0
	next := func() uint64 {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return uint64(prog[pos-1])
	}
	got := NewSpace(cc.NewRTTEstimator())
	want := &refSpace{Space: NewSpace(cc.NewRTTEstimator()), byPN: make(map[uint64]*SentPacket)}
	var now time.Duration
	var ranges []wire.AckRange
	for step := 0; pos < len(prog); step++ {
		now += time.Duration(next()%32) * time.Millisecond
		var g, w AckResult
		switch op := next() % 6; op {
		case 0, 1:
			n := 1 + next()%8
			for i := uint64(0); i < n; i++ {
				eliciting, size := next()%4 != 0, 100+int(next())
				got.OnPacketSent(&SentPacket{PN: got.NextPN(), SentAt: now, Bytes: size, AckEliciting: eliciting})
				want.send(&SentPacket{PN: want.NextPN(), SentAt: now, Bytes: size, AckEliciting: eliciting})
			}
		case 2:
			detect := next()%2 == 0
			delay := time.Duration(next()%8) * time.Millisecond
			top := got.PeekPN() + 4
			largest := top - 1 - next()%top
			ranges = ranges[:0]
			for nr := 1 + next()%5; nr > 0; nr-- {
				smallest := largest - min(next()%16, largest)
				ranges = append(ranges, wire.AckRange{Smallest: smallest, Largest: largest})
				gap := next() % 8
				if smallest < gap+1 {
					break
				}
				largest = smallest - 1 - gap
			}
			g = got.onAck(ranges, delay, now, detect)
			w = want.onAck(ranges, delay, now, detect)
		case 3:
			g.Lost = got.OnLossTimeout(now)
			w.Lost = want.OnLossTimeout(now)
			want.sync()
		case 4:
			g.Lost = got.DeclareAllLost(now)
			w.Lost = want.DeclareAllLost(now)
			want.sync()
		case 5:
			g.Lost = got.OnPTO(now)
			w.Lost = want.OnPTO(now)
		}
		samePackets(t, step, "acked", g.Acked, w.Acked)
		samePackets(t, step, "lost", g.Lost, w.Lost)
		if g.LatestRTT != w.LatestRTT {
			t.Fatalf("step %d: LatestRTT %v, reference %v", step, g.LatestRTT, w.LatestRTT)
		}
		if got.Stats() != want.Stats() {
			t.Fatalf("step %d: stats %+v, reference %+v", step, got.Stats(), want.Stats())
		}
		if got.LargestAcked() != want.LargestAcked() || got.LossTime() != want.LossTime() ||
			got.PTOCount() != want.PTOCount() || got.PTODeadline() != want.PTODeadline() ||
			got.rtt.Smoothed() != want.rtt.Smoothed() || len(got.sent) != len(want.sent) {
			t.Fatalf("step %d: space state diverged from the reference", step)
		}
	}
}

func samePackets(t *testing.T, step int, what string, got, want []*SentPacket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %d %s packets, reference %d", step, len(got), what, len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.PN != w.PN || g.SentAt != w.SentAt || g.Bytes != w.Bytes || g.LostTrigger != w.LostTrigger {
			t.Fatalf("step %d: %s[%d] = %+v, reference %+v", step, what, i, *g, *w)
		}
	}
}

// FuzzOnAck is a differential test of the merge walk against the reference
// map walk; the committed corpus under testdata/fuzz/FuzzOnAck runs in
// plain `go test`.
func FuzzOnAck(f *testing.F) {
	f.Add([]byte{0, 0, 7, 0, 2, 1, 0, 2, 0, 3, 255, 2, 0})
	f.Add([]byte{0, 1, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 5, 2, 1, 3, 0, 4, 2, 3, 1, 2, 1, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runOnAckProgram(t, prog)
	})
}
