package main

import (
	"fmt"

	"repro/internal/chaos"
)

// growthL is the probe's short transfer length L; the long transfer is 4L.
const growthL = 8 << 20

// growthProbe measures how recovery CPU per packet grows with connection
// length: the long_lossy scenario at 4L against the same at L. The short
// transfer runs four times on different seeds so both sides cover the same
// number of bytes and get a similar number of profile samples. The ideal
// ratio is 1.0: the cost of an ACK should not depend on session length.
// The probe uses the long_lossy reference loss realizations only, so its
// result compares across runs whatever their seed.
func growthProbe() (float64, error) {
	short, err := recoveryPerPacket(4, growthL)
	if err != nil {
		return 0, err
	}
	long, err := recoveryPerPacket(1, 4*growthL)
	if err != nil {
		return 0, err
	}
	if short == 0 {
		return 0, fmt.Errorf("growth probe: no recovery samples at length L")
	}
	return long / short, nil
}

// recoveryPerPacket runs n transfers of size bytes under the profiler and
// returns the recovery layer's CPU nanoseconds per datagram.
func recoveryPerPacket(n int, size uint64) (float64, error) {
	var pkts uint64
	var failed int
	led, _, err := profileOf(func() {
		for i := 0; i < n; i++ {
			res := chaos.Run(lossyScenario(lossySeed(lossyReferenceSeed, lossySeeded+i), size))
			if !res.Completed || res.VerifyErrors > 0 {
				failed++
			}
			cs, ss := res.ClientStats, res.ServerStats
			pkts += cs.SentPackets + cs.RecvPackets + ss.SentPackets + ss.RecvPackets
		}
	})
	if err != nil {
		return 0, err
	}
	if failed > 0 || pkts == 0 {
		return 0, fmt.Errorf("growth probe: %d of %d transfers of %d bytes failed", failed, n, size)
	}
	return float64(led.buckets["recovery"]) / float64(pkts), nil
}
