package main

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/faults"
	"repro/internal/transport"
)

// lossyBytes is the length of one long_lossy transfer. Costs that grow
// with connection age (ACK-range walks, per-loss stream bookkeeping) take
// most of the CPU from about this length on.
const lossyBytes = 16 << 20

// A long_lossy run makes lossySeeded transfers whose loss realization is
// drawn from the run's seed, then reference transfers drawn from
// lossyReferenceSeed, the same on every run. The CPU cost of a transfer
// varies by about 30% between loss realizations of the same length (the
// ACK-range history depends on where the bursts fall), so a run drawn
// entirely from its seed would not repeat within any useful bound.
const (
	lossySeeded        = 1
	lossyReferenceSeed = 2021
	// lossyPanel is how many transfers every run completes whatever the
	// clock says; the emulated QoE metrics and peak memory are taken over
	// exactly these.
	lossyPanel = 8
)

// lossyBitrate is the video bitrate chaos.Run plays at (its fixed 2 Mbps).
const lossyBitrate = 2_000_000

// lossyScenario is the long lossy transfer: a high-BDP two-path topology
// with Gilbert-Elliott burst loss on both paths for the whole run and the
// FEC lane negotiated. The deadline lets the whole video play out, so the
// player's rebuffering is charged over the full play time.
func lossyScenario(seed int64, size uint64) chaos.Scenario {
	deadline := playTime(size) + 30*time.Second
	return chaos.Scenario{
		Name:  "long-lossy",
		Seed:  seed,
		Paths: transport.TwoPathConfig(20, 10, 100*time.Millisecond, 200*time.Millisecond),
		Script: faults.Script{Name: "long-lossy", Ops: []faults.Op{
			faults.BurstLoss{Path: 0, From: 0, To: deadline, GE: faults.DefaultGE()},
			faults.BurstLoss{Path: 1, From: 0, To: deadline, GE: faults.DefaultGE()},
		}},
		VideoBytes: size,
		Deadline:   deadline,
		Tweak: func(ccfg, scfg *transport.Config) {
			ccfg.Params.EnableFEC = true
			scfg.Params.EnableFEC = true
		},
	}
}

// playTime is how long a video of size bytes plays at lossyBitrate.
func playTime(size uint64) time.Duration {
	return time.Duration(size * 8 * uint64(time.Second) / lossyBitrate)
}

// lossySeed is the scenario seed of the idx-th transfer of a run.
func lossySeed(seed int64, idx int) int64 {
	if idx < lossySeeded {
		return seed*1000 + int64(idx)
	}
	return lossyReferenceSeed*1000 + int64(idx)
}

// lossyWorkload runs the panel transfers, then more until the clock runs
// out (or exactly n transfers when n > 0).
func lossyWorkload(rec *spanRecorder, seed int64, budget time.Duration, n int) *outcome {
	o := &outcome{}
	var rctSum time.Duration
	var rebuf, play time.Duration
	var redundant, sent uint64
	var panel []chaos.Result
	start := time.Now()
	for idx := 0; ; idx++ {
		if n > 0 && idx >= n {
			break
		}
		if n == 0 && idx >= lossyPanel && time.Since(start) >= budget {
			break
		}
		if idx == lossyPanel {
			_, o.panelRSS = rusage()
		}
		sc := lossyScenario(lossySeed(seed, idx), lossyBytes)
		sp := rec.start("chaos.Run", 0, int64(idx))
		var res chaos.Result
		u := op{}
		u.wall, u.cpu = timed(func() { res = chaos.Run(sc) })
		rec.end(sp)
		o.attempted++
		if !res.Completed || res.VerifyErrors > 0 {
			o.failed++
		} else {
			u.sessions = 1
			u.payload = lossyBytes
		}
		if res.VerifyErrors > 0 {
			o.errorf("transfer %d: %d content verification errors", idx, res.VerifyErrors)
		}
		cs, ss := res.ClientStats, res.ServerStats
		u.packets = cs.SentPackets + cs.RecvPackets + ss.SentPackets + ss.RecvPackets
		o.ops = append(o.ops, u)
		c := &o.counts
		c.streamBytes += ss.StreamBytesSent
		c.rtxBytes += ss.RtxBytesSent
		c.reinjBytes += ss.ReinjectedBytesSent
		c.fecRepairBytes += ss.FECRepairBytesSent
		c.fecRecoveredBytes += cs.FECRecoveredBytes
		for _, p := range res.Scorecard.Paths[:res.Scorecard.NumPaths] {
			c.sentPkts += p.SentPackets
			c.lostPkts += p.LostPackets
		}
		c.qoeDecisions += res.QoEDecisions
		c.qoeEnables += res.QoEEnables
		if idx < lossyPanel {
			panel = append(panel, res)
			if res.Completed {
				o.emuRCTs = append(o.emuRCTs, res.Scorecard.RCT.Seconds())
				rctSum += res.Scorecard.RCT
			}
			rebuf += res.RebufferTime
			play += playTime(lossyBytes)
			redundant += ss.ReinjectedBytesSent + ss.FECRepairBytesSent
			sent += ss.StreamBytesSent + ss.RtxBytesSent + ss.ReinjectedBytesSent + ss.FECRepairBytesSent
		}
	}
	if o.panelRSS == 0 {
		_, o.panelRSS = rusage()
	}
	o.rebufferRate = float64(rebuf) / float64(play)
	if sent > 0 {
		o.redundancy = float64(redundant) / float64(sent)
	}
	if rctSum > 0 {
		o.emuGoodputMbps = float64(len(o.emuRCTs)) * lossyBytes * 8 / 1e6 / rctSum.Seconds()
	}
	o.digest = fmt.Sprintf("panel=%+v counts=%+v", panel, o.counts)
	return o
}

// lossySetup brings up one long_lossy session: the same scenario with a
// single small chunk to fetch, which covers building the emulated pair and
// fault injector and the handshake over the lossy high-RTT paths.
func lossySetup(seed int64) error {
	sc := lossyScenario(seed, 16<<10)
	sc.Deadline = 10 * time.Second
	if res := chaos.Run(sc); !res.Completed {
		return fmt.Errorf("long_lossy set-up transfer did not complete")
	}
	return nil
}
