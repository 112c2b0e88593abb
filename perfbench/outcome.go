package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

// outcome is what one pass of a workload measured. Each workload fills the
// fields that its end-to-end metrics are computed from.
type outcome struct {
	// ops are the repeated operations of the pass (fleet days, long_lossy
	// transfers, live connections), in order; a traced replay runs the
	// same number.
	ops []op
	// attempted and failed count the operations the failure share is
	// taken over: sessions, transfers or chunk requests.
	attempted, failed int
	// setups are the repeated set-up times.
	setups []time.Duration
	// panelRSS is the peak resident set size, in MiB, once the fixed
	// part of the run is done.
	panelRSS float64

	// Emulated QoE outputs (emulated clock): chunk or transfer RCTs and
	// first-frame latencies in seconds, rebuffer rate and redundancy.
	emuRCTs, emuFirstFrames  []float64
	rebufferRate, redundancy float64
	// emuGoodputMbps is video bits over session download time on the
	// emulated clock.
	emuGoodputMbps float64
	// Live outputs (wall clock, milliseconds).
	liveRCTs, liveFirstFrames []float64

	// counts are the public per-layer counters summed over the pass.
	counts counts

	// digest renders every emulated QoE output and count exactly; an
	// untraced pass and its traced replay must produce the same string.
	digest string
	// errs lists correctness violations; any makes the run incorrect.
	errs []string
}

// counts are transport, QoE and batching counters read from the public
// results and registries.
type counts struct {
	// Server-side stream bytes: first transmissions, retransmissions,
	// re-injected copies and FEC repair symbols; client-side bytes the
	// FEC decoder rebuilt.
	streamBytes, rtxBytes, reinjBytes, fecRepairBytes, fecRecoveredBytes uint64
	// Server-side packets sent and declared lost, over all paths.
	sentPkts, lostPkts uint64
	// Alg. 1 re-injection verdicts and how many enabled it.
	qoeDecisions, qoeEnables uint64
	// Live endpoints only: SendBatch flushes, packets flushed, ACK frames
	// whose loss detection was coalesced, and datagrams received.
	batches, batchPkts, coalescedAcks, recvPkts uint64
}

// add accumulates d into c.
func (c *counts) add(d counts) {
	c.streamBytes += d.streamBytes
	c.rtxBytes += d.rtxBytes
	c.reinjBytes += d.reinjBytes
	c.fecRepairBytes += d.fecRepairBytes
	c.fecRecoveredBytes += d.fecRecoveredBytes
	c.sentPkts += d.sentPkts
	c.lostPkts += d.lostPkts
	c.qoeDecisions += d.qoeDecisions
	c.qoeEnables += d.qoeEnables
	c.batches += d.batches
	c.batchPkts += d.batchPkts
	c.coalescedAcks += d.coalescedAcks
	c.recvPkts += d.recvPkts
}

// op is what one operation did and cost.
type op struct {
	// wall is the operation's wall time; cpu the process CPU time over it.
	wall, cpu time.Duration
	// sessions counts video sessions (plays or transfers) it finished.
	sessions int
	// payload is verified video payload it delivered, in bytes.
	payload uint64
	// packets is datagrams sent plus received by its endpoints.
	packets uint64
}

// total sums the operations.
func (o *outcome) total() op {
	var t op
	for _, u := range o.ops {
		t.wall += u.wall
		t.cpu += u.cpu
		t.sessions += u.sessions
		t.payload += u.payload
		t.packets += u.packets
	}
	return t
}

// rate returns the interquartile mean over operations of f(op): the mean
// of the middle half of the per-operation rates. Operations slowed by the
// machine (or one costly seeded input) fall in the trimmed quarters and do
// not move it, and it is steadier than the median of a dozen operations.
func (o *outcome) rate(f func(op) float64) float64 {
	xs := make([]float64, 0, len(o.ops))
	for _, u := range o.ops {
		xs = append(xs, f(u))
	}
	sort.Float64s(xs)
	xs = xs[len(xs)/4 : len(xs)-len(xs)/4]
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// timed runs fn and returns its wall and process CPU time.
func timed(fn func()) (wall, cpu time.Duration) {
	c0, _ := rusage()
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	c1, _ := rusage()
	return wall, c1 - c0
}

func (o *outcome) errorf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// medianDuration returns the median of ds in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return stats.Percentile(xs, 50)
}

// rusage returns the process CPU time (user + system) and peak RSS in MiB.
func rusage() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Linux reports ru_maxrss in KiB.
	return cpu, float64(ru.Maxrss) / 1024
}
