package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/video"
	"repro/xlink"
)

// fleetSessionsPerDay is the population of one abtest.Run call (one
// emulated day). Eight is the paper-figure QuickScale day.
const fleetSessionsPerDay = 8

// A fleet run plays fleetSeededDays days drawn from the run's seed, then
// reference days drawn from fleetReferenceSeed, the same on every run.
// The population mixture makes a single day's cost and QoE swing widely
// (one outage-class session sets a day's tail), so a run drawn entirely
// from its seed would not repeat within any useful bound at this scale;
// the reference days hold the run steady and the seeded day makes every
// output move with the seed.
const (
	fleetSeededDays    = 1
	fleetReferenceSeed = 2021
	// fleetPanelDays is how many days every run completes whatever the
	// clock says. The emulated QoE metrics and peak memory are taken over
	// exactly these, so they are a pure function of the seed; days after
	// the panel only add to the throughput figures.
	fleetPanelDays = 9
)

// fleetPopulation is the i-th day of a run.
func fleetPopulation(seed int64, i int) abtest.Population {
	if i < fleetSeededDays {
		return abtest.Population{Day: i + 1, Sessions: fleetSessionsPerDay, Seed: seed}
	}
	return abtest.Population{Day: i - fleetSeededDays + 1, Sessions: fleetSessionsPerDay, Seed: fleetReferenceSeed}
}

// fleetArms are the two arms of the Fig 11 / Table 3 A/B comparison.
var fleetArms = []abtest.Arm{
	{Name: "SP", Scheme: core.SchemeSinglePath},
	{Name: "XLINK", Scheme: core.SchemeXLINK},
}

// registryCounter sums every sample of a counter family in a snapshot.
func registryCounter(snap obs.Snapshot, family obs.MetricName) uint64 {
	var v uint64
	for _, c := range snap.Counters {
		if hasFamily(c.Name, family) {
			v += c.Value
		}
	}
	return v
}

// registryHist sums the count and sum of every sample of a histogram
// family in a snapshot.
func registryHist(snap obs.Snapshot, family obs.MetricName) (count uint64, sum float64) {
	for _, h := range snap.Hists {
		if hasFamily(h.Name, family) {
			count += h.Count
			sum += h.Sum
		}
	}
	return count, sum
}

// hasFamily reports whether a registry sample name belongs to a metric
// family, labeled or not.
func hasFamily(name, family obs.MetricName) bool {
	return name == family || strings.HasPrefix(string(name), string(family)+"{")
}

// fleetWorkload runs the A/B fleet one emulated day per abtest.Run call:
// the panel days, then further days until the clock runs out (or exactly
// days when days > 0, for the traced replay of an untraced run).
func fleetWorkload(rec *spanRecorder, seed int64, budget time.Duration, days int) *outcome {
	o := &outcome{}
	var xl abtest.ArmResult
	var xlRCTSum float64
	start := time.Now()
	for day := 0; ; day++ {
		if days > 0 && day >= days {
			break
		}
		if days == 0 && day >= fleetPanelDays && time.Since(start) >= budget {
			break
		}
		if day == fleetPanelDays {
			_, o.panelRSS = rusage()
		}
		sp := rec.start("abtest.Run", 0, int64(day))
		var res map[string]*abtest.ArmResult
		u := op{}
		u.wall, u.cpu = timed(func() { res = abtest.Run(fleetPopulation(seed, day), fleetArms) })
		rec.end(sp)
		for _, arm := range fleetArms {
			r := res[arm.Name]
			o.attempted += fleetSessionsPerDay
			// abtest.Run drops a session whose set-up errors and counts
			// the rest; an error and an incomplete transfer both fail.
			o.failed += fleetSessionsPerDay - r.Completed
			u.sessions += r.Completed
			u.payload += r.StreamBytes
			c := &o.counts
			c.streamBytes += r.StreamBytes
			c.rtxBytes += r.RtxBytes
			c.reinjBytes += r.ReinjBytes
			if r.Registry == nil {
				continue
			}
			snap := r.Registry.Snapshot()
			sent := registryCounter(snap, obs.MetricPathSentPackets)
			u.packets += sent
			c.sentPkts += sent
			c.lostPkts += registryCounter(snap, obs.MetricPathLostPackets)
			c.qoeDecisions += registryCounter(snap, obs.MetricQoEDecisions)
			c.qoeEnables += registryCounter(snap, obs.MetricQoEEnables)
			c.fecRecoveredBytes += registryCounter(snap, obs.MetricFECRecoveredBytes)
			if arm.Name == "XLINK" && day < fleetPanelDays {
				_, s := registryHist(snap, obs.MetricSessionRCTSeconds)
				xlRCTSum += s
			}
		}
		o.ops = append(o.ops, u)
		if day < fleetPanelDays {
			mergeArm(&xl, res["XLINK"])
		}
	}
	if o.panelRSS == 0 {
		_, o.panelRSS = rusage()
	}
	o.emuRCTs = xl.RCTs
	o.emuFirstFrames = xl.FirstFrames
	o.rebufferRate = xl.RebufferRate()
	o.redundancy = xl.CostOverhead()
	if xlRCTSum > 0 {
		o.emuGoodputMbps = float64(xl.StreamBytes) * 8 / 1e6 / xlRCTSum
	}
	o.digest = fmt.Sprintf("rct=%v ff=%v startup=%v rebuf=%d play=%d bytes=%d/%d/%d rctsum=%v counts=%+v",
		xl.RCTs, xl.FirstFrames, xl.Startups, xl.RebufferTime, xl.PlayTime,
		xl.StreamBytes, xl.RtxBytes, xl.ReinjBytes, xlRCTSum, o.counts)
	return o
}

// mergeArm folds one day's arm result into a running total.
func mergeArm(dst, src *abtest.ArmResult) {
	dst.RCTs = append(dst.RCTs, src.RCTs...)
	dst.FirstFrames = append(dst.FirstFrames, src.FirstFrames...)
	dst.Startups = append(dst.Startups, src.Startups...)
	dst.RebufferTime += src.RebufferTime
	dst.PlayTime += src.PlayTime
	dst.StreamBytes += src.StreamBytes
	dst.RtxBytes += src.RtxBytes
	dst.ReinjBytes += src.ReinjBytes
}

// fleetSetup brings up one fleet session: an XLINK session assembled over
// a two-path topology that fetches a single small chunk, which covers
// building the emulated pair, the player and the requester, and the
// handshake.
func fleetSetup(seed int64) error {
	cfg := xlink.SessionConfig{
		Scheme: xlink.SchemeXLINK,
		Paths:  xlink.TwoPathNetwork(20, 10, 40*time.Millisecond, 80*time.Millisecond),
		Video: video.Video{ID: "setup", Size: 16 << 10, BitrateBps: 2_000_000, FPS: 30,
			FirstFrameSize: 16 << 10},
		Seed:     seed,
		Deadline: 2 * time.Second,
	}
	res, err := xlink.RunEmulatedSession(cfg)
	if err != nil {
		return fmt.Errorf("fleet set-up session: %w", err)
	}
	if !res.Completed {
		return fmt.Errorf("fleet set-up session did not complete")
	}
	return nil
}
