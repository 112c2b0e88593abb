// Command perfbench is the repository benchmark: three closed-loop
// workloads driven through the program's public API, end-to-end metrics
// from an untraced run, and a per-layer CPU ledger from a traced run.
//
//	perfbench --workload fleet|long_lossy|live_loopback --seed N --seconds S --trace 0|1 [-out DIR]
//
// It prints a readable report and, as the last line of standard output, one
// JSON object with the keys correct, attempted, failed and metrics. See
// BENCHMARK.md in this directory for every metric and workload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// workload is one named benchmark workload.
type workload struct {
	// run performs the workload for budget, or exactly n repeated
	// operations when n > 0; rec records spans when non-nil.
	run func(rec *spanRecorder, seed int64, budget time.Duration, n int) *outcome
	// setup brings up one session and returns once it is ready.
	setup func(seed int64) error
	// emulated workloads run on the sim clock, so their QoE outputs and
	// counts are a pure function of the seed.
	emulated bool
}

var workloads = map[string]workload{
	"fleet":         {run: fleetWorkload, setup: fleetSetup, emulated: true},
	"long_lossy":    {run: lossyWorkload, setup: lossySetup, emulated: true},
	"live_loopback": {run: liveWorkload, setup: liveSetup},
}

// setupReps is how many fresh processes set-up time is measured in; it is
// reported as their median.
const setupReps = 15

// profileHz is the CPU profile sampling rate of traced runs. The default
// 100 Hz leaves the short growth-probe transfers with too few samples; a
// rate above the kernel's timer frequency (often 250 Hz) loses samples.
const profileHz = 250

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	mainStart := time.Now()
	name := flag.String("workload", "", "workload: fleet, long_lossy or live_loopback")
	seed := flag.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 for the traced run that reports the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "traces"), "directory for span files and ledgers of traced runs")
	setupOnly := flag.Bool("setup-only", false, "bring up one session of the workload and exit (used to time set-up)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fleet|long_lossy|live_loopback --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	if *setupOnly {
		if err := w.setup(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(time.Since(mainStart).Nanoseconds())
		return
	}

	var res result
	var err error
	if *trace == 0 {
		res, err = measure(w, *name, *seed, budget)
	} else {
		res, err = traced(w, *name, *seed, budget, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure is the untraced run: set-up time, then the workload, then the
// end-to-end metrics.
func measure(w workload, name string, seed int64, budget time.Duration) (result, error) {
	setups, err := timeSetups(name, seed)
	if err != nil {
		return result{}, err
	}
	o := w.run(nil, seed, budget, 0)
	o.setups = setups

	m := endToEnd(w, o)
	for _, n := range sortedNames(m) {
		if v := m[n].Value; math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			o.errorf("metric %s is %v", n, v)
		}
	}
	report(o, m)
	return verdict(o, o.attempted, o.failed, m), nil
}

// timeSetups measures set-up time. Each sample is a fresh process of this
// program that brings up one session of the workload and exits, so package
// initialization and one-time caches count as set-up, not just the
// per-session work a warm process repeats. A sample is the initialization
// time of every package in the process, which the Go runtime reports under
// GODEBUG=inittrace=1, plus the time the process reports from main to the
// ready session. Process creation, runtime start-up and exit are the
// operating system's and the Go runtime's cost and are left out.
func timeSetups(name string, seed int64) ([]time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, "-setup-only", "-workload", name, "-seed", strconv.FormatInt(seed*100+int64(i), 10))
		cmd.Env = append(os.Environ(), "GODEBUG=inittrace=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			os.Stderr.Write(stderr.Bytes())
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		d, err := setupTime(stdout.String(), stderr.String())
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// initClock matches one package's line of the runtime's init trace, as in
// "init repro/internal/obs @1.4 ms, 0.002 ms clock, 384 bytes, 28 allocs".
var initClock = regexp.MustCompile(`(?m)^init \S+ @[0-9.]+ ms, ([0-9.]+) ms clock`)

// setupTime adds the package initialization time in a set-up process's
// init trace (stderr) to the main-to-ready nanoseconds it printed (stdout).
func setupTime(stdout, stderr string) (time.Duration, error) {
	ns, err := strconv.ParseInt(strings.TrimSpace(stdout), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("set-up process printed %q: %w", stdout, err)
	}
	inits := initClock.FindAllStringSubmatch(stderr, -1)
	if len(inits) == 0 {
		return 0, fmt.Errorf("set-up process printed no init trace")
	}
	d := time.Duration(ns)
	for _, m := range inits {
		ms, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return 0, fmt.Errorf("init trace %q: %w", m[0], err)
		}
		d += time.Duration(ms * float64(time.Millisecond))
	}
	return d, nil
}

// endToEnd computes the gated end-to-end metrics of an untraced pass.
// Throughput is work per second of process CPU time: per core on the
// emulated workloads, which run on one goroutine, and the pair's combined
// cost on the live one; a run the machine deschedules for a while does not
// see it. Goodput and request completion times on the live pair are on the
// wall clock, as a user sees them.
func endToEnd(w workload, o *outcome) map[string]metric {
	perCPU := func(x float64, u op) float64 { return x / u.cpu.Seconds() }
	m := map[string]metric{
		"setup_s":            {medianDuration(o.setups), "s"},
		"sessions_per_s":     {o.rate(func(u op) float64 { return perCPU(float64(u.sessions), u) }), "1/s"},
		"emulated_mib_per_s": {o.rate(func(u op) float64 { return perCPU(float64(u.payload)/(1<<20), u) }), "MiB/s"},
		"pkts_per_cpu_s":     {o.rate(func(u op) float64 { return perCPU(float64(u.packets), u) }), "1/s"},
		"redundancy":         {o.redundancy, "ratio"},
		"max_rss_mib":        {o.panelRSS, "MiB"},
	}
	if w.emulated {
		m["goodput_mbps"] = metric{o.emuGoodputMbps, "Mbit/s"}
		m["rct_p50_s"] = metric{stats.Percentile(o.emuRCTs, 50), "s"}
		m["rct_p99_s"] = metric{stats.Percentile(o.emuRCTs, 99), "s"}
	} else {
		m["goodput_mbps"] = metric{o.rate(func(u op) float64 { return float64(u.payload) * 8 / 1e6 / u.wall.Seconds() }), "Mbit/s"}
		m["rct_p50_s"] = metric{stats.Percentile(o.liveRCTs, 50) / 1e3, "s"}
		m["rct_p99_s"] = metric{stats.Percentile(o.liveRCTs, 99) / 1e3, "s"}
	}
	return m
}

// report prints the readable part of the output: the amount of work, the
// failed share, the gated metrics, and the QoE figures that exist only on
// some workloads and so are reported here without a bound.
func report(o *outcome, m map[string]metric) {
	t := o.total()
	fmt.Printf("work: %d operations, %d sessions, %.1f MiB verified, %d datagrams in %.2f s (%.2f s CPU)\n",
		len(o.ops), t.sessions, float64(t.payload)/(1<<20), t.packets, t.wall.Seconds(), t.cpu.Seconds())
	fmt.Printf("failed: %d of %d (%.2f%%)\n", o.failed, o.attempted, 100*float64(o.failed)/float64(max(o.attempted, 1)))
	fmt.Println("gated metrics:")
	printMetrics(os.Stdout, m)
	extra := map[string]metric{}
	switch {
	case len(o.liveRCTs) > 0:
		extra["chunk_rct_ms_p50"] = metric{stats.Percentile(o.liveRCTs, 50), "ms"}
		extra["chunk_rct_ms_p95"] = metric{stats.Percentile(o.liveRCTs, 95), "ms"}
		extra["first_frame_ms_p50"] = metric{stats.Percentile(o.liveFirstFrames, 50), "ms"}
	case len(o.emuFirstFrames) > 0:
		extra["chunk_rct_ms_p50"] = metric{stats.Percentile(o.emuRCTs, 50) * 1e3, "ms"}
		extra["chunk_rct_ms_p95"] = metric{stats.Percentile(o.emuRCTs, 95) * 1e3, "ms"}
		extra["first_frame_ms_p50"] = metric{stats.Percentile(o.emuFirstFrames, 50) * 1e3, "ms"}
		extra["rebuffer_rate"] = metric{o.rebufferRate, "ratio"}
	default:
		extra["rebuffer_rate"] = metric{o.rebufferRate, "ratio"}
	}
	fmt.Println("reported without a bound:")
	printMetrics(os.Stdout, extra)
	for _, e := range o.errs {
		fmt.Println("error:", e)
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(w io.Writer, m map[string]metric) {
	for _, n := range sortedNames(m) {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func verdict(o *outcome, attempted, failed int, m map[string]metric) result {
	return result{Correct: len(o.errs) == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: m}
}

// profileOf runs fn under the CPU profiler and returns the folded ledger
// and the raw profile.
func profileOf(fn func()) (ledger, []byte, error) {
	var buf bytes.Buffer
	// StartCPUProfile asks for 100 Hz and warns on standard error that the
	// rate set here is already in effect; the higher rate is kept.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return ledger{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	pr, err := parseProfile(buf.Bytes())
	if err != nil {
		return ledger{}, nil, err
	}
	return fold(pr), buf.Bytes(), nil
}

// layerShares maps per-layer share metrics to ledger buckets.
var layerShares = []struct{ metric, bucket string }{
	{"recovery.cpu_share", "recovery"},
	{"transport.send.cpu_share", "transport.send"},
	{"transport.recv.cpu_share", "transport.recv"},
	{"transport.stream.cpu_share", "transport.stream"},
	{"transport.fec.cpu_share", "transport.fec"},
	{"rangeset.cpu_share", "rangeset"},
	{"sim.cpu_share", "sim"},
	{"netem.cpu_share", "netem"},
	{"video.cpu_share", "video"},
	{"core.cpu_share", "core"},
	{"abtest.cpu_share", "abtest"},
	{"wire.cpu_share", "wire"},
	{"crypto.cpu_share", "crypto"},
	{"cc.cpu_share", "cc"},
	{"qoe.cpu_share", "qoe"},
	{"obs.cpu_share", "obs"},
	{"xlink.cpu_share", "xlink"},
	{"syscall.cpu_share", "syscall"},
	{"runtime.gc_share", "runtime.gc"},
}

// traced is the traced run. It repeats the untraced pass, then replays
// exactly the same operations under the CPU profiler with spans recorded,
// checks the emulated outputs did not move, runs the cost-growth probes,
// and reports the per-layer metrics.
func traced(w workload, name string, seed int64, budget time.Duration, outDir string) (result, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := w.run(nil, seed, budget, 0)
	runtime.ReadMemStats(&ms1)

	rec := newSpanRecorder()
	var tr *outcome
	led, prof, err := profileOf(func() { tr = w.run(rec, seed, budget, len(plain.ops)) })
	if err != nil {
		return result{}, err
	}
	o := plain
	o.errs = append(o.errs, tr.errs...)
	guard := "not applicable: live timing is not deterministic"
	if w.emulated {
		guard = "held"
		if plain.digest != tr.digest {
			guard = "FAILED"
			o.errorf("determinism guard: the traced replay's QoE outputs and counts differ from the untraced run")
		}
	}

	growth, err := growthProbe()
	if err != nil {
		o.errorf("%v", err)
	}
	age, err := liveAgeProbe(seed)
	if err != nil {
		o.errorf("%v", err)
	}

	c, t := plain.counts, plain.total()
	mallocs := float64(ms1.Mallocs - ms0.Mallocs)
	m := map[string]metric{
		"fec.recovered_per_repair_byte": {ratio(c.fecRecoveredBytes, c.fecRepairBytes), "ratio"},
		"transport.useful_byte_ratio":   {ratio(c.streamBytes, c.streamBytes+c.rtxBytes+c.reinjBytes+c.fecRepairBytes), "ratio"},
		"transport.lost_pkt_ratio":      {ratio(c.lostPkts, c.sentPkts), "ratio"},
		"qoe.enable_ratio":              {ratio(c.qoeEnables, c.qoeDecisions), "ratio"},
		"runtime.allocs_per_session":    {mallocs / float64(max(t.sessions, 1)), "count"},
		"runtime.allocs_per_pkt":        {mallocs / float64(max(t.packets, 1)), "count"},
		"runtime.alloc_bytes_per_mib":   {float64(ms1.TotalAlloc-ms0.TotalAlloc) / math.Max(float64(t.payload)/(1<<20), 1), "B/MiB"},
		"xlink.batch_size_mean":         {ratio(c.batchPkts, c.batches), "count"},
		"xlink.coalesced_acks_per_pkt":  {ratio(c.coalescedAcks, c.recvPkts), "ratio"},
		"trace.overhead":                {overhead(plain, tr), "ratio"},
		"recovery.cpu_growth_4x":        {growth, "ratio"},
		"transport.rct_age_ratio":       {age.ratio, "ratio"},
	}
	for _, ls := range layerShares {
		m[ls.metric] = metric{led.share(ls.bucket), "ratio"}
	}

	if err := writeTraceFiles(outDir, fmt.Sprintf("%s-seed%d", name, seed), rec, led, age, prof, m); err != nil {
		return result{}, err
	}
	fmt.Printf("traced %s: %d operations replayed under the profiler; determinism guard %s\n", name, len(plain.ops), guard)
	led.write(os.Stdout)
	writeAgeProbe(os.Stdout, age)
	printMetrics(os.Stdout, m)
	for _, e := range o.errs {
		fmt.Println("error:", e)
	}
	return verdict(o, plain.attempted+tr.attempted, plain.failed+tr.failed, m), nil
}

// overhead is the median over operations of the traced replay's wall time
// over the untraced run's. Pairing by operation keeps the untraced run's
// cold first operations from making tracing look free.
func overhead(plain, traced *outcome) float64 {
	var rs []float64
	for i, u := range traced.ops {
		if i < len(plain.ops) && plain.ops[i].wall > 0 {
			rs = append(rs, u.wall.Seconds()/plain.ops[i].wall.Seconds())
		}
	}
	return stats.Percentile(rs, 50)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeAgeProbe prints what the RCT age probe's long live connection
// measured, with its own CPU ledger.
func writeAgeProbe(w io.Writer, age ageProbe) {
	fmt.Fprintf(w, "age probe: one live connection, %d chunks of %d KiB: %.1f Mbit/s, %.0f datagrams per CPU second\n",
		liveAgeProbeChunks, liveChunk>>10, age.goodputMbps, age.pktsPerCPUs)
	age.led.write(w)
}

// writeTraceFiles writes the span file, the CPU profiles and the ledger
// (folded per-layer table, span summary, the age probe's connection with
// its own ledger, and per-layer metrics) of a traced run.
func writeTraceFiles(dir, base string, rec *spanRecorder, led ledger, age ageProbe, prof []byte, m map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	var spans bytes.Buffer
	if err := rec.writeJSON(&spans); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".spans.jsonl"), spans.Bytes(), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".cpu.pprof"), prof, 0o644); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".age-probe.cpu.pprof"), age.prof, 0o644); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var tab bytes.Buffer
	led.write(&tab)
	tab.WriteString("\n")
	writeSpanSummary(&tab, rec.summary())
	tab.WriteString("\n")
	writeAgeProbe(&tab, age)
	tab.WriteString("\n")
	printMetrics(&tab, m)
	if err := os.WriteFile(filepath.Join(dir, base+".ledger.txt"), tab.Bytes(), 0o644); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}
