package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// span is one timed call the harness made into the program.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// Req identifies the request (day, transfer or chunk) the span belongs
	// to; spans of one request share it.
	Req     int64 `json:"req"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs call it.
type spanRecorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{base: time.Now()} }

// start opens a span and returns its ID (0 on a nil recorder).
func (r *spanRecorder) start(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartNS: now, EndNS: -1})
	return id
}

// end closes the span id.
func (r *spanRecorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// writeJSON writes every span as one JSON object per line.
func (r *spanRecorder) writeJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// spanStat summarizes the closed spans of one name.
type spanStat struct {
	name          string
	count         int
	total, self   time.Duration
	p50, p95, max time.Duration
}

// summary returns per-name counts, total and self time (duration minus the
// part covered by child spans) and duration percentiles, sorted by name.
func (r *spanRecorder) summary() []spanStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]int64)
	for _, s := range r.spans {
		if s.Parent != 0 && s.EndNS >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byName := make(map[string][]span)
	for _, s := range r.spans {
		if s.EndNS >= 0 {
			byName[s.Name] = append(byName[s.Name], s)
		}
	}
	var out []spanStat
	for name, ss := range byName {
		st := spanStat{name: name, count: len(ss)}
		durs := make([]float64, 0, len(ss))
		for _, s := range ss {
			d := time.Duration(s.EndNS - s.StartNS)
			st.total += d
			st.self += d - covered(s, children[s.ID], r.spans)
			durs = append(durs, float64(d))
		}
		st.p50 = time.Duration(stats.Percentile(durs, 50))
		st.p95 = time.Duration(stats.Percentile(durs, 95))
		st.max = time.Duration(slices.Max(durs))
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []int64, all []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, id := range kids {
		c := all[id-1]
		a, b := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// writeSummary renders the span summary as a text table.
func writeSpanSummary(w io.Writer, stats []spanStat) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s %10s %10s %10s\n", "span", "count", "total", "self", "p50", "p95", "max")
	for _, s := range stats {
		fmt.Fprintf(w, "%-22s %8d %12v %12v %10v %10v %10v\n", s.name, s.count,
			s.total.Round(time.Microsecond), s.self.Round(time.Microsecond),
			s.p50.Round(time.Microsecond), s.p95.Round(time.Microsecond), s.max.Round(time.Microsecond))
	}
}
