package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// The per-layer CPU ledger folds a runtime/pprof CPU profile by layer. A
// sample is charged to the first frame, walking from the leaf, that belongs
// to the program (a repro/... package) or to the harness (package main), so
// map, malloc and memmove time lands on the layer that called it. Two
// exceptions come first: a sample whose leaf side passes through syscall,
// internal/poll or net before reaching such a frame is charged to
// "syscall", and a sample with no such frame at all is charged to
// "runtime.gc" when a GC worker is on its stack and to "runtime.other"
// otherwise.

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples []profSample
	locs    map[uint64][]profLine
	funcs   map[uint64]profFunc
	strs    []string
	// valueIdx is the sample value the fold sums: CPU nanoseconds when
	// the profile has them, else the sample count.
	valueIdx int
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profLine struct{ fn uint64 }

type profFunc struct{ name, file int64 }

// pbuf is a protobuf wire-format reader.
type pbuf struct {
	b []byte
	i int
}

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if p.i >= len(p.b) {
			return 0, errTruncated
		}
		c := p.b[p.i]
		p.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// field reads one field: its number, wire type, varint value (wire type 0)
// or payload (wire type 2).
func (p *pbuf) field() (num int, typ int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		v, err = p.varint()
	case 1:
		if p.i+8 > len(p.b) {
			return 0, 0, 0, nil, errTruncated
		}
		p.i += 8
	case 2:
		n, err2 := p.varint()
		if err2 != nil {
			return 0, 0, 0, nil, err2
		}
		if n > uint64(len(p.b)-p.i) {
			return 0, 0, 0, nil, errTruncated
		}
		payload = p.b[p.i : p.i+int(n)]
		p.i += int(n)
	case 5:
		if p.i+4 > len(p.b) {
			return 0, 0, 0, nil, errTruncated
		}
		p.i += 4
	default:
		err = fmt.Errorf("unsupported wire type %d", typ)
	}
	return num, typ, v, payload, err
}

// varints appends a repeated varint field, packed or not.
func varints(dst []uint64, typ int, v uint64, payload []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	q := pbuf{b: payload}
	for q.i < len(q.b) {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	pr := &profile{locs: map[uint64][]profLine{}, funcs: map[uint64]profFunc{}}
	var sampleTypes [][]byte
	p := pbuf{b: raw}
	for p.i < len(p.b) {
		num, _, _, payload, err := p.field()
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		switch num {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, payload)
		case 2: // sample
			s, err := parseSample(payload)
			if err != nil {
				return nil, err
			}
			pr.samples = append(pr.samples, s)
		case 4: // location
			id, lines, err := parseLocation(payload)
			if err != nil {
				return nil, err
			}
			pr.locs[id] = lines
		case 5: // function
			id, fn, err := parseFunction(payload)
			if err != nil {
				return nil, err
			}
			pr.funcs[id] = fn
		case 6: // string_table
			pr.strs = append(pr.strs, string(payload))
		}
	}
	// A CPU profile's sample types are (samples, count) and (cpu,
	// nanoseconds).
	for i, st := range sampleTypes {
		q := pbuf{b: st}
		for q.i < len(q.b) {
			num, _, v, _, err := q.field()
			if err != nil {
				return nil, fmt.Errorf("profile: %w", err)
			}
			if num == 2 && int(v) < len(pr.strs) && pr.strs[v] == "nanoseconds" {
				pr.valueIdx = i
			}
		}
	}
	return pr, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	p := pbuf{b: b}
	for p.i < len(p.b) {
		num, typ, v, payload, err := p.field()
		if err != nil {
			return s, fmt.Errorf("profile sample: %w", err)
		}
		switch num {
		case 1:
			if s.locs, err = varints(s.locs, typ, v, payload); err != nil {
				return s, err
			}
		case 2:
			var vs []uint64
			if vs, err = varints(nil, typ, v, payload); err != nil {
				return s, err
			}
			for _, x := range vs {
				s.values = append(s.values, int64(x))
			}
		}
	}
	return s, nil
}

func parseLocation(b []byte) (uint64, []profLine, error) {
	var id uint64
	var lines []profLine
	p := pbuf{b: b}
	for p.i < len(p.b) {
		num, _, v, payload, err := p.field()
		if err != nil {
			return 0, nil, fmt.Errorf("profile location: %w", err)
		}
		switch num {
		case 1:
			id = v
		case 4: // line
			q := pbuf{b: payload}
			var ln profLine
			for q.i < len(q.b) {
				n, _, lv, _, err := q.field()
				if err != nil {
					return 0, nil, fmt.Errorf("profile line: %w", err)
				}
				if n == 1 {
					ln.fn = lv
				}
			}
			lines = append(lines, ln)
		}
	}
	return id, lines, nil
}

func parseFunction(b []byte) (uint64, profFunc, error) {
	var id uint64
	var fn profFunc
	p := pbuf{b: b}
	for p.i < len(p.b) {
		num, _, v, _, err := p.field()
		if err != nil {
			return 0, fn, fmt.Errorf("profile function: %w", err)
		}
		switch num {
		case 1:
			id = v
		case 2:
			fn.name = int64(v)
		case 4:
			fn.file = int64(v)
		}
	}
	return id, fn, nil
}

func (pr *profile) str(i int64) string {
	if i < 0 || int(i) >= len(pr.strs) {
		return ""
	}
	return pr.strs[i]
}

// frames returns a sample's stack, leaf first, with inlined calls expanded
// (a location lists its inlined functions innermost first).
func (pr *profile) frames(s profSample) []frame {
	var out []frame
	for _, id := range s.locs {
		for _, ln := range pr.locs[id] {
			fn := pr.funcs[ln.fn]
			out = append(out, frame{name: pr.str(fn.name), file: pr.str(fn.file)})
		}
	}
	return out
}

type frame struct{ name, file string }

// funcPackage returns the import path of a symbol such as
// "repro/internal/recovery.(*Space).onAck".
func funcPackage(name string) string {
	// Type arguments of a generic instantiation may hold import paths.
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// syscallPackages are charged to the "syscall" layer.
var syscallPackages = []string{"syscall", "internal/poll", "net", "internal/syscall/unix"}

// gcFunctions mark a background garbage-collection stack.
var gcFunctions = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot"}

// layerOf returns the layer a program or harness frame belongs to, or ""
// for a standard-library or runtime frame.
func layerOf(f frame) string {
	pkg := funcPackage(f.name)
	switch {
	case pkg == "main", pkg == "repro/perfbench": // the latter in test binaries
		return "bench"
	case pkg == "repro/xlink":
		return "xlink"
	case strings.HasPrefix(pkg, "repro/internal/"):
		pkg = strings.TrimPrefix(pkg, "repro/internal/")
	case strings.HasPrefix(pkg, "repro/"):
		return strings.TrimPrefix(pkg, "repro/")
	default:
		return ""
	}
	if pkg != "transport" {
		return pkg
	}
	// The transport is split by file: the send path, the send-stream
	// bookkeeping, the FEC lane, and everything else (ingest, ACK
	// processing, connection control) as the receive side. packet.go
	// holds both directions; its seal functions belong to the send path.
	switch base := path.Base(f.file); {
	case base == "send.go":
		return "transport.send"
	case base == "stream.go":
		return "transport.stream"
	case base == "fec.go":
		return "transport.fec"
	case base == "packet.go" && strings.Contains(f.name, ".seal"):
		return "transport.send"
	default:
		return "transport.recv"
	}
}

// classify returns the ledger bucket of one sample's stack.
func classify(frames []frame) string {
	inSyscall := false
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			if inSyscall {
				return "syscall"
			}
			return l
		}
		pkg := funcPackage(f.name)
		for _, s := range syscallPackages {
			if pkg == s {
				inSyscall = true
			}
		}
	}
	if inSyscall {
		return "syscall"
	}
	for _, f := range frames {
		for _, g := range gcFunctions {
			if f.name == g {
				return "runtime.gc"
			}
		}
	}
	return "runtime.other"
}

// ledger is the folded profile: sample value per bucket.
type ledger struct {
	total   int64
	buckets map[string]int64
}

// fold charges every sample of the profile to its bucket.
func fold(pr *profile) ledger {
	l := ledger{buckets: map[string]int64{}}
	for _, s := range pr.samples {
		if pr.valueIdx >= len(s.values) {
			continue
		}
		v := s.values[pr.valueIdx]
		l.buckets[classify(pr.frames(s))] += v
		l.total += v
	}
	return l
}

// share returns a bucket's share of all samples.
func (l ledger) share(bucket string) float64 {
	if l.total == 0 {
		return 0
	}
	return float64(l.buckets[bucket]) / float64(l.total)
}

// write renders the ledger as a table, largest bucket first.
func (l ledger) write(w io.Writer) {
	names := make([]string, 0, len(l.buckets))
	for n := range l.buckets {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if l.buckets[names[i]] != l.buckets[names[j]] {
			return l.buckets[names[i]] > l.buckets[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-18s %10s %7s\n", "layer", "cpu_ms", "share")
	for _, n := range names {
		fmt.Fprintf(w, "%-18s %10.1f %6.1f%%\n", n, float64(l.buckets[n])/1e6, 100*l.share(n))
	}
	fmt.Fprintf(w, "%-18s %10.1f %6.1f%%\n", "total", float64(l.total)/1e6, 100.0)
}
