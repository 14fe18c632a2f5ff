package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file decodes the runtime's pprof profiles (gzipped profile.proto)
// with the standard library alone and folds their samples into the
// simulator's layers.

// frame is one function in a sample's stack.
type frame struct {
	fn   string // fully qualified symbol, e.g. lazypoline/internal/cpu.(*CPU).Step
	file string
}

// sample is one profile sample: its stack, leaf first, and its values
// (one per sample type).
type sample struct {
	stack  []frame
	values []int64
}

// profile is the subset of profile.proto the folder needs.
type profile struct {
	sampleTypes []string
	samples     []sample
}

// valueIndex returns the index of the named sample type, or -1.
func (p *profile) valueIndex(name string) int {
	for i, t := range p.sampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}

// protoReader walks protobuf wire-format fields.
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflow")
	return 0
}

// next returns the next field's number, wire type, varint value (wire
// type 0) and payload (wire type 2). ok is false at the end or on error.
func (r *protoReader) next() (field int, wire int, v uint64, payload []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
		return 0, 0, 0, nil, false
	}
	return field, wire, v, payload, r.err == nil
}

// varints appends a repeated integer field, packed (wire type 2) or not.
func varints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pr := protoReader{b: payload}
	for len(pr.b) > 0 && pr.err == nil {
		dst = append(dst, pr.varint())
	}
	return dst, pr.err
}

// walk calls fn for every field of a protobuf message.
func walk(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	r := protoReader{b: b}
	for {
		field, wire, v, payload, ok := r.next()
		if !ok {
			return r.err
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
}

// parseProfile decodes a gzipped (or raw) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct{ locs, values []uint64 }
	type rawFunc struct{ name, file uint64 }
	var (
		typeIdx []uint64
		raws    []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]rawFunc{}
		strs    []string
	)
	err := walk(data, func(field, _ int, _ uint64, payload []byte) error {
		switch field {
		case 1: // sample_type
			return walk(payload, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walk(payload, func(f, w int, v uint64, p []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = varints(s.locs, w, v, p)
				case 2:
					s.values, err = varints(s.values, w, v, p)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(payload, func(f, _ int, v uint64, p []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(p, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var fn rawFunc
			err := walk(payload, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = v
				case 4:
					fn.file = v
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string_table
			strs = append(strs, string(payload))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for _, rs := range raws {
		s := sample{}
		for _, v := range rs.values {
			s.values = append(s.values, int64(v))
		}
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				fn := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// Layer names used by the folder.
const (
	layerSetup    = "setup"
	layerCPU      = "cpu"
	layerMem      = "mem"
	layerKernel   = "kernel"
	layerSched    = "sched"
	layerMech     = "mech"
	layerNetstack = "netstack"
	layerFS       = "fs"
	layerFleet    = "fleet"
	layerRuntime  = "runtime"
	layerTrace    = "trace"
	layerBench    = "bench"
	layerOther    = "other"

	// The runtime layer's CPU samples are split three ways by stack.
	runtimeGC    = "runtime.gc"
	runtimeAlloc = "runtime.alloc"
	runtimeOther = "runtime.other"
)

// packageLayers maps a Go package (with the module's internal/ prefix
// removed) to the layer it belongs to.
var packageLayers = map[string]string{
	"guest": layerSetup, "asm": layerSetup, "loader": layerSetup,
	"cpu": layerCPU, "isa": layerCPU,
	"mem":    layerMem,
	"kernel": layerKernel, "bpf": layerKernel, "policy": layerKernel, "chaos": layerKernel,
	"core": layerMech, "zpoline": layerMech, "sud": layerMech, "interpose": layerMech,
	"ptracer": layerMech, "seccomputil": layerMech, "ldpreload": layerMech,
	"netstack": layerNetstack, "webbench": layerNetstack,
	"fs":        layerFS,
	"fleet":     layerFleet,
	"telemetry": layerTrace, "otrace": layerTrace,
	"runtime": layerRuntime,
	// The benchmark itself: package main, or its import path in a test.
	"main": layerBench, "lazypoline/perfbench": layerBench,
}

// schedFuncs are the scheduler's entry points in kernel.go; everything
// in kernel/parallel.go is scheduler code too.
var schedFuncs = []string{".(*Kernel).Run", ".(*Kernel).RunSlice", ".(*Kernel).runQuantum"}

// packageOf returns the package path of a symbol, e.g.
// "lazypoline/internal/cpu.(*CPU).Step" -> "lazypoline/internal/cpu".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps one frame to its layer; "" means a standard-library
// package outside the runtime, which takes its caller's layer.
func layerOf(f frame) string {
	pkg := packageOf(f.fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return layerRuntime
	}
	pkg = strings.TrimPrefix(pkg, "lazypoline/internal/")
	if l, ok := packageLayers[pkg]; ok {
		if l == layerKernel && pkg == "kernel" && isSched(f) {
			return layerSched
		}
		return l
	}
	if strings.HasPrefix(pkg, "lazypoline") {
		return layerOther
	}
	return ""
}

func isSched(f frame) bool {
	if strings.HasSuffix(f.file, "/kernel/parallel.go") {
		return true
	}
	for _, s := range schedFuncs {
		if strings.HasSuffix(f.fn, s) {
			return true
		}
	}
	return false
}

// runtime functions at the root of garbage-collector work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.GC": true,
	"runtime.sweepone": true, "runtime.deductSweepCredit": true,
	"runtime.gcMarkDone": true, "runtime.gcMarkTermination": true,
}

// cpuLayer folds a CPU sample by the package of its leaf frame. A
// standard-library leaf outside the runtime takes the layer of its
// nearest caller in this module or the runtime. A runtime leaf counts as
// garbage collection or allocation when its stack says so; any other
// runtime leaf with a caller in this module — a copy, a map lookup, a
// channel operation — is work done for that caller and takes its layer,
// and the rest (the goroutine scheduler, idle) stays runtime.
func cpuLayer(stack []frame) string {
	for i, f := range stack {
		l := layerOf(f)
		if l == "" {
			continue
		}
		if l != layerRuntime {
			return l
		}
		for _, g := range stack[i:] {
			if gcRoots[g.fn] {
				return runtimeGC
			}
		}
		for _, g := range stack[i:] {
			if g.fn == "runtime.mallocgc" {
				return runtimeAlloc
			}
		}
		for _, g := range stack[i:] {
			if cl := layerOf(g); cl != "" && cl != layerRuntime {
				return cl
			}
		}
		return runtimeOther
	}
	return layerOther
}

// allocLayer folds an allocation sample by its first frame outside the
// runtime and the standard library: the code that asked for the memory.
func allocLayer(stack []frame) string {
	for _, f := range stack {
		if l := layerOf(f); l != "" && l != layerRuntime {
			return l
		}
	}
	return layerRuntime
}

// fold sums one sample type of p by fold's key.
func fold(p *profile, valueType string, key func([]frame) string) (map[string]int64, error) {
	vi := p.valueIndex(valueType)
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q samples (types %v)", valueType, p.sampleTypes)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[key(s.stack)] += s.values[vi]
		}
	}
	return out, nil
}

// allocSnapshot folds the process's cumulative allocation profile by
// layer. The profile is current as of the last completed collection, so
// the caller collects first.
func allocSnapshot() (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return fold(p, "alloc_space", allocLayer)
}

// cpuProfiler wraps the runtime CPU profiler around timed phases.
type cpuProfiler struct {
	buf     bytes.Buffer
	running bool
}

func (c *cpuProfiler) start() error {
	c.buf.Reset()
	if err := pprof.StartCPUProfile(&c.buf); err != nil {
		return err
	}
	c.running = true
	return nil
}

// abort ends a profile a failed timed phase left running.
func (c *cpuProfiler) abort() {
	if c.running {
		pprof.StopCPUProfile()
		c.running = false
	}
}

// stop ends the profile and returns its samples' CPU time by layer.
func (c *cpuProfiler) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	c.running = false
	p, err := parseProfile(c.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return fold(p, "cpu", cpuLayer)
}
