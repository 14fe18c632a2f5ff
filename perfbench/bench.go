package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"lazypoline/internal/telemetry"
)

// workload is one benchmark workload.
type workload interface {
	name() string
	// cores is the kernel's host-parallelism budget (kernel.Config.Cores).
	cores() int
	// plannedOps is the op count of one repetition.
	plannedOps() int
	// setup builds one repetition's machine, timing its phases with
	// e.beginPhase and e.endPhase.
	setup(e *env) (instance, error)
	// check verifies the invariants every seed must satisfy.
	check(out map[string]float64) error
	// absent names the per-layer metrics this workload cannot measure,
	// with the reason.
	absent() map[string]string
}

// instance is one set-up machine.
type instance interface {
	// run executes the timed phase, between e.beginTimed and
	// e.endTimed, and records the simulated outputs in e.r.Outputs.
	run(e *env) error
	// close tears the machine down.
	close()
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name()] = w }

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// runOpts configures one benchmark process.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	gate    *gate
}

// repResult is one repetition's measurements and simulated outputs.
type repResult struct {
	Index  int     `json:"index"`
	Warmup bool    `json:"warmup"`
	Mode   repMode `json:"mode"`
	// Setup holds the host seconds of each phase of the repetition's
	// first set-up; SetupS, SetupCPUS and SetupRefS hold the host,
	// process-CPU and reference-CPU seconds (see speed.go) of every
	// set-up the repetition made.
	Setup     map[string]float64 `json:"setup_phases_s"`
	SetupS    []float64          `json:"setup_s"`
	SetupCPUS []float64          `json:"setup_cpu_s"`
	SetupRefS []float64          `json:"setup_ref_cpu_s"`
	// Timed-phase measurements. Host-speed probes are left out of the
	// wall, CPU and reference-CPU times.
	Ops        int     `json:"ops"`
	TimedS     float64 `json:"timed_s"`
	CPUS       float64 `json:"cpu_s"`
	RefCPUS    float64 `json:"ref_cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
	GCCycles   uint32  `json:"gc_cycles"`
	LiveHeap   uint64  `json:"live_heap_bytes"`
	// Outputs are the simulated results the gate checks.
	Outputs map[string]float64 `json:"outputs"`
	// Counters are timed-phase telemetry deltas (counted repetitions)
	// and workload-specific host measurements.
	Counters map[string]float64 `json:"counters,omitempty"`
	Failure  string             `json:"failure,omitempty"`
}

func (r *repResult) opsPerSec() float64       { return float64(r.Ops) / r.TimedS }
func (r *repResult) opsPerRefCPUSec() float64 { return float64(r.Ops) / r.RefCPUS }

// repMode says what a repetition records besides its timings. A timed
// run has only plain repetitions; a traced run cycles through all three,
// so the per-layer numbers never include another instrument's overhead.
type repMode string

const (
	modePlain    repMode = "plain"    // nothing else: the end-to-end numbers
	modeCounted  repMode = "counted"  // spans and a telemetry sink
	modeProfiled repMode = "profiled" // spans and CPU and allocation profiles
)

var tracedModes = []repMode{modePlain, modeCounted, modeProfiled}

// env is what a workload's repetition sees of the harness.
type env struct {
	seed uint64
	mode repMode
	rec  *recorder
	r    *repResult
	// phasesOn is set during the repetition's first set-up only.
	phasesOn bool

	timed      int // span index of the timed phase
	t0         time.Time
	ms0        runtime.MemStats
	speed      *speedometer
	allocs0    map[string]int64
	prof       *cpuProfiler
	cpuLayers  map[string]int64
	allocDelta map[string]int64
}

// traced reports whether the repetition records spans.
func (e *env) traced() bool { return e.rec.on }

func (e *env) profiled() bool { return e.mode == modeProfiled }

// newSink returns a telemetry sink for a counted repetition, nil otherwise.
func (e *env) newSink() *telemetry.Sink {
	if e.mode != modeCounted {
		return nil
	}
	return &telemetry.Sink{Metrics: telemetry.NewRegistry()}
}

// phase times one set-up phase (always) and records its span (traced).
type phase struct {
	name  string
	span  int
	start time.Time
}

func (e *env) beginPhase(name string) phase {
	return phase{name: name, span: e.rec.open("setup."+name, -1), start: time.Now()}
}

func (e *env) endPhase(p phase) {
	if e.phasesOn {
		e.r.Setup[p.name] += time.Since(p.start).Seconds()
	}
	e.rec.close(p.span)
}

// beginTimed starts the timed phase: it collects garbage so every
// repetition starts from the same heap, then snapshots the allocation
// counters and (profiled) the allocation profile, and starts the CPU
// profile and the speedometer.
func (e *env) beginTimed() error {
	runtime.GC()
	if e.profiled() {
		a, err := allocSnapshot()
		if err != nil {
			return err
		}
		e.allocs0 = a
	}
	runtime.ReadMemStats(&e.ms0)
	if e.profiled() {
		if err := e.prof.start(); err != nil {
			return err
		}
	}
	e.timed = e.rec.open("timed", -1)
	e.rec.inTimed = true
	e.t0 = time.Now()
	e.speed = startSpeedometer()
	return nil
}

// endTimed ends the timed phase after ops operations and, after a
// collection, records the live heap. Call it before teardown.
func (e *env) endTimed(ops int) error {
	e.speed.flush()
	wall := time.Since(e.t0) - e.speed.probe
	e.rec.inTimed = false
	e.rec.close(e.timed)
	var err error
	if e.profiled() {
		e.cpuLayers, err = e.prof.stop()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := e.r
	r.Ops = ops
	r.TimedS = wall.Seconds()
	r.CPUS = e.speed.raw.Seconds()
	r.RefCPUS = e.speed.ref
	r.AllocBytes = ms.TotalAlloc - e.ms0.TotalAlloc
	r.Allocs = ms.Mallocs - e.ms0.Mallocs
	r.GCCycles = ms.NumGC - e.ms0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.LiveHeap = ms.HeapAlloc
	if e.profiled() && err == nil {
		var a map[string]int64
		if a, err = allocSnapshot(); err == nil {
			e.allocDelta = map[string]int64{}
			for k, v := range a {
				e.allocDelta[k] = v - e.allocs0[k]
			}
		}
	}
	return err
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// repOrder is one entry of the process-order record.
type repOrder struct {
	Index  int     `json:"index"`
	Warmup bool    `json:"warmup,omitempty"`
	Mode   repMode `json:"mode"`
	StartS float64 `json:"start_s"`
}

// result aggregates a whole benchmark process.
type result struct {
	reps     []*repResult
	measured []*repResult // excludes the warm-up repetition
	spans    []span
	order    []repOrder

	attempted, failed int
	firstFailure      string

	cpuLayers map[string]int64 // profiled timed phases, CPU ns by layer
	allocs    map[string]int64 // profiled timed phases, bytes by layer

	endToEnd     map[string]metric
	layerMetrics map[string]metric
	absent       map[string]string
}

func (res *result) failRatio() float64 {
	if res.attempted == 0 {
		return 0
	}
	return float64(res.failed) / float64(res.attempted)
}

// runWorkload runs an unmeasured warm-up repetition, then measured
// repetitions until opts.seconds have passed: at least three, or two of
// each mode in a traced run, which cycles through tracedModes.
func runWorkload(w workload, opts runOpts) *result {
	minReps := 3
	if opts.traced {
		minReps = 2 * len(tracedModes)
	}
	res := &result{cpuLayers: map[string]int64{}, allocs: map[string]int64{}}
	rec := &recorder{base: time.Now()}
	prof := &cpuProfiler{}
	var start time.Time
	for i := 0; ; i++ {
		warmup := i == 0
		measuredIdx := len(res.measured)
		mode := modePlain
		if opts.traced && !warmup {
			mode = tracedModes[measuredIdx%len(tracedModes)]
		}
		if !warmup && start.IsZero() {
			start = time.Now()
		}
		if !warmup && measuredIdx >= minReps && time.Since(start) >= opts.seconds {
			break
		}
		r := &repResult{Index: i, Warmup: warmup, Mode: mode,
			Setup: map[string]float64{}, Outputs: map[string]float64{}, Counters: map[string]float64{}}
		res.order = append(res.order, repOrder{Index: i, Warmup: warmup, Mode: mode,
			StartS: time.Since(rec.base).Seconds()})
		rec.on, rec.rep = mode != modePlain, i
		e := &env{seed: opts.seed, mode: mode, rec: rec, r: r, prof: prof}
		err := runRep(w, e)
		if err == nil {
			err = opts.gate.check(w, r.Outputs)
		}
		if err == nil && len(res.reps) > 0 {
			// Simulated results are deterministic: every repetition,
			// in any mode, must reproduce the first one exactly.
			err = sameOutputs(res.reps[0].Outputs, r.Outputs)
		}
		ops := w.plannedOps()
		res.attempted += ops
		if err != nil {
			r.Failure = err.Error()
			res.failed += ops
			if res.firstFailure == "" {
				res.firstFailure = fmt.Sprintf("repetition %d: %v", i, err)
			}
		}
		if mode == modeProfiled && err == nil {
			for k, v := range e.cpuLayers {
				res.cpuLayers[k] += v
			}
			for k, v := range e.allocDelta {
				res.allocs[k] += v
			}
		}
		res.reps = append(res.reps, r)
		if !warmup {
			res.measured = append(res.measured, r)
		}
	}
	res.spans = rec.spans
	res.endToEnd = endToEndMetrics(res)
	if opts.traced {
		res.layerMetrics, res.absent = layerMetrics(w, res)
	}
	return res
}

// setupsPerRep is how many times a repetition sets its machine up: the
// last set-up runs the timed phase, the others are torn down at once.
// Set-up takes milliseconds, so several samples per repetition steady
// the set-up median.
const setupsPerRep = 4

// runRep runs one repetition: its set-ups, then the timed phase on the
// last one.
func runRep(w workload, e *env) error {
	r := e.r
	for j := 0; j < setupsPerRep; j++ {
		runtime.GC()
		e.phasesOn = j == 0
		sp := startSpeedometer()
		s := time.Now()
		inst, err := w.setup(e)
		if err != nil {
			return err
		}
		r.SetupS = append(r.SetupS, time.Since(s).Seconds())
		sp.flush()
		r.SetupCPUS = append(r.SetupCPUS, sp.raw.Seconds())
		r.SetupRefS = append(r.SetupRefS, sp.ref)
		if j < setupsPerRep-1 {
			inst.close()
			continue
		}
		err = inst.run(e)
		e.prof.abort()
		e.rec.inTimed = false
		inst.close()
		return err
	}
	return nil
}

// timedReps returns the measured repetitions of one mode that passed.
func (res *result) timedReps(mode repMode) []*repResult {
	var out []*repResult
	for _, r := range res.measured {
		if r.Mode == mode && r.Failure == "" && r.Ops > 0 {
			out = append(out, r)
		}
	}
	return out
}

// endToEndMetrics reports medians over the plain measured repetitions.
// Rates and set-up times are in process CPU time scaled to reference
// host speed (speed.go), not wall time: on a shared virtual machine the
// hypervisor steals CPU in bursts and the vCPUs' speed drifts with the
// host's load, which moves wall-time and raw CPU-time rates by tens of
// percent from run to run (see README.md). Wall-time and raw CPU-time
// figures are kept in the detail file and summary.
func endToEndMetrics(res *result) map[string]metric {
	reps := res.timedReps(modePlain)
	med := func(f func(r *repResult) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.SetupRefS...)
	}
	return map[string]metric{
		"ops_per_ref_cpu_s":  {med((*repResult).opsPerRefCPUSec), "ops/ref-cpu-s"},
		"setup_s":            {median(setups), "s"},
		"alloc_bytes_per_op": {med(func(r *repResult) float64 { return float64(r.AllocBytes) / float64(r.Ops) }), "B/op"},
		"allocs_per_op":      {med(func(r *repResult) float64 { return float64(r.Allocs) / float64(r.Ops) }), "1/op"},
		"live_heap_mb":       {med(func(r *repResult) float64 { return float64(r.LiveHeap) / (1 << 20) }), "MiB"},
	}
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// span is one host-time interval recorded around a call into a layer.
type span struct {
	Name   string `json:"name"`
	Rep    int    `json:"rep"`
	Parent int    `json:"parent"` // index into the span list, -1 for none
	Timed  bool   `json:"timed"`  // inside a timed phase
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// recorder keeps spans in memory while tracing is on; every method is a
// no-op otherwise.
type recorder struct {
	on      bool
	inTimed bool
	rep     int
	base    time.Time
	spans   []span
}

// open starts a span and returns its index (-1 when not tracing).
func (r *recorder) open(name string, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Rep: r.rep, Parent: parent, Timed: r.inTimed,
		Start: time.Since(r.base).Nanoseconds(), Dur: -1})
	return len(r.spans) - 1
}

// close ends the span open returned.
func (r *recorder) close(i int) {
	if i < 0 {
		return
	}
	r.spans[i].Dur = time.Since(r.base).Nanoseconds() - r.spans[i].Start
}

// wholeRepCounters are recorded over the whole repetition rather than
// the timed phase: keep-alive connections are all accepted during boot.
var wholeRepCounters = map[string]bool{"net.conns_accepted": true}

// counterDelta adds after-before for every counter of two telemetry
// snapshots to dst. Gauges (high-water marks) and wholeRepCounters are
// recorded as their final value.
func counterDelta(dst map[string]float64, before, after telemetry.Snapshot) {
	for k, v := range after.Counters {
		if wholeRepCounters[k] {
			dst[k] += float64(v)
			continue
		}
		dst[k] += float64(v - before.Counters[k])
	}
	for k, v := range after.Gauges {
		if float64(v) > dst[k] {
			dst[k] = float64(v)
		}
	}
}
