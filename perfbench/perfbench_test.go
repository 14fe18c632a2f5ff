package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"lazypoline/internal/experiments"
	"lazypoline/internal/fleet"
	"lazypoline/internal/guest"
	"lazypoline/internal/webbench"
)

// Scaled-down copies of the registered workloads. Their outputs are not
// pinned, so their gate checks the invariants and repeatability only.
func smallWeb() *webWork {
	cores := 2
	if runtime.NumCPU() < cores {
		cores = 1
	}
	return &webWork{id: "web-small", style: guest.StyleNginx, workers: 3, fileSize: 16 << 10,
		connections: 6, requests: 60, kernelCores: cores}
}

func smallMicro() *microWork {
	return &microWork{id: "micro-small", iters: 3000, mechs: microMechs}
}

func smallFleet() *fleetWork {
	w := *workloads["fleet-kill-small"].(*fleetWork)
	w.id = "fleet-small"
	w.cfg.Requests = 300
	return &w
}

func runSmall(t *testing.T, w workload, traced bool, g *gate) *result {
	t.Helper()
	res := runWorkload(w, runOpts{seed: 42, traced: traced, gate: g})
	if traced && len(res.measured) != 2*len(tracedModes) {
		t.Fatalf("traced run made %d repetitions, want %d", len(res.measured), 2*len(tracedModes))
	}
	return res
}

func TestScaledWorkloadsPassGate(t *testing.T) {
	for _, w := range []workload{smallWeb(), smallMicro(), smallFleet()} {
		t.Run(w.name(), func(t *testing.T) {
			res := runSmall(t, w, false, &gate{})
			if res.failed != 0 {
				t.Fatalf("%d of %d ops failed: %s", res.failed, res.attempted, res.firstFailure)
			}
			for name, m := range res.endToEnd {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestWrongReferenceFailsEveryOp(t *testing.T) {
	w := smallMicro()
	res := runSmall(t, w, false, &gate{want: map[string]float64{"zpoline.cycles_per_syscall": 1}})
	if res.attempted == 0 || res.failed != res.attempted || res.failRatio() != 1 {
		t.Fatalf("failed %d of %d (fail_ratio %v), want every op failed", res.failed, res.attempted, res.failRatio())
	}
	if !strings.Contains(res.firstFailure, "zpoline.cycles_per_syscall") {
		t.Fatalf("failure %q does not name the mismatched output", res.firstFailure)
	}
}

func TestMissingReferenceFails(t *testing.T) {
	g := newGate(smallMicro(), map[string]reference{}, 42)
	if err := g.check(smallMicro(), map[string]float64{}); err == nil {
		t.Fatal("a workload without reference outputs passed the gate")
	}
}

func TestFleetReferenceAppliesOnlyToItsSeed(t *testing.T) {
	seed := uint64(42)
	refs := map[string]reference{"fleet-kill-small": {Seed: &seed, Outputs: map[string]float64{"p50_cycles": 1}}}
	w := workloads["fleet-kill-small"]
	if g := newGate(w, refs, 42); g.want == nil {
		t.Fatal("seed 42 should use the pinned outputs")
	}
	if g := newGate(w, refs, 7); g.want != nil || g.err != nil {
		t.Fatal("another seed should check invariants only")
	}
}

func TestEmbeddedReferenceCoversEveryWorkload(t *testing.T) {
	refs, err := parseReference(defaultReference)
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		if len(refs[name].Outputs) == 0 {
			t.Errorf("no reference outputs for %s", name)
		}
	}
}

func TestWebDriverMatchesWebbenchRun(t *testing.T) {
	w := smallWeb()
	want, err := webbench.Run(w.config())
	if err != nil {
		t.Fatal(err)
	}
	res := runSmall(t, w, false, &gate{})
	if res.failed != 0 {
		t.Fatal(res.firstFailure)
	}
	out := res.reps[0].Outputs
	if out["cycles_per_request"] != want.CyclesPerRequest || int(out["completed"]) != want.Requests {
		t.Fatalf("piecewise driver: %v cycles/request over %v requests; webbench.Run: %v over %d",
			out["cycles_per_request"], out["completed"], want.CyclesPerRequest, want.Requests)
	}
}

func TestMicroDriverMatchesTable2(t *testing.T) {
	w := smallMicro()
	res := runSmall(t, w, false, &gate{})
	if res.failed != 0 {
		t.Fatal(res.firstFailure)
	}
	for _, m := range w.mechs {
		want, err := experiments.Table2Single(m, w.iters)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.reps[0].Outputs[m+".cycles_per_syscall"]; got != want {
			t.Errorf("%s: %v cycles/syscall, experiments.Table2Single gives %v", m, got, want)
		}
	}
}

func TestFleetDriverMatchesFleetRun(t *testing.T) {
	w := smallFleet()
	want, err := fleet.Run(w.config(42))
	if err != nil {
		t.Fatal(err)
	}
	res := runSmall(t, w, false, &gate{})
	if res.failed != 0 {
		t.Fatal(res.firstFailure)
	}
	out := res.reps[0].Outputs
	if uint64(out["p99_cycles"]) != want.P99 || int(out["retries"]) != want.Retries {
		t.Fatalf("driver p99 %v retries %v; fleet.Run p99 %d retries %d", out["p99_cycles"], out["retries"], want.P99, want.Retries)
	}
}

func TestTracedOutputsEqualUntraced(t *testing.T) {
	for _, w := range []workload{smallWeb(), smallMicro(), smallFleet()} {
		t.Run(w.name(), func(t *testing.T) {
			plain := runSmall(t, w, false, &gate{})
			traced := runSmall(t, w, true, &gate{})
			if plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("failures: plain %q, traced %q", plain.firstFailure, traced.firstFailure)
			}
			for _, r := range traced.reps {
				if err := sameOutputs(plain.reps[0].Outputs, r.Outputs); err != nil {
					t.Fatalf("%s repetition %d: %v", r.Mode, r.Index, err)
				}
			}
			for _, lm := range layerMetricList() {
				if _, ok := traced.layerMetrics[lm.name]; !ok {
					t.Errorf("traced run lacks %s", lm.name)
				}
			}
			if r := traced.layerMetrics["trace.overhead_ratio"].Value; !(r > 0) {
				t.Errorf("trace.overhead_ratio = %v", r)
			}
			if len(traced.cpuLayers) == 0 && len(traced.allocs) == 0 {
				t.Error("no profile samples were folded")
			}
		})
	}
}

func TestLayerOfKnownFrames(t *testing.T) {
	for _, c := range []struct {
		fn, file, want string
	}{
		{"cpu.(*CPU).runFusedLoop", "", layerCPU},
		{"lazypoline/internal/cpu.(*CPU).runFusedLoop", "/src/internal/cpu/trace.go", layerCPU},
		{"lazypoline/internal/isa.Decode", "", layerCPU},
		{"kernel.(*Kernel).sysSendfile", "/src/internal/kernel/syscalls.go", layerKernel},
		{"lazypoline/internal/kernel.(*Kernel).runRoundParallel", "/src/internal/kernel/parallel.go", layerSched},
		{"lazypoline/internal/kernel.(*Kernel).RunSlice", "/src/internal/kernel/kernel.go", layerSched},
		{"interpose.(*Binder).Exit", "", layerMech},
		{"lazypoline/internal/zpoline.(*Mechanism).enter", "", layerMech},
		{"lazypoline/internal/mem.(*AddressSpace).Read", "", layerMem},
		{"lazypoline/internal/netstack.(*Endpoint).Write", "", layerNetstack},
		{"lazypoline/internal/webbench.(*Client).Step", "", layerNetstack},
		{"lazypoline/internal/fs.(*FS).ReadAt", "", layerFS},
		{"lazypoline/internal/fleet.(*LB).Step", "", layerFleet},
		{"lazypoline/internal/asm.Assemble", "", layerSetup},
		{"lazypoline/internal/telemetry.(*Counter).Add", "", layerTrace},
		{"runtime.memclrNoHeapPointers", "", layerRuntime},
		{"internal/runtime/atomic.(*Uint32).Load", "", layerRuntime},
		{"main.(*webInstance).run", "", layerBench},
		{"sync/atomic.(*Int64).Add", "", ""},
	} {
		if got := layerOf(frame{fn: c.fn, file: c.file}); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestFoldSplitsRuntime(t *testing.T) {
	f := func(fns ...string) []frame {
		var s []frame
		for _, fn := range fns {
			s = append(s, frame{fn: fn})
		}
		return s
	}
	for _, c := range []struct {
		stack      []frame
		cpu, alloc string
	}{
		{f("runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "lazypoline/internal/kernel.(*Kernel).sysSendfile"), runtimeAlloc, layerKernel},
		{f("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), runtimeGC, layerRuntime},
		{f("runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "lazypoline/internal/cpu.(*CPU).Step"), runtimeGC, layerCPU},
		{f("runtime.memmove", "lazypoline/internal/fs.(*File).ReadAt", "lazypoline/internal/kernel.(*Kernel).sysSendfile"), layerFS, layerFS},
		{f("runtime.mapaccess2", "lazypoline/internal/kernel.(*Kernel).sysRead"), layerKernel, layerKernel},
		{f("runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"), runtimeOther, layerRuntime},
		{[]frame{{fn: "sort.insertionSort"}, {fn: "lazypoline/internal/kernel.(*Kernel).planShards", file: "/src/internal/kernel/parallel.go"}}, layerSched, layerSched},
		{f("lazypoline/internal/core.(*Runtime).fast", "lazypoline/internal/kernel.(*Kernel).handleHcall"), layerMech, layerMech},
	} {
		if got := cpuLayer(c.stack); got != c.cpu {
			t.Errorf("cpuLayer(%s) = %q, want %q", c.stack[0].fn, got, c.cpu)
		}
		if got := allocLayer(c.stack); got != c.alloc {
			t.Errorf("allocLayer(%s) = %q, want %q", c.stack[0].fn, got, c.alloc)
		}
	}
}

// sink keeps allocations alive so the profile records them.
var sink [][]byte

func allocateForProfile() {
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
}

func TestAllocProfileDecodes(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocateForProfile()
	runtime.GC()
	a, err := allocSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if a[layerBench] < 64*(64<<10) {
		t.Fatalf("bench layer allocated %d bytes in the profile, want >= %d (folded %v)", a[layerBench], 64*(64<<10), a)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", wl.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	e2e := endToEndMetrics(&result{})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): benchmark prints %+v", m.Name, m.Unit, got)
		}
	}
	layers := layerMetricList()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		if layers[i].name != m.Name || layers[i].unit != m.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
}

// spin burns about d of CPU time on the calling goroutine.
func spin(d time.Duration) {
	for c := processCPU(); processCPU()-c < d; {
		calibrate(1000)
	}
}

func TestSpeedometerScalesMeasuredCPU(t *testing.T) {
	if probe() <= 0 {
		t.Fatal("a probe measured no speed")
	}
	s := startSpeedometer()
	for i := 0; i < 10; i++ {
		spin(probeEvery / 2)
		s.tick()
	}
	s.flush()
	if s.raw < 4*probeEvery || s.ref <= 0 || s.probe <= 0 {
		t.Fatalf("raw %v, ref %vs, probes %v: want raw >= %v and both others > 0", s.raw, s.ref, s.probe, 4*probeEvery)
	}
}

func TestBackgroundSamplerCPUIsLeftOut(t *testing.T) {
	s := startSpeedometer()
	c := processCPU()
	s.background()
	time.Sleep(20 * sampleEvery) // only the sampler runs
	s.flush()
	if total := processCPU() - c; s.raw > total/2 {
		t.Fatalf("measured %v of the %v the process used while only the sampler ran", s.raw, total)
	}
}
