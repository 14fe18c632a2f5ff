package experiments

// One differential matrix checks that execution machinery is invisible
// (DESIGN.md §7, §9–§11): every fast-path level below Full, and an
// attached telemetry sink, must leave a run byte-identical — syscall
// traces with arguments, interposer observations, console output, exit
// codes and per-task cycle counts. Each cell runs a guest under a
// mechanism once at Full with nothing attached, then once per variant.
// Every variant also proves it is not vacuous: the layers its level
// drops must have done work at Full and none at the level, and a sink
// must have recorded the run.
//
// The entry points keep the names of the per-layer suites the matrix
// replaced. Each runs one guest family against the variants that suite
// covered; a run that several of them make (a cell's Full reference,
// the SMC aliases, the sink cell's variants) is made once.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"lazypoline/internal/cpu"
	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/trace"
	"lazypoline/internal/webbench"
)

// invarianceMechs is the complete mechanism registry, including the
// ablation variants — "every mechanism" in the acceptance criteria.
var invarianceMechs = []string{
	MechBaseline, MechBaselineSUD, MechZpoline, MechLazypolineNX,
	MechLazypoline, MechLazypolineMPK, MechSUD, MechSeccompUser, MechPtrace,
}

// tracingMechs is the subset with a tracing attach; for these the
// interposer-observed trace is part of the compared outcome.
var tracingMechs = map[string]bool{
	MechZpoline: true, MechLazypolineNX: true, MechLazypoline: true,
	MechSUD: true, MechSeccompUser: true, MechPtrace: true,
}

// telemetryMechPath maps each mechanism to the dispatch path its
// application syscalls must be attributed to — the per-mechanism
// non-vacuity anchor of the telemetry variant.
var telemetryMechPath = map[string]string{
	MechBaseline:      "direct",
	MechBaselineSUD:   "sud-allow",
	MechZpoline:       "trampoline",
	MechLazypolineNX:  "trampoline",
	MechLazypoline:    "trampoline",
	MechLazypolineMPK: "trampoline",
	MechSUD:           "sud-range",
	MechSeccompUser:   "seccomp",
	MechPtrace:        "ptrace",
}

// runOutcome is everything observable from one guest run. Two runs are
// equivalent iff their runOutcomes are byte-identical.
type runOutcome struct {
	Exit    int
	Cycles  string // per-task cycle counts, in task order
	Console string
	Ground  string // kernel dispatch-level trace, with arguments
	Trace   string // interposer-observed trace ("" when not traced)
}

func (o runOutcome) String() string {
	return fmt.Sprintf("exit=%d\ncycles=%s\nconsole=%q\nground:\n%s\ntrace:\n%s",
		o.Exit, o.Cycles, o.Console, o.Ground, o.Trace)
}

// groundTruth records the dispatch-level ground truth including task IDs
// and full argument vectors — stricter than trace.GroundTruth, which
// keeps only syscall numbers — and every task that entered the kernel,
// so their cycle counts can still be read after they exit.
type groundTruth struct {
	log   strings.Builder
	tasks []*kernel.Task
}

// hook is the kernel's OnDispatch callback.
func (g *groundTruth) hook(t *kernel.Task, nr int64, args [6]uint64) {
	if !slices.Contains(g.tasks, t) {
		g.tasks = append(g.tasks, t)
	}
	fmt.Fprintf(&g.log, "%d %s %x\n", t.ID, kernel.SyscallName(nr), args)
}

// finishOutcome assembles the outcome after k.Run completed.
func finishOutcome(main *kernel.Task, ground *groundTruth, rec *trace.Recorder) runOutcome {
	var cycles strings.Builder
	for _, t := range ground.tasks {
		fmt.Fprintf(&cycles, "%d:%d ", t.ID, t.CPU.Cycles)
	}
	o := runOutcome{
		Exit:    main.ExitCode,
		Cycles:  cycles.String(),
		Console: string(main.ConsoleOut),
		Ground:  ground.log.String(),
	}
	if rec != nil {
		var tr strings.Builder
		for _, e := range rec.Entries() {
			fmt.Fprintf(&tr, "%s\n", e.String())
		}
		o.Trace = tr.String()
	}
	return o
}

func firstDiff(a, b string) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(i-40, 0)
			return fmt.Sprintf("at byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

// attachForTrace installs the mechanism, with a Recorder when the
// mechanism supports tracing and a Dummy interposer otherwise.
func attachForTrace(mech string, k *kernel.Kernel, task *kernel.Task, preRewrite bool) (*trace.Recorder, error) {
	if tracingMechs[mech] {
		rec := &trace.Recorder{}
		return rec, attachTracing(mech, k, task, rec)
	}
	return nil, attach(mech, k, task, preRewrite)
}

// dispatchCounters filters a snapshot down to the kernel.dispatch.*
// counters, for failure messages.
func dispatchCounters(snap telemetry.Snapshot) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "kernel.dispatch.") {
			out[name] = v
		}
	}
	return out
}

// layerStats is the fast-path activity of a run's main task.
type layerStats struct {
	cache   cpu.DecodeCacheStats
	tlb     cpu.TLBStats
	sbInsts uint64
	chain   cpu.ChainStats
	trace   cpu.TraceStats
}

func statsOf(c *cpu.CPU) *layerStats {
	return &layerStats{c.DecodeCacheStats(), c.TLBStats(), c.SuperblockInsts, c.ChainStats(), c.TraceStats()}
}

// fastPathLayer is one rung of the ladder: the first level without it,
// how much work it did in a run, whether it stayed untouched, the
// prefix of its telemetry counters, and the same work as a sink
// reports it.
type fastPathLayer struct {
	name     string
	drop     cpu.FastPath
	work     func(*layerStats) uint64
	idle     func(*layerStats) bool
	counter  string
	sinkWork func(c map[string]uint64) uint64
}

var fastPathLayers = []fastPathLayer{
	{"decode cache", cpu.Interp,
		func(s *layerStats) uint64 { return s.cache.Hits },
		func(s *layerStats) bool { return s.cache == cpu.DecodeCacheStats{} }, "cpu.decode_cache.",
		func(c map[string]uint64) uint64 { return c["cpu.decode_cache.hits"] }},
	{"D-TLB", cpu.Cached,
		func(s *layerStats) uint64 { return s.tlb.Hits },
		func(s *layerStats) bool { return s.tlb == cpu.TLBStats{} }, "cpu.tlb.",
		func(c map[string]uint64) uint64 { return c["cpu.tlb.hits"] }},
	{"superblocks", cpu.Cached,
		func(s *layerStats) uint64 { return s.sbInsts },
		func(s *layerStats) bool { return s.sbInsts == 0 }, "cpu.superblock.",
		func(c map[string]uint64) uint64 { return c["cpu.superblock.insts"] }},
	{"chaining", cpu.Superblocks,
		func(s *layerStats) uint64 { return s.chain.Transitions },
		func(s *layerStats) bool { return s.chain == cpu.ChainStats{} }, "cpu.chain.",
		func(c map[string]uint64) uint64 { return min(c["cpu.chain.links"], c["cpu.chain.transitions"]) }},
	{"traces", cpu.Chained,
		func(s *layerStats) uint64 { return s.trace.Insts + s.trace.FusedNopInsts + s.trace.FusedLoopIters },
		func(s *layerStats) bool { return s.trace == cpu.TraceStats{} }, "cpu.trace.",
		func(c map[string]uint64) uint64 {
			return c["cpu.trace.insts"] + c["cpu.trace.fused_nop_insts"] + c["cpu.trace.fused_loop_iters"]
		}},
}

// variant is one way of running a cell that must not change its
// outcome: a fast-path level, optionally with a full telemetry sink.
type variant struct {
	name  string
	level cpu.FastPath
	sink  bool
}

var (
	vFull           = variant{name: "full"}
	vChained        = variant{name: "chained", level: cpu.Chained}
	vSuperblocks    = variant{name: "superblocks", level: cpu.Superblocks}
	vCached         = variant{name: "cached", level: cpu.Cached}
	vInterp         = variant{name: "interp", level: cpu.Interp}
	vTelemetry      = variant{name: "telemetry", sink: true}
	vCachedSink     = variant{name: "cached+telemetry", level: cpu.Cached, sink: true}
	vSuperblockSink = variant{name: "superblocks+telemetry", level: cpu.Superblocks, sink: true}
)

// runFunc runs one cell's guest under mech with cfg and returns the
// outcome text and the main task's CPU (nil for the web servers, whose
// work is spread over many tasks).
type runFunc func(t *testing.T, mech string, cfg kernel.Config) (string, *cpu.CPU)

// cell is one guest × mechanism pair. Cells with the same key are the
// same run. everyLayer cells must exercise every fast-path layer at
// Full, and a sink on them must report each layer its level keeps.
type cell struct {
	name       string // subtest name under its entry point ("" = none)
	key        string
	mech       string
	run        runFunc
	everyLayer bool
}

// guestRun runs a single-task guest spawned by spawn with mech attached
// and checks its exit code.
func guestRun(spawn func(*kernel.Kernel) (*kernel.Task, error), preRewrite bool, budget int64,
	wantExit func(*kernel.Task) int) runFunc {
	return func(t *testing.T, mech string, cfg kernel.Config) (string, *cpu.CPU) {
		t.Helper()
		k := kernel.New(cfg)
		var ground groundTruth
		k.OnDispatch = ground.hook
		task, err := spawn(k)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := attachForTrace(mech, k, task, preRewrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(budget); err != nil {
			t.Fatal(err)
		}
		if want := wantExit(task); task.ExitCode != want {
			t.Fatalf("guest exited %d, want %d", task.ExitCode, want)
		}
		return finishOutcome(task, &ground, rec).String(), task.CPU
	}
}

func exitZero(*kernel.Task) int     { return 0 }
func exitPID(task *kernel.Task) int { return task.Tgid }

// runMicro runs the microbenchmark loop. Under lazypoline the tracing
// attach rewrites lazily, so every site goes through the SIGSYS slow
// path (mprotect RW → rewrite → mprotect RX) on the very page being run.
var runMicro = guestRun(spawnMicro, true, -1, exitZero)

// runJIT runs the JIT guest, which stores a getpid routine into RWX
// memory and calls it: a direct guest store to code with no mprotect in
// between.
var runJIT = guestRun(func(k *kernel.Kernel) (*kernel.Task, error) {
	if err := k.FS.MkdirAll("/src", 0o755); err != nil {
		return nil, err
	}
	if err := k.FS.WriteFile(guest.JITSourcePath, []byte(guest.JITSource), 0o644); err != nil {
		return nil, err
	}
	prog, err := guest.JIT()
	if err != nil {
		return nil, err
	}
	return prog.Spawn(k)
}, false, 50_000_000, exitPID)

func runCoreutil(name string, libc guest.Libc) runFunc {
	return guestRun(func(k *kernel.Kernel) (*kernel.Task, error) {
		for _, dir := range []string{"/tmp", "/etc", "/var/log"} {
			if err := k.FS.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		// Create the fixture files in sorted order: the map's iteration
		// order must not be a difference between two compared runs.
		paths := make([]string, 0, len(guest.CoreutilFSFiles))
		for path := range guest.CoreutilFSFiles {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			if err := k.FS.WriteFile(path, []byte(guest.CoreutilFSFiles[path]), 0o644); err != nil {
				return nil, err
			}
		}
		prog, err := guest.Coreutil(name, libc)
		if err != nil {
			return nil, err
		}
		return prog.Spawn(k)
	}, false, 50_000_000, exitZero)
}

// runChaosCat runs cat under the shared fixed fault plan.
func runChaosCat(t *testing.T, mech string, cfg kernel.Config) (string, *cpu.CPU) {
	cfg.ChaosSeed, cfg.ChaosRate = chaosInvSeed, chaosInvRate
	out, task := chaosCoreutilRun(t, "cat", mech, cfg)
	return out.String(), task.CPU
}

func runWeb(style guest.ServerStyle) runFunc {
	return func(t *testing.T, mech string, cfg kernel.Config) (string, *cpu.CPU) {
		res, err := webbench.Run(webbench.Config{
			Style:       style,
			Workers:     1,
			FileSize:    1024,
			Connections: 4,
			Requests:    40,
			Attach:      AttachFunc(mech),
			FastPath:    cfg.FastPath,
			Telemetry:   cfg.Telemetry,
		})
		if err != nil {
			t.Fatalf("webbench %s/%s: %v", style, mech, err)
		}
		return fmt.Sprintf("%+v", res), nil
	}
}

var invarianceLibcs = []struct {
	name string
	libc guest.Libc
}{
	{"ubuntu", guest.LibcUbuntu2004(false)},
	{"clearlinux", guest.LibcClearLinux()},
}

// Guest families, each over every mechanism unless noted.
func microbenchCells() []cell { return mechCells("microbench", "", invarianceMechs, runMicro) }
func jitCells() []cell        { return mechCells("jit", "", invarianceMechs, runJIT) }

func coreutilCells() []cell {
	var cells []cell
	for _, name := range guest.CoreutilNames {
		for _, lc := range invarianceLibcs {
			id := "coreutil/" + name + "/" + lc.name
			cells = append(cells, mechCells(id, name+"/"+lc.name+"/", invarianceMechs, runCoreutil(name, lc.libc))...)
		}
	}
	return cells
}

func webCells() []cell {
	var cells []cell
	for _, style := range []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd} {
		cells = append(cells, mechCells("web/"+style.String(), style.String()+"/", invarianceMechs, runWeb(style))...)
	}
	return cells
}

// smcCells are the two self-modifying-code shapes: lazypoline's lazy
// rewrite of the page being executed, and the JIT's direct stores into
// freshly minted code.
func smcCells() []cell {
	return []cell{
		{"lazypoline-lazy-rewrite", "microbench/" + MechLazypoline, MechLazypoline, runMicro, false},
		{"jit-direct-store", "jit/" + MechBaseline, MechBaseline, runJIT, false},
	}
}

func chaosCells() []cell {
	return mechCells("chaos-cat", "", []string{MechBaseline, MechLazypoline, MechSUD}, runChaosCat)
}

// sinkCells is the cell whose sink counters are checked layer by layer.
func sinkCells() []cell {
	return []cell{{"", "microbench/" + MechLazypoline, MechLazypoline, runMicro, true}}
}

func mechCells(id, prefix string, mechs []string, run runFunc) []cell {
	cells := make([]cell, len(mechs))
	for i, mech := range mechs {
		cells[i] = cell{prefix + mech, id + "/" + mech, mech, run, false}
	}
	return cells
}

// matrixEntry is one entry point: a guest family and its variants.
// aggregate names layers whose Full-run work is asserted over the whole
// family rather than per cell: short, straight-line guests may never
// re-follow a chain link, and traces engage only on hot chained loops
// (so they are checked in aggregate or not at all).
type matrixEntry struct {
	cells     []cell
	variants  []variant
	aggregate []string
}

var fastPathMatrix = map[string]matrixEntry{
	"TestCacheInvarianceMicrobench": {microbenchCells(), []variant{vInterp}, nil},
	"TestCacheInvarianceJIT":        {jitCells(), []variant{vInterp}, nil},
	"TestCacheInvarianceCoreutils":  {coreutilCells(), []variant{vInterp}, nil},
	"TestCacheInvarianceWebServers": {webCells(), []variant{vInterp}, nil},
	"TestCacheInvarianceSMC":        {smcCells(), []variant{vInterp}, nil},

	"TestTLBInvarianceMicrobench": {microbenchCells(), []variant{vCached}, nil},
	"TestTLBInvarianceJIT":        {jitCells(), []variant{vCached}, nil},
	"TestTLBInvarianceCoreutils":  {coreutilCells(), []variant{vCached}, nil},
	"TestTLBInvarianceWebServers": {webCells(), []variant{vCached}, nil},
	"TestTLBInvarianceSMC":        {smcCells(), []variant{vCached}, nil},
	"TestTLBInvarianceChaos":      {chaosCells(), []variant{vCached}, nil},
	"TestTLBInvarianceTelemetry":  {sinkCells(), []variant{vTelemetry, vCachedSink}, nil},

	"TestChainInvarianceMicrobench": {microbenchCells(), []variant{vChained, vSuperblocks}, []string{"traces"}},
	"TestChainInvarianceJIT":        {jitCells(), []variant{vChained, vSuperblocks}, []string{"traces"}},
	"TestChainInvarianceCoreutils":  {coreutilCells(), []variant{vChained, vSuperblocks}, []string{"chaining", "traces"}},
	"TestChainInvarianceWebServers": {webCells(), []variant{vChained, vSuperblocks}, nil},
	"TestChainInvarianceSMC":        {smcCells(), []variant{vChained, vSuperblocks}, []string{"traces"}},
	"TestChainInvarianceChaos":      {chaosCells(), []variant{vChained, vSuperblocks}, nil},
	"TestChainInvarianceTelemetry":  {sinkCells(), []variant{vTelemetry, vSuperblockSink}, nil},

	"TestTelemetryInvarianceMicrobench": {microbenchCells(), []variant{vTelemetry}, nil},
	"TestTelemetryInvarianceJIT":        {jitCells(), []variant{vTelemetry}, nil},
	"TestTelemetryInvarianceCoreutils":  {coreutilCells(), []variant{vTelemetry}, nil},
	"TestTelemetryInvarianceWebServers": {webCells(), []variant{vTelemetry}, nil},
}

func TestCacheInvarianceMicrobench(t *testing.T) { runMatrixEntry(t) }
func TestCacheInvarianceJIT(t *testing.T)        { runMatrixEntry(t) }
func TestCacheInvarianceCoreutils(t *testing.T)  { runMatrixEntry(t) }
func TestCacheInvarianceWebServers(t *testing.T) { runMatrixEntry(t) }
func TestCacheInvarianceSMC(t *testing.T)        { runMatrixEntry(t) }

func TestTLBInvarianceMicrobench(t *testing.T) { runMatrixEntry(t) }
func TestTLBInvarianceJIT(t *testing.T)        { runMatrixEntry(t) }
func TestTLBInvarianceCoreutils(t *testing.T)  { runMatrixEntry(t) }
func TestTLBInvarianceWebServers(t *testing.T) { runMatrixEntry(t) }
func TestTLBInvarianceSMC(t *testing.T)        { runMatrixEntry(t) }
func TestTLBInvarianceChaos(t *testing.T)      { runMatrixEntry(t) }
func TestTLBInvarianceTelemetry(t *testing.T)  { runMatrixEntry(t) }

func TestChainInvarianceMicrobench(t *testing.T) { runMatrixEntry(t) }
func TestChainInvarianceJIT(t *testing.T)        { runMatrixEntry(t) }
func TestChainInvarianceCoreutils(t *testing.T)  { runMatrixEntry(t) }
func TestChainInvarianceWebServers(t *testing.T) { runMatrixEntry(t) }
func TestChainInvarianceSMC(t *testing.T)        { runMatrixEntry(t) }
func TestChainInvarianceChaos(t *testing.T)      { runMatrixEntry(t) }
func TestChainInvarianceTelemetry(t *testing.T)  { runMatrixEntry(t) }

func TestTelemetryInvarianceMicrobench(t *testing.T) { runMatrixEntry(t) }
func TestTelemetryInvarianceJIT(t *testing.T)        { runMatrixEntry(t) }
func TestTelemetryInvarianceCoreutils(t *testing.T)  { runMatrixEntry(t) }
func TestTelemetryInvarianceWebServers(t *testing.T) { runMatrixEntry(t) }

// result is one run of a cell under a variant.
type result struct {
	out   string
	stats *layerStats // main task's layer activity (nil for web servers)
	sink  *telemetry.Sink
}

func runKey(c cell, v variant) string { return c.key + " " + v.name }

// runUses counts the entry points that make each run: every cell's Full
// reference and each of its variants.
var runUses = func() map[string]int {
	uses := make(map[string]int)
	for _, e := range fastPathMatrix {
		for _, c := range e.cells {
			uses[runKey(c, vFull)]++
			for _, v := range e.variants {
				uses[runKey(c, v)]++
			}
		}
	}
	return uses
}()

// runs memoizes every run more than one entry point makes, so the
// entry points that share a cell — the SMC aliases, the sink cell, each
// cell's Full reference — run it once.
var runs = struct {
	sync.Mutex
	m map[string]result
}{m: make(map[string]result)}

func runVariant(t *testing.T, c cell, v variant) result {
	key := runKey(c, v)
	runs.Lock()
	defer runs.Unlock()
	if r, ok := runs.m[key]; ok {
		return r
	}
	r := result{}
	if v.sink {
		r.sink = telemetry.NewSink()
	}
	out, c0 := c.run(t, c.mech, kernel.Config{FastPath: v.level, Telemetry: r.sink})
	r.out = out
	if c0 != nil {
		r.stats = statsOf(c0)
	}
	if runUses[key] > 1 {
		runs.m[key] = r
	}
	return r
}

// runMatrixEntry runs the matrix entry named after the calling test.
func runMatrixEntry(t *testing.T) {
	e, ok := fastPathMatrix[t.Name()]
	if !ok {
		t.Fatalf("no matrix entry for %s", t.Name())
	}
	totals := make(map[string]uint64)
	for _, c := range e.cells {
		if c.name == "" {
			checkCell(t, c, e, totals)
			continue
		}
		t.Run(c.name, func(t *testing.T) { checkCell(t, c, e, totals) })
	}
	for _, name := range e.aggregate {
		if totals[name] == 0 {
			t.Errorf("no cell's Full run used %s; the whole family is vacuous", name)
		}
	}
}

// checkCell compares every variant of one cell with its reference run.
// totals accumulates Full-run work of the entry's aggregate layers.
func checkCell(t *testing.T, c cell, e matrixEntry, totals map[string]uint64) {
	t.Helper()
	ref := runVariant(t, c, vFull)
	for _, v := range e.variants {
		r := runVariant(t, c, v)
		if r.out != ref.out {
			t.Errorf("%s outcome differs from full:\n--- full ---\n%s\n--- %s ---\n%s\nfirst diff: %s",
				v.name, ref.out, v.name, r.out, firstDiff(ref.out, r.out))
		}
		if r.stats != nil {
			checkLayers(t, v, e, ref.stats, r.stats, totals)
		}
		if r.sink != nil {
			checkSink(t, c, v, r.sink, ref.stats)
		}
	}
}

// checkLayers: each layer the variant's level drops must be idle in the
// variant run, and the layers it drops first must have worked at Full.
func checkLayers(t *testing.T, v variant, e matrixEntry, full, got *layerStats, totals map[string]uint64) {
	t.Helper()
	for _, l := range fastPathLayers {
		if v.level < l.drop {
			continue
		}
		if !l.idle(got) {
			t.Errorf("%s run used %s: %+v", v.name, l.name, *got)
		}
		if l.drop != v.level {
			continue
		}
		switch {
		case slices.Contains(e.aggregate, l.name):
			totals[l.name] += l.work(full)
		case l.drop != cpu.Chained && l.work(full) == 0:
			t.Errorf("full run did no %s work; the %s differential is vacuous: %+v", l.name, v.name, *full)
		}
	}
}

// checkSink: the sink recorded the run, attributed its syscalls to the
// mechanism's dispatch path, and reports exactly the fast-path layers
// the level has: none of a dropped layer's counters, and the work of
// each kept layer that worked at Full (every kept layer on an
// everyLayer cell, which must have worked at Full).
func checkSink(t *testing.T, c cell, v variant, sink *telemetry.Sink, full *layerStats) {
	t.Helper()
	snap := sink.Metrics.Snapshot()
	if len(snap.Counters) == 0 {
		t.Fatalf("%s: sink recorded no counters; the differential is vacuous", v.name)
	}
	if sink.Timeline.Len() == 0 {
		t.Errorf("%s: sink recorded no timeline events", v.name)
	}
	if sink.Profiler.TotalWeight() == 0 {
		t.Errorf("%s: sink sampled no cycles", v.name)
	}
	if snap.Counters["cpu.cycles_total"] == 0 || snap.Counters["sched.quanta"] == 0 {
		t.Errorf("%s: substrate counters empty: cycles=%d quanta=%d",
			v.name, snap.Counters["cpu.cycles_total"], snap.Counters["sched.quanta"])
	}
	path := telemetryMechPath[c.mech]
	if snap.Counters["kernel.dispatch."+path+".calls"] == 0 {
		t.Errorf("%s: no syscalls attributed to expected path %q; dispatch counters: %v",
			v.name, path, dispatchCounters(snap))
	}
	if strings.HasPrefix(c.key, "web/") && snap.Counters["net.conns_accepted"] == 0 {
		t.Errorf("%s: netstack counters empty under a network workload", v.name)
	}
	if full == nil {
		return
	}
	for _, l := range fastPathLayers {
		if v.level >= l.drop {
			for name, n := range snap.Counters {
				if strings.HasPrefix(name, l.counter) && n != 0 {
					t.Errorf("%s: %s is off but the sink reported %s=%d", v.name, l.name, name, n)
				}
			}
			continue
		}
		if c.everyLayer && l.work(full) == 0 {
			t.Errorf("%s: full run did no %s work; the sink check is vacuous: %+v", v.name, l.name, *full)
		}
		if (c.everyLayer || l.work(full) > 0) && l.sinkWork(snap.Counters) == 0 {
			t.Errorf("%s: %s is on but the sink saw no %s* work", v.name, l.name, l.counter)
		}
	}
}

// TestFastPathMatrixCoversRetiredCells: every (guest, mechanism, switch
// setting) cell the per-layer suites ran when the fast path was five
// independent switches still runs in the matrix, at the level or
// observer variant the setting collapses onto.
func TestFastPathMatrixCoversRetiredCells(t *testing.T) {
	collapse := map[string]variant{
		"no-cache":           vInterp,
		"no-tlb":             vCached,
		"no-superblock":      vCached,
		"no-fastpath":        vCached,
		"no-traces":          vChained,
		"no-chain":           vSuperblocks,
		"no-chain-no-traces": vSuperblocks,
		"sink":               vTelemetry,
		"sink+no-fastpath":   vCachedSink,
		"sink+no-chain":      vSuperblockSink,
	}
	var retired []string // "guest/mech setting"
	add := func(guests, mechs []string, settings ...string) {
		for _, g := range guests {
			for _, m := range mechs {
				for _, s := range settings {
					retired = append(retired, g+"/"+m+" "+s)
				}
			}
		}
	}
	kernelGuests := []string{"microbench", "jit"}
	var ubuntuUtils []string
	for _, name := range guest.CoreutilNames {
		ubuntuUtils = append(ubuntuUtils, "coreutil/"+name+"/ubuntu")
		kernelGuests = append(kernelGuests, "coreutil/"+name+"/ubuntu", "coreutil/"+name+"/clearlinux")
	}
	web := []string{"web/nginx", "web/lighttpd"}
	chaos := []string{MechBaseline, MechLazypoline, MechSUD}
	lazy := []string{MechLazypoline}
	// The suites' SMC checks ran the microbench under lazypoline's lazy
	// rewrite and the JIT under baseline: cells listed below already.

	// Decode-cache suite: cache off.
	add(append(kernelGuests, web...), invarianceMechs, "no-cache")
	// D-TLB/superblock suite.
	add(kernelGuests, invarianceMechs, "no-tlb", "no-superblock", "no-fastpath")
	add(web, invarianceMechs, "no-fastpath")
	add([]string{"chaos-cat"}, chaos, "no-fastpath")
	add([]string{"microbench"}, lazy, "sink", "sink+no-fastpath")
	// Chaining/trace suite.
	add(append(kernelGuests, web...), invarianceMechs, "no-traces", "no-chain", "no-chain-no-traces")
	add([]string{"chaos-cat"}, chaos, "no-traces", "no-chain", "no-chain-no-traces")
	add([]string{"microbench"}, lazy, "sink", "sink+no-chain")
	// Telemetry suite.
	add(append(append([]string{"microbench", "jit", "coreutil/cat/clearlinux"}, ubuntuUtils...), web...),
		invarianceMechs, "sink")

	for _, r := range retired {
		cellKey, setting, _ := strings.Cut(r, " ")
		v, ok := collapse[setting]
		if !ok {
			t.Fatalf("no level for retired setting %q", setting)
		}
		if runUses[cellKey+" "+v.name] == 0 {
			t.Errorf("retired cell %s (%s) is not run as %s", cellKey, setting, v.name)
		}
	}
}
