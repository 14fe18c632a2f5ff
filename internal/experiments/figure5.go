package experiments

import (
	"fmt"

	"lazypoline/internal/cpu"
	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/webbench"
)

// Figure5Mechanisms is the macrobenchmark's mechanism set, in plot order.
var Figure5Mechanisms = []string{
	MechBaseline, MechZpoline, MechLazypolineNX, MechLazypoline, MechSUD,
}

// Figure5Point is one bar of Figure 5: a (server, workers, file size,
// mechanism) cell.
type Figure5Point struct {
	Server    string
	Workers   int
	FileSize  int
	Mechanism string
	// Throughput is requests/second (possibly client-capped).
	Throughput float64
	// Relative is throughput normalised to the same-configuration
	// baseline, the paper's y-axis.
	Relative float64
	// ClientCapped reports whether the client capacity limit bound this
	// point (multi-worker configurations).
	ClientCapped bool
}

// Figure5Config parameterises the sweep.
type Figure5Config struct {
	// FileSizes to sweep (the paper uses 64 B – 256 KB).
	FileSizes []int
	// Workers configurations (the paper uses 1 and 12).
	Workers []int
	// Servers to run (nginx and lighttpd).
	Servers []guest.ServerStyle
	// Mechanisms to compare; nil means Figure5Mechanisms. The list must
	// contain MechBaseline (in any position) — it anchors Relative.
	Mechanisms []string
	// Requests per run.
	Requests int
	// Connections (wrk threads).
	Connections int
	// ClientCapFactor bounds multi-worker throughput at
	// factor × single-worker baseline, modelling the finite capacity of
	// the 36-core client: with 12 parallel workers the fast mechanisms
	// all push the client towards saturation, which is why the paper's
	// 12-worker plots show compressed differences. Zero disables the cap.
	ClientCapFactor float64
	// Parallelism is the number of cells measured concurrently; <=0
	// selects DefaultParallelism. Each cell owns a private kernel, guest
	// image and CostModel copy, and results are assembled in plot order,
	// so any parallelism yields byte-identical points.
	Parallelism int
	// Costs overrides the cost model for every cell (zero value =
	// default). CostModel is a value type: each cell's kernel receives
	// its own copy.
	Costs kernel.CostModel
	// FastPath selects every cell's execution fast path (zero = the
	// whole fast path). The sweep's points are byte-identical at every
	// level; the CI determinism check runs a small sweep at each one to
	// enforce that. It selects execution machinery rather than an
	// experiment parameter, so it is excluded from BENCH_figure5.json —
	// runs at different levels must produce identical snapshots (modulo
	// wall_seconds).
	FastPath cpu.FastPath `json:"-"`
	// ChaosSeed and ChaosRate enable deterministic fault injection in
	// every cell (see internal/chaos). Unlike FastPath these
	// ARE experiment parameters — injected faults change throughput — so
	// they stay JSON-visible and land in benchmark snapshots.
	ChaosSeed uint64  `json:"chaos_seed,omitempty"`
	ChaosRate float64 `json:"chaos_rate,omitempty"`
	// RequestTraces attaches a private request tracer (internal/otrace)
	// to every cell, exercising the full request-tracing plane: ID
	// stamping, kernel span attribution, tail sampling. The collected
	// trees are discarded — the field exists to prove the plane is inert
	// (DESIGN.md §14). Execution machinery, excluded from snapshots: the
	// CI gate diffs a -reqtrace sweep against a plain one.
	RequestTraces bool `json:"-"`
	// Cores is each cell's host-parallelism budget (DESIGN.md §15).
	// Execution machinery, excluded from snapshots: any value must
	// produce byte-identical points to Cores == 1.
	Cores int `json:"-"`
	// PolicyRegions and PolicySFIP enable the syscall-policy layers in
	// every cell (DESIGN.md §12). Like chaos they are experiment
	// parameters — the checks cost cycles — but the omitempty tags keep
	// a policy-off sweep's snapshot byte-identical to one from a build
	// without the fields. PolicySFIP runs each cell twice: a learning
	// pass populates the cell's transition profile, then the measured
	// pass enforces it (the learning pass charges identical cycles, so
	// its schedule is the enforce run's schedule).
	PolicyRegions bool `json:"policy_regions,omitempty"`
	PolicySFIP    bool `json:"policy_sfip,omitempty"`
}

// DefaultFigure5Config mirrors the paper's sweep at simulation-friendly
// request counts.
func DefaultFigure5Config() Figure5Config {
	return Figure5Config{
		FileSizes:       []int{64, 1024, 16 * 1024, 64 * 1024, 256 * 1024},
		Workers:         []int{1, 12},
		Servers:         []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd},
		Requests:        240,
		Connections:     36,
		ClientCapFactor: 10,
	}
}

// figure5Cell identifies one sweep cell.
type figure5Cell struct {
	server   guest.ServerStyle
	workers  int
	fileSize int
	mech     string
}

// Figure5PathMetric is one dispatch path's aggregate within a cell, from
// the telemetry registry's kernel.dispatch.<path> counters.
type Figure5PathMetric struct {
	Path   string `json:"path"`
	Calls  uint64 `json:"calls"`
	Cycles uint64 `json:"cycles"`
}

// Figure5CellMetrics is the per-dispatch-path cycle breakdown of one
// sweep cell, recorded when the sweep runs with telemetry attached.
type Figure5CellMetrics struct {
	Server    string              `json:"server"`
	Workers   int                 `json:"workers"`
	FileSize  int                 `json:"file_size"`
	Mechanism string              `json:"mechanism"`
	Paths     []Figure5PathMetric `json:"paths"`
}

// Figure5 runs the macrobenchmark sweep: all cells are enumerated up
// front, measured on a bounded worker pool, and assembled in plot order.
// Baselines are looked up explicitly per configuration, so the output is
// independent of both execution interleaving and the order of the
// Workers/Mechanisms slices.
func Figure5(cfg Figure5Config) ([]Figure5Point, error) {
	points, _, err := figure5Run(cfg, false)
	return points, err
}

// Figure5WithMetrics is Figure5 with a per-cell telemetry registry
// attached, additionally returning each cell's dispatch-path cycle
// breakdown (in cell enumeration order). The points are byte-identical
// to a plain Figure5 run — telemetry is strictly observational, and the
// CI invariance step diffs the two to prove it.
func Figure5WithMetrics(cfg Figure5Config) ([]Figure5Point, []Figure5CellMetrics, error) {
	return figure5Run(cfg, true)
}

func figure5Run(cfg Figure5Config, withMetrics bool) ([]Figure5Point, []Figure5CellMetrics, error) {
	if len(cfg.Mechanisms) == 0 {
		cfg.Mechanisms = Figure5Mechanisms
	}
	if !containsStr(cfg.Mechanisms, MechBaseline) {
		return nil, nil, fmt.Errorf("experiments: figure5: mechanism list %v lacks %q — every point's Relative is normalised to the same-configuration baseline cell",
			cfg.Mechanisms, MechBaseline)
	}
	if cfg.ClientCapFactor > 0 && containsGreater(cfg.Workers, 1) && !containsInt(cfg.Workers, 1) {
		return nil, nil, fmt.Errorf("experiments: figure5: ClientCapFactor=%g needs a workers==1 configuration to anchor the client capacity cap (got workers %v)",
			cfg.ClientCapFactor, cfg.Workers)
	}

	// Enumerate every cell in plot order.
	var cells []figure5Cell
	for _, server := range cfg.Servers {
		for _, fileSize := range cfg.FileSizes {
			for _, workers := range cfg.Workers {
				for _, mech := range cfg.Mechanisms {
					cells = append(cells, figure5Cell{server, workers, fileSize, mech})
				}
			}
		}
	}

	// Measure. Each cell builds its own kernel, guest image, cost model
	// and (optionally) telemetry registry; the raw (uncapped) throughputs
	// and per-cell metrics land at disjoint indices.
	raw := make([]float64, len(cells))
	var metrics []Figure5CellMetrics
	if withMetrics {
		metrics = make([]Figure5CellMetrics, len(cells))
	}
	err := runSweep(len(cells), cfg.Parallelism, func(i int) error {
		c := cells[i]
		var sink *telemetry.Sink
		if withMetrics {
			sink = &telemetry.Sink{Metrics: telemetry.NewRegistry()}
		}
		wcfg := webbench.Config{
			Style:       c.server,
			Workers:     c.workers,
			FileSize:    c.fileSize,
			Connections: cfg.Connections,
			Requests:    cfg.Requests,
			Attach:      AttachFunc(c.mech),
			Costs:       cfg.Costs,
			FastPath:    cfg.FastPath,
			ChaosSeed:   cfg.ChaosSeed,
			ChaosRate:   cfg.ChaosRate,
			Telemetry:   sink,
			Cores:       cfg.Cores,
		}
		if cfg.RequestTraces {
			wcfg.Trace = otrace.New(otrace.Config{})
			wcfg.TraceSeed = uint64(i) + 1
		}
		pol, err := cellPolicy(cfg.PolicyRegions, cfg.PolicySFIP, func(learn *kernel.PolicyConfig) error {
			lcfg := wcfg
			lcfg.Policy = learn
			lcfg.Telemetry = nil // the learning pass is never measured
			_, lerr := webbench.Run(lcfg)
			return lerr
		})
		if err != nil {
			return fmt.Errorf("experiments: figure5 %s/%dw/%dB/%s: learn: %w",
				c.server, c.workers, c.fileSize, c.mech, err)
		}
		wcfg.Policy = pol
		res, err := webbench.Run(wcfg)
		if err != nil {
			return fmt.Errorf("experiments: figure5 %s/%dw/%dB/%s: %w",
				c.server, c.workers, c.fileSize, c.mech, err)
		}
		raw[i] = res.Throughput
		if withMetrics {
			metrics[i] = Figure5CellMetrics{
				Server:    c.server.String(),
				Workers:   c.workers,
				FileSize:  c.fileSize,
				Mechanism: c.mech,
				Paths:     dispatchBreakdown(sink.Metrics.Snapshot()),
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	tput := make(map[figure5Cell]float64, len(cells))
	for i, c := range cells {
		tput[c] = raw[i]
	}

	// Assemble in plot order, with both baselines fetched explicitly:
	// the workers==1 baseline anchors the client capacity cap, and the
	// same-configuration baseline (capped like any other cell) anchors
	// Relative.
	applyCap := func(c figure5Cell, single float64) (float64, bool) {
		t := tput[c]
		if cfg.ClientCapFactor > 0 && c.workers > 1 && single > 0 {
			if limit := cfg.ClientCapFactor * single; t > limit {
				return limit, true
			}
		}
		return t, false
	}
	out := make([]Figure5Point, 0, len(cells))
	for _, server := range cfg.Servers {
		for _, fileSize := range cfg.FileSizes {
			single := tput[figure5Cell{server, 1, fileSize, MechBaseline}]
			for _, workers := range cfg.Workers {
				baseline, _ := applyCap(figure5Cell{server, workers, fileSize, MechBaseline}, single)
				if baseline <= 0 {
					return nil, nil, fmt.Errorf("experiments: figure5 %s/%dw/%dB: baseline cell produced no throughput; cannot normalise",
						server, workers, fileSize)
				}
				for _, mech := range cfg.Mechanisms {
					t, capped := applyCap(figure5Cell{server, workers, fileSize, mech}, single)
					out = append(out, Figure5Point{
						Server:       server.String(),
						Workers:      workers,
						FileSize:     fileSize,
						Mechanism:    mech,
						Throughput:   t,
						Relative:     t / baseline,
						ClientCapped: capped,
					})
				}
			}
		}
	}
	return out, metrics, nil
}

// dispatchBreakdown extracts the kernel.dispatch.<path> counters from a
// registry snapshot, keeping paths that saw at least one call.
func dispatchBreakdown(snap telemetry.Snapshot) []Figure5PathMetric {
	var out []Figure5PathMetric
	for _, path := range kernel.DispatchPaths() {
		calls := snap.Counters["kernel.dispatch."+path+".calls"]
		if calls == 0 {
			continue
		}
		out = append(out, Figure5PathMetric{
			Path:   path,
			Calls:  calls,
			Cycles: snap.Counters["kernel.dispatch."+path+".cycles"],
		})
	}
	return out
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func containsInt(xs []int, want int) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func containsGreater(xs []int, floor int) bool {
	for _, x := range xs {
		if x > floor {
			return true
		}
	}
	return false
}

// AttachFunc adapts the mechanism registry to webbench, for callers
// (macrobench's instrumented run) that assemble their own Config.
func AttachFunc(mech string) webbench.AttachFunc {
	if mech == MechBaseline {
		return nil
	}
	return func(k *kernel.Kernel, t *kernel.Task) error {
		return attach(mech, k, t, false)
	}
}
