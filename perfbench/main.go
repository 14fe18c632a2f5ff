// Command perfbench is the repository's host-performance benchmark. It
// drives the simulator through its public entry points, times those
// calls from its own code, checks every repetition's simulated outputs
// against pinned reference values, and prints the end-to-end metrics of
// one workload (or, with -trace 1, its per-layer metrics).
//
// Run it from the repository root through the wrapper, which builds this
// module first:
//
//	python3 perfbench/run.py --workload web-sendfile-256k --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// documents every workload and metric.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed reference.json
var defaultReference []byte

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 42, "input seed (only seed-sensitive workloads use it)")
	seconds := fs.Float64("seconds", 10, "host seconds of measured repetitions after the warm-up repetition")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	refPath := fs.String("ref", "", "reference-output file (default: the embedded reference.json)")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the detailed result file and spans (empty: none)")
	runIndex := fs.Int("run-index", 0, "index of this run in a series, recorded in the provenance")
	commit := fs.String("commit", "unknown", "source commit, recorded in the provenance")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workloadName, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	refData := defaultReference
	if *refPath != "" {
		b, err := os.ReadFile(*refPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		refData = b
	}
	refs, err := parseReference(refData)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	prov := newProvenance(w, *seed, *runIndex, *commit, *trace == 1)
	if w.cores() > prov.NProc {
		// Oversubscribing the host would measure contention, not the
		// simulator; report the workload as skipped instead.
		prov.Skipped = fmt.Sprintf("workload needs %d cores, host has %d", w.cores(), prov.NProc)
		printJSONLine(map[string]any{"provenance": prov})
		fmt.Fprintf(os.Stderr, "perfbench: %s skipped: %s\n", w.name(), prov.Skipped)
		return 3
	}
	if *trace == 1 {
		// Finer allocation sampling for the per-layer allocation shares.
		runtime.MemProfileRate = 64 << 10
	}

	opts := runOpts{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		gate:    newGate(w, refs, *seed),
	}
	res := runWorkload(w, opts)
	prov.Order = res.order

	var metrics map[string]metric
	if *trace == 1 {
		metrics = res.layerMetrics
		printJSONLine(map[string]any{"absent": res.absent})
	} else {
		metrics = res.endToEnd
	}
	printSummary(w, res, metrics)
	printJSONLine(map[string]any{"provenance": prov})
	if *outDir != "" {
		if err := writeDetail(*outDir, w, opts, prov, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing detail: %v\n", err)
		}
	}
	printJSONLine(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed the correctness gate: %s\n",
			w.name(), res.failed, res.attempted, res.firstFailure)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance records where and how a result was produced.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Cores      int    `json:"kernel_cores"`
	RunIndex   int    `json:"run_index"`
	Started    string `json:"started"`
	// Order lists the repetitions in the order this process ran them.
	Order   []repOrder `json:"order,omitempty"`
	Skipped string     `json:"skipped,omitempty"`
}

func newProvenance(w workload, seed uint64, runIndex int, commit string, traced bool) *provenance {
	return &provenance{
		Workload:   w.name(),
		Seed:       seed,
		Traced:     traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Cores:      w.cores(),
		RunIndex:   runIndex,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed here is plain data
	}
	fmt.Println(string(b))
}

// printSummary prints one human-readable line per metric, in name order.
func printSummary(w workload, res *result, metrics map[string]metric) {
	fmt.Printf("workload %s: %d repetitions measured, %d ops attempted, %d failed (fail_ratio %.4f)\n",
		w.name(), len(res.measured), res.attempted, res.failed, res.failRatio())
	var wall, cpu []float64
	for _, r := range res.timedReps(modePlain) {
		wall = append(wall, r.opsPerSec())
		cpu = append(cpu, float64(r.Ops)/r.CPUS)
	}
	fmt.Printf("  %-44s %14.6g %s\n", "ops_per_s (wall time)", median(wall), "ops/s")
	fmt.Printf("  %-44s %14.6g %s\n", "ops_per_cpu_s (unscaled CPU time)", median(cpu), "ops/cpu-s")
	fmt.Printf("  %-44s %14.6g %s\n", "fail_ratio", res.failRatio(), "ratio")
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// writeDetail writes the full result — provenance, every repetition and,
// for a traced run, every span — to one JSON file under dir.
func writeDetail(dir string, w workload, opts runOpts, prov *provenance, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "timed"
	if opts.traced {
		mode = "traced"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-run%d.json", w.name(), opts.seed, mode, prov.RunIndex))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"provenance":           prov,
		"reps":                 res.reps,
		"spans":                res.spans,
		"cpu_ns_by_layer":      res.cpuLayers,
		"alloc_bytes_by_layer": res.allocs,
	})
	return errors.Join(err, f.Close())
}
