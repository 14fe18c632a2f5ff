package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"lazypoline/internal/fleet"
	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/telemetry"
)

// fleetWork is the open-loop kill drill. fleet.Run is one call, so the
// timed phase is the whole call, set-up included (about 1% of it).
type fleetWork struct {
	id  string
	cfg fleet.Config
}

func init() {
	register(&fleetWork{
		id: "fleet-kill-small",
		cfg: fleet.Config{
			Backends:      3,
			Workers:       1,
			Style:         guest.StyleLighttpd,
			FileSize:      512,
			AppWorkIters:  600,
			Requests:      6000,
			Rate:          25,
			Drill:         fleet.Drill{Kind: fleet.DrillKill, Backend: 0},
			ProbeInterval: 150_000,
			ProbeTimeout:  20_000,
			Attach:        attachLazypoline,
			Cores:         1,
		},
	})
}

func (w *fleetWork) name() string    { return w.id }
func (w *fleetWork) cores() int      { return w.cfg.Cores }
func (w *fleetWork) plannedOps() int { return w.cfg.Requests }

// check holds for every seed: the drill ejects the killed backend and
// retries carry every request to completion.
func (w *fleetWork) check(out map[string]float64) error {
	switch {
	case int(out["completed"]) != w.cfg.Requests:
		return fmt.Errorf("completed %v of %d requests", out["completed"], w.cfg.Requests)
	case out["lost"] != 0:
		return fmt.Errorf("lost %v requests", out["lost"])
	case out["ejections"] < 1:
		return errors.New("the killed backend was never ejected")
	}
	return nil
}

func (w *fleetWork) absent() map[string]string {
	const inside = "fleet.Run drives the kernel and client internally; the benchmark cannot time those calls from outside"
	const micro = "mechanism host cost is isolated on syscall-micro only"
	return map[string]string{
		"sched.run_slice_p50_us":              inside,
		"sched.run_slice_p99_us":              inside,
		"sched.run_slice_count":               inside,
		"webbench.client_step_us_per_op":      inside,
		"mech.baseline.host_ns_per_syscall":   micro,
		"mech.zpoline.host_ns_per_syscall":    micro,
		"mech.lazypoline.host_ns_per_syscall": micro,
		"mech.SUD.host_ns_per_syscall":        micro,
		"mech.baseline.allocs_per_syscall":    micro,
		"mech.zpoline.allocs_per_syscall":     micro,
		"mech.lazypoline.allocs_per_syscall":  micro,
		"mech.SUD.allocs_per_syscall":         micro,
	}
}

func (w *fleetWork) config(seed uint64) fleet.Config {
	cfg := w.cfg
	cfg.Seed = seed
	return cfg
}

// setup times a one-request run of the same configuration: fleet.Run
// sets up, boots, serves and tears down in one call.
func (w *fleetWork) setup(e *env) (instance, error) {
	if e.r.Warmup || e.traced() {
		// fleet.Run's set-up cannot be split from outside, so its phases
		// are timed on a replica of the same steps.
		if err := w.setupReplica(e); err != nil {
			return nil, err
		}
	}
	one := w.config(e.seed)
	one.Requests = 1
	span := e.rec.open("fleet.Run(1 request)", -1)
	_, err := fleet.Run(one)
	e.rec.close(span)
	if err != nil {
		return nil, fmt.Errorf("set-up run: %w", err)
	}
	return &fleetInstance{w: w}, nil
}

type fleetInstance struct{ w *fleetWork }

func (in *fleetInstance) close() {}

func (in *fleetInstance) run(e *env) error {
	r := e.r
	cfg := in.w.config(e.seed)
	cfg.Telemetry = e.newSink()
	var k *kernel.Kernel
	cfg.Attach = func(kk *kernel.Kernel, t *kernel.Task) error {
		k = kk
		return in.w.cfg.Attach(kk, t)
	}
	if err := e.beginTimed(); err != nil {
		return err
	}
	// fleet.Run is one call, so the host's speed is sampled beside it.
	e.speed.background()
	heap := startHeapSampler()
	span := e.rec.open("fleet.Run", e.timed)
	res, err := fleet.Run(cfg)
	e.rec.close(span)
	live := heap.stop()
	if err != nil {
		return err
	}
	if err := e.endTimed(res.Completed); err != nil {
		return err
	}
	// fleet.Run tears its kernel down before returning, so the live heap
	// is the mean over the run of the heap the last collection marked
	// live.
	r.LiveHeap = live
	counterDelta(r.Counters, telemetry.Snapshot{}, snapshot(cfg.Telemetry))
	r.Counters["sched.parallel_rounds"] = float64(k.ParallelRounds())
	r.Counters["fleet.routed"] = float64(res.Routed)
	r.Counters["fleet.probes_sent"] = float64(res.ProbesSent)

	r.Outputs["completed"] = float64(res.Completed)
	r.Outputs["lost"] = float64(res.Lost)
	r.Outputs["retries"] = float64(res.Retries)
	r.Outputs["ejections"] = float64(res.Ejections)
	r.Outputs["p50_cycles"] = float64(res.P50)
	r.Outputs["p99_cycles"] = float64(res.P99)
	return nil
}

// setupReplica repeats fleet.Run's set-up steps — assemble, kernel and
// file, spawn and attach each backend, boot until every backend listens —
// with each phase timed.
func (w *fleetWork) setupReplica(e *env) error {
	cfg := w.cfg
	p := e.beginPhase("kernel")
	k := kernel.New(kernel.Config{Cores: cfg.Cores})
	err := populate(k, cfg.FileSize)
	e.endPhase(p)
	if err != nil {
		return err
	}
	defer func() {
		k.KillAll()
		k.RunSlice(1_000_000)
	}()
	ports := make([]uint16, cfg.Backends)
	for i := range ports {
		ports[i] = uint16(fleet.BackendBasePort + i)
		p = e.beginPhase("build")
		prog, err := guest.WebServer(guest.WebServerConfig{
			Style: cfg.Style, Port: ports[i], Path: "/www/static",
			Workers: cfg.Workers, AppWorkIters: cfg.AppWorkIters,
		})
		e.endPhase(p)
		if err != nil {
			return err
		}
		p = e.beginPhase("spawn")
		master, err := prog.Spawn(k)
		e.endPhase(p)
		if err != nil {
			return err
		}
		p = e.beginPhase("attach")
		err = cfg.Attach(k, master)
		e.endPhase(p)
		if err != nil {
			return err
		}
	}
	p = e.beginPhase("boot")
	defer e.endPhase(p)
	for i := 0; i < 2000; i++ {
		span := e.rec.open("kernel.RunSlice", p.span)
		k.RunSlice(200_000)
		e.rec.close(span)
		if allListening(k, ports) {
			return nil
		}
	}
	return errors.New("fleet replica: backends did not all start listening")
}

func allListening(k *kernel.Kernel, ports []uint16) bool {
	for _, port := range ports {
		ep, err := k.Net.Connect(port)
		if err != nil {
			return false
		}
		ep.Close()
	}
	return true
}

// heapSampler polls the heap the last collection marked live and
// averages it over the sampling period.
type heapSampler struct {
	stopc    chan struct{}
	wg       sync.WaitGroup
	sum      float64
	nsamples int
}

const heapLiveMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.sum += float64(s[0].Value.Uint64())
		h.nsamples++
	}
}

// stop ends sampling and returns the mean.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	if h.nsamples == 0 {
		return 0
	}
	return uint64(h.sum / float64(h.nsamples))
}
