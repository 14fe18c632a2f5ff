package main

import (
	"fmt"
	"runtime"

	"lazypoline/internal/core"
	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/sud"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/zpoline"
)

// microSliceSteps is the CPU steps of one kernel.RunSlice call, a few
// milliseconds of host time.
const microSliceSteps = 100_000

// microWork is the Table II loop: a nonexistent syscall issued iters
// times under each mechanism, each in its own kernel.
type microWork struct {
	id    string
	iters int64
	mechs []string
}

// Mechanism names, as in experiments' Table II rows.
const (
	mechBaseline   = "baseline"
	mechZpoline    = "zpoline"
	mechLazypoline = "lazypoline"
	mechSUD        = "SUD"
)

func init() {
	register(&microWork{
		id:    "syscall-micro",
		iters: 150_000,
		mechs: []string{mechBaseline, mechZpoline, mechLazypoline, mechSUD},
	})
}

func (w *microWork) name() string    { return w.id }
func (w *microWork) cores() int      { return 1 }
func (w *microWork) plannedOps() int { return int(w.iters) * len(w.mechs) }

func (w *microWork) check(out map[string]float64) error {
	for _, m := range w.mechs {
		if out[m+".exit_code"] != 0 {
			return fmt.Errorf("%s: microbenchmark exited %v", m, out[m+".exit_code"])
		}
	}
	return nil
}

func (w *microWork) absent() map[string]string {
	const noIO = "the loop has no file, socket, client or boot"
	return map[string]string{
		"setup.boot_s":                   noIO,
		"netstack.conns_accepted":        noIO,
		"netstack.recv_buf_high_water":   noIO,
		"webbench.client_step_us_per_op": noIO,
		"fleet.routed":                   "no fleet in this workload",
		"fleet.probes_sent":              "no fleet in this workload",
		"fleet.ejections":                "no fleet in this workload",
		"fleet.retries":                  "no fleet in this workload",
	}
}

// attachMech installs a mechanism with the Dummy interposer, with
// lazypoline's sites rewritten up front as Table II does.
func attachMech(mech string, k *kernel.Kernel, t *kernel.Task) error {
	var err error
	switch mech {
	case mechBaseline:
	case mechZpoline:
		_, err = zpoline.Attach(k, t, interpose.Dummy{}, zpoline.Options{})
	case mechLazypoline:
		_, err = core.Attach(k, t, interpose.Dummy{}, core.Options{PreRewrite: true})
	case mechSUD:
		_, err = sud.Attach(k, t, interpose.Dummy{})
	default:
		err = fmt.Errorf("unknown mechanism %q", mech)
	}
	return err
}

// microMachine is one mechanism's kernel with the loop spawned.
type microMachine struct {
	mech string
	k    *kernel.Kernel
	task *kernel.Task
	sink *telemetry.Sink
}

// microInstance holds every mechanism's kernel: all are set up before
// the first timed syscall.
type microInstance struct {
	w  *microWork
	ms []microMachine
}

func (w *microWork) setup(e *env) (instance, error) {
	p := e.beginPhase("build")
	prog, err := guest.Microbench(kernel.NonexistentSyscall, w.iters)
	e.endPhase(p)
	if err != nil {
		return nil, err
	}
	in := &microInstance{w: w}
	for _, mech := range w.mechs {
		// Each kernel gets its own sink: collectors overwrite counters.
		m := microMachine{mech: mech, sink: e.newSink()}
		p = e.beginPhase("kernel")
		m.k = kernel.New(kernel.Config{Telemetry: m.sink, Cores: 1})
		e.endPhase(p)
		p = e.beginPhase("spawn")
		m.task, err = prog.Spawn(m.k)
		e.endPhase(p)
		if err != nil {
			return nil, err
		}
		p = e.beginPhase("attach")
		err = attachMech(mech, m.k, m.task)
		e.endPhase(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mech, err)
		}
		in.ms = append(in.ms, m)
	}
	return in, nil
}

// close drops the kernels; their tasks have exited or never ran.
func (in *microInstance) close() {}

func (in *microInstance) run(e *env) error {
	r, iters := e.r, float64(in.w.iters)
	if err := e.beginTimed(); err != nil {
		return err
	}
	var st runtime.MemStats
	for _, m := range in.ms {
		runtime.ReadMemStats(&st)
		mallocs := st.Mallocs
		e.speed.flush()
		ref := e.speed.ref
		// The loop runs in slices so the host's speed is probed every
		// few milliseconds; the simulated run is the same as one Run.
		for n, alive := 0, true; alive; n++ {
			if n > int(in.w.iters) {
				return fmt.Errorf("%s: the loop did not exit", m.mech)
			}
			span := e.rec.open("kernel.RunSlice", e.timed)
			alive = m.k.RunSlice(microSliceSteps)
			e.rec.close(span)
			e.speed.tick()
		}
		e.speed.flush()
		runtime.ReadMemStats(&st)
		r.Counters["mech."+m.mech+".host_ns_per_syscall"] = (e.speed.ref - ref) * 1e9 / iters
		r.Counters["mech."+m.mech+".allocs_per_syscall"] = float64(st.Mallocs-mallocs) / iters
	}
	if err := e.endTimed(in.w.plannedOps()); err != nil {
		return err
	}
	for _, m := range in.ms {
		counterDelta(r.Counters, telemetry.Snapshot{}, snapshot(m.sink))
		r.Outputs[m.mech+".exit_code"] = float64(m.task.ExitCode)
		r.Outputs[m.mech+".cycles_per_syscall"] = float64(m.task.CPU.Cycles) / iters
	}
	return nil
}
