package main

import (
	"errors"
	"fmt"

	"lazypoline/internal/core"
	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/webbench"
)

// webWork is the closed-loop Figure 5 cell driven piecewise, so each
// set-up phase and each call into the kernel and the client is timed
// from here. The steps mirror webbench.Run exactly; the benchmark's tests
// check that both give the same cycles per request.
type webWork struct {
	id          string
	style       guest.ServerStyle
	workers     int
	fileSize    int
	connections int
	requests    int
	kernelCores int
}

const webPort = 8080

func init() {
	register(&webWork{
		id:          "web-sendfile-256k",
		style:       guest.StyleNginx,
		workers:     12,
		fileSize:    256 << 10,
		connections: 36,
		requests:    2000,
		kernelCores: 2,
	})
}

func (w *webWork) name() string    { return w.id }
func (w *webWork) cores() int      { return w.kernelCores }
func (w *webWork) plannedOps() int { return w.requests }

func (w *webWork) check(out map[string]float64) error {
	if int(out["completed"]) != w.requests {
		return fmt.Errorf("completed %v of %d requests", out["completed"], w.requests)
	}
	return nil
}

func (w *webWork) absent() map[string]string {
	return map[string]string{
		"mech.baseline.host_ns_per_syscall":   "mechanism host cost is isolated on syscall-micro only",
		"mech.zpoline.host_ns_per_syscall":    "mechanism host cost is isolated on syscall-micro only",
		"mech.lazypoline.host_ns_per_syscall": "mechanism host cost is isolated on syscall-micro only",
		"mech.SUD.host_ns_per_syscall":        "mechanism host cost is isolated on syscall-micro only",
		"mech.baseline.allocs_per_syscall":    "mechanism host cost is isolated on syscall-micro only",
		"mech.zpoline.allocs_per_syscall":     "mechanism host cost is isolated on syscall-micro only",
		"mech.lazypoline.allocs_per_syscall":  "mechanism host cost is isolated on syscall-micro only",
		"mech.SUD.allocs_per_syscall":         "mechanism host cost is isolated on syscall-micro only",
		"fleet.routed":                        "no fleet in this workload",
		"fleet.probes_sent":                   "no fleet in this workload",
		"fleet.ejections":                     "no fleet in this workload",
		"fleet.retries":                       "no fleet in this workload",
	}
}

// attachLazypoline attaches lazypoline as deployed: sites are rewritten
// lazily, on first use.
func attachLazypoline(k *kernel.Kernel, t *kernel.Task) error {
	_, err := core.Attach(k, t, interpose.Dummy{}, core.Options{})
	return err
}

func (w *webWork) config() webbench.Config {
	return webbench.Config{
		Style:       w.style,
		Workers:     w.workers,
		FileSize:    w.fileSize,
		Connections: w.connections,
		Requests:    w.requests,
		Attach:      attachLazypoline,
		Cores:       w.kernelCores,
	}
}

func (w *webWork) setup(e *env) (instance, error) {
	sink := e.newSink()

	p := e.beginPhase("build")
	prog, err := guest.WebServer(guest.WebServerConfig{
		Style: w.style, Port: webPort, Path: "/www/static", Workers: w.workers,
	})
	e.endPhase(p)
	if err != nil {
		return nil, err
	}

	p = e.beginPhase("kernel")
	k := kernel.New(kernel.Config{Telemetry: sink, Cores: w.kernelCores})
	err = populate(k, w.fileSize)
	e.endPhase(p)
	if err != nil {
		return nil, err
	}

	p = e.beginPhase("spawn")
	master, err := prog.Spawn(k)
	e.endPhase(p)
	if err != nil {
		return nil, err
	}

	p = e.beginPhase("attach")
	err = attachLazypoline(k, master)
	e.endPhase(p)
	if err != nil {
		return nil, err
	}

	// Boot: run until the listener is up, then connect every client.
	p = e.beginPhase("boot")
	defer e.endPhase(p)
	inst := &webInstance{w: w, k: k, master: master, sink: sink,
		client: webbench.NewClient(k.Net, webPort, w.connections, guest.ResponseHeaderSize+w.fileSize, w.requests)}
	for i := 0; i < 1000; i++ {
		span := e.rec.open("kernel.RunSlice", p.span)
		k.RunSlice(200_000)
		e.rec.close(span)
		span = e.rec.open("webbench.Client.Connect", p.span)
		err := inst.client.Connect(k)
		e.rec.close(span)
		if err == nil {
			return inst, nil
		}
	}
	inst.close()
	return nil, errors.New("server did not start listening")
}

// webInstance is a booted server with its clients connected.
type webInstance struct {
	w      *webWork
	k      *kernel.Kernel
	master *kernel.Task
	client *webbench.Client
	sink   *telemetry.Sink
}

func (in *webInstance) close() {
	in.client.Close()
	in.k.KillAll()
	in.k.RunSlice(1_000_000)
}

func (in *webInstance) run(e *env) error {
	k, client, requests := in.k, in.client, in.w.requests
	// Worker cycles are snapshotted after boot, as webbench.Run does, so
	// start-up is excluded from the simulated cycles per request.
	startCycles := workerCycles(k, in.master)
	before := snapshot(in.sink)
	if err := e.beginTimed(); err != nil {
		return err
	}
	for i := 0; ; i++ {
		span := e.rec.open("webbench.Client.Step", e.timed)
		client.Step()
		e.rec.close(span)
		if client.Done() {
			break
		}
		if client.AllDead() {
			return fmt.Errorf("all connections failed at %d/%d requests: %s",
				client.Completed(), requests, client.DeadDetail())
		}
		span = e.rec.open("kernel.RunSlice", e.timed)
		alive := k.RunSlice(500_000)
		e.rec.close(span)
		if !alive {
			return errors.New("all server tasks exited")
		}
		e.speed.tick()
		if i > 2_000_000 {
			return fmt.Errorf("stalled at %d/%d requests", client.Completed(), requests)
		}
	}
	endCycles := workerCycles(k, in.master)
	if err := e.endTimed(client.Completed()); err != nil {
		return err
	}
	r := e.r
	counterDelta(r.Counters, before, snapshot(in.sink))
	r.Counters["sched.parallel_rounds"] = float64(k.ParallelRounds())

	var sum uint64
	for id, c := range endCycles {
		sum += c - startCycles[id]
	}
	r.Outputs["completed"] = float64(client.Completed())
	r.Outputs["server_cycles"] = float64(sum)
	r.Outputs["cycles_per_request"] = float64(sum) / float64(client.Completed())
	return nil
}

// populate writes the static file every server serves and seals the
// filesystem, as webbench.Run and fleet.Run do.
func populate(k *kernel.Kernel, size int) error {
	content := make([]byte, size)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	if err := k.FS.MkdirAll("/www", 0o755); err != nil {
		return err
	}
	if err := k.FS.WriteFile("/www/static", content, 0o644); err != nil {
		return err
	}
	k.FS.Seal()
	return nil
}

// workerCycles returns the cycle count of every live task but master.
func workerCycles(k *kernel.Kernel, master *kernel.Task) map[int]uint64 {
	out := make(map[int]uint64)
	for _, t := range k.Tasks() {
		if t != master {
			out[t.ID] = t.CPU.Cycles
		}
	}
	return out
}

// snapshot returns the sink's metrics (empty without a sink).
func snapshot(sink *telemetry.Sink) telemetry.Snapshot {
	if sink == nil || sink.Metrics == nil {
		return telemetry.Snapshot{}
	}
	return sink.Metrics.Snapshot()
}
