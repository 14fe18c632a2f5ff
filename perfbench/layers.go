package main

import "strings"

// layerMetric names one per-layer metric and its unit. The list is the
// traced run's output, in BENCHMARK.json's per_layer order.
type layerMetric struct{ name, unit string }

// dispatchPaths are the kernel dispatch paths the workloads take.
var dispatchPaths = []string{"direct", "trampoline", "sud-allow", "sud-range", "sigsys"}

// mechanisms whose host cost syscall-micro isolates.
var microMechs = []string{mechBaseline, mechZpoline, mechLazypoline, mechSUD}

func layerMetricList() []layerMetric {
	l := []layerMetric{
		{"setup.build_s", "s"}, {"setup.kernel_s", "s"}, {"setup.spawn_s", "s"},
		{"setup.attach_s", "s"}, {"setup.boot_s", "s"},
		{"cpu.self_share", "ratio"}, {"cpu.decode_hit_ratio", "ratio"}, {"cpu.tlb_hit_ratio", "ratio"},
		{"cpu.fused_loop_iters_per_op", "1/op"}, {"cpu.chain_transitions_per_op", "1/op"},
		{"cpu.fetch_walks_per_op", "1/op"},
		{"mem.self_share", "ratio"}, {"mem.page_faults_per_op", "1/op"}, {"mem.generation_bumps_per_op", "1/op"},
		{"kernel.self_share", "ratio"}, {"kernel.alloc_share", "ratio"}, {"kernel.syscalls_per_op", "1/op"},
	}
	for _, p := range dispatchPaths {
		l = append(l, layerMetric{"kernel.dispatch." + p + ".calls_per_op", "1/op"})
	}
	l = append(l,
		layerMetric{"sched.self_share", "ratio"}, layerMetric{"sched.parallel_rounds", "count"},
		layerMetric{"sched.host_cpu_per_wall", "ratio"}, layerMetric{"sched.run_slice_p50_us", "us"},
		layerMetric{"sched.run_slice_p99_us", "us"}, layerMetric{"sched.run_slice_count", "count"},
		layerMetric{"sched.quanta_per_op", "1/op"},
		layerMetric{"mech.self_share", "ratio"},
	)
	for _, m := range microMechs {
		l = append(l, layerMetric{"mech." + m + ".host_ns_per_syscall", "ns"},
			layerMetric{"mech." + m + ".allocs_per_syscall", "1/syscall"})
	}
	return append(l,
		layerMetric{"lazypoline.slowpath_hits_per_op", "1/op"}, layerMetric{"sud.sigsys_hits_per_op", "1/op"},
		layerMetric{"netstack.self_share", "ratio"}, layerMetric{"netstack.conns_accepted", "count"},
		layerMetric{"netstack.recv_buf_high_water", "B"}, layerMetric{"webbench.client_step_us_per_op", "us/op"},
		layerMetric{"fs.self_share", "ratio"},
		layerMetric{"fleet.self_share", "ratio"}, layerMetric{"fleet.routed", "count"},
		layerMetric{"fleet.probes_sent", "count"}, layerMetric{"fleet.ejections", "count"},
		layerMetric{"fleet.retries", "count"},
		layerMetric{"runtime.gc_share", "ratio"}, layerMetric{"runtime.alloc_share", "ratio"},
		layerMetric{"runtime.gc_cycles_per_kop", "1/kop"},
		layerMetric{"trace.overhead_ratio", "ratio"},
	)
}

// layerMetrics computes every per-layer metric of a traced run. Counts
// come from the counted repetitions, shares and span timings from the
// profiled ones, and host timings that need neither (mechanism cost, CPU
// per wall second, collections) from the plain ones. A metric the
// workload cannot measure is reported as 0 and named in the returned
// absent map.
func layerMetrics(w workload, res *result) (map[string]metric, map[string]string) {
	plain, counted, profiled := res.timedReps(modePlain), res.timedReps(modeCounted), res.timedReps(modeProfiled)
	passing := append(append(append([]*repResult(nil), plain...), counted...), profiled...)
	countedOps := sumField(counted, func(r *repResult) float64 { return float64(r.Ops) })
	sum := func(name string) float64 {
		return sumField(counted, func(r *repResult) float64 { return r.Counters[name] })
	}
	perOp := func(name string) float64 { return ratio(sum(name), countedOps) }
	medOf := func(reps []*repResult, f func(*repResult) (float64, bool)) float64 {
		var v []float64
		for _, r := range reps {
			if x, ok := f(r); ok {
				v = append(v, x)
			}
		}
		return median(v)
	}
	medCounter := func(reps []*repResult, name string) float64 {
		return medOf(reps, func(r *repResult) (float64, bool) { x, ok := r.Counters[name]; return x, ok })
	}
	medSetup := func(phase string) float64 {
		return medOf(passing, func(r *repResult) (float64, bool) { x, ok := r.Setup[phase]; return x, ok })
	}

	var cpuTotal, allocTotal float64
	for _, v := range res.cpuLayers {
		cpuTotal += float64(v)
	}
	for _, v := range res.allocs {
		allocTotal += float64(v)
	}
	share := func(layer string) float64 { return ratio(float64(res.cpuLayers[layer]), cpuTotal) }

	v := map[string]float64{
		"setup.kernel_s": medSetup("kernel"),
		"setup.spawn_s":  medSetup("spawn"),
		"setup.attach_s": medSetup("attach"),
		"setup.boot_s":   medSetup("boot"),

		"cpu.self_share":       share(layerCPU),
		"cpu.decode_hit_ratio": ratio(sum("cpu.decode_cache.hits"), sum("cpu.decode_cache.hits")+sum("cpu.decode_cache.misses")),
		"cpu.tlb_hit_ratio":    ratio(sum("cpu.tlb.hits"), sum("cpu.tlb.hits")+sum("cpu.tlb.misses")),

		"cpu.fused_loop_iters_per_op":  perOp("cpu.trace.fused_loop_iters"),
		"cpu.chain_transitions_per_op": perOp("cpu.chain.transitions"),
		"cpu.fetch_walks_per_op":       perOp("cpu.fetch_walks"),

		"mem.self_share":              share(layerMem),
		"mem.page_faults_per_op":      perOp("mem.page_faults"),
		"mem.generation_bumps_per_op": perOp("mem.generation_bumps"),

		"kernel.self_share":  share(layerKernel),
		"kernel.alloc_share": ratio(float64(res.allocs[layerKernel]), allocTotal),

		"sched.self_share":        share(layerSched),
		"sched.parallel_rounds":   medCounter(passing, "sched.parallel_rounds"),
		"sched.host_cpu_per_wall": ratio(sumField(plain, func(r *repResult) float64 { return r.CPUS }), sumField(plain, func(r *repResult) float64 { return r.TimedS })),
		"sched.quanta_per_op":     perOp("sched.quanta"),

		"mech.self_share":                 share(layerMech),
		"lazypoline.slowpath_hits_per_op": perOp("lazypoline.slowpath_hits"),
		"sud.sigsys_hits_per_op":          perOp("sud.sigsys_hits"),

		"netstack.self_share":          share(layerNetstack),
		"netstack.conns_accepted":      medCounter(counted, "net.conns_accepted"),
		"netstack.recv_buf_high_water": medCounter(counted, "net.recv_buf_high_water"),

		"fs.self_share": share(layerFS),

		"fleet.self_share":  share(layerFleet),
		"fleet.routed":      medCounter(passing, "fleet.routed"),
		"fleet.probes_sent": medCounter(passing, "fleet.probes_sent"),

		"runtime.gc_share":          share(runtimeGC),
		"runtime.alloc_share":       share(runtimeAlloc),
		"runtime.gc_cycles_per_kop": 1000 * ratio(sumField(plain, func(r *repResult) float64 { return float64(r.GCCycles) }), sumField(plain, func(r *repResult) float64 { return float64(r.Ops) })),

		// Tracing is the counted repetitions' sink and spans.
		"trace.overhead_ratio": ratio(medOf(counted, func(r *repResult) (float64, bool) { return r.opsPerRefCPUSec(), true }),
			medOf(plain, func(r *repResult) (float64, bool) { return r.opsPerRefCPUSec(), true })),
	}
	// The first, uncached assembly of the guest image happens in the
	// warm-up repetition; later builds hit guest.BuildCached.
	if len(res.reps) > 0 && res.reps[0].Warmup {
		v["setup.build_s"] = res.reps[0].Setup["build"]
	}
	if len(res.reps) > 0 {
		v["fleet.ejections"] = res.reps[0].Outputs["ejections"]
		v["fleet.retries"] = res.reps[0].Outputs["retries"]
	}
	var syscalls float64
	for _, p := range dispatchPaths {
		v["kernel.dispatch."+p+".calls_per_op"] = perOp("kernel.dispatch." + p + ".calls")
	}
	for _, r := range counted {
		for k, x := range r.Counters {
			if strings.HasPrefix(k, "kernel.dispatch.") && strings.HasSuffix(k, ".calls") {
				syscalls += x
			}
		}
	}
	v["kernel.syscalls_per_op"] = ratio(syscalls, countedOps)
	for _, m := range microMechs {
		v["mech."+m+".host_ns_per_syscall"] = medCounter(plain, "mech."+m+".host_ns_per_syscall")
		v["mech."+m+".allocs_per_syscall"] = medCounter(plain, "mech."+m+".allocs_per_syscall")
	}

	// Span timings come from the profiled repetitions, which carry no
	// telemetry sink.
	inProfiled := map[int]bool{}
	for _, r := range profiled {
		inProfiled[r.Index] = true
	}
	profiledOps := sumField(profiled, func(r *repResult) float64 { return float64(r.Ops) })
	var slices []float64
	var stepNs float64
	for _, s := range res.spans {
		if !s.Timed || !inProfiled[s.Rep] {
			continue
		}
		switch s.Name {
		case "kernel.RunSlice", "kernel.Run":
			slices = append(slices, float64(s.Dur)/1e3)
		case "webbench.Client.Step":
			stepNs += float64(s.Dur)
		}
	}
	v["sched.run_slice_p50_us"] = quantile(slices, 0.50)
	v["sched.run_slice_p99_us"] = quantile(slices, 0.99)
	v["sched.run_slice_count"] = ratio(float64(len(slices)), float64(len(profiled)))
	v["webbench.client_step_us_per_op"] = ratio(stepNs/1e3, profiledOps)

	absent := w.absent()
	out := map[string]metric{}
	for _, lm := range layerMetricList() {
		x := v[lm.name]
		if _, ok := absent[lm.name]; ok {
			x = 0
		}
		out[lm.name] = metric{Value: x, Unit: lm.unit}
	}
	return out, absent
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumField(reps []*repResult, f func(*repResult) float64) float64 {
	var s float64
	for _, r := range reps {
		s += f(r)
	}
	return s
}
