package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalisation.
//
// On a shared virtual machine the speed of the vCPUs changes from second
// to second with what the host's other guests do: whole runs of the same
// code differ by up to 1.6x in process CPU time, and set-up with them
// (see README.md). The benchmark therefore measures the host's speed while
// it measures the simulator. A probe runs a fixed burst of a small
// bytecode interpreter that belongs to the benchmark, not to the
// program under test, and times it in thread CPU time. Its interpreter
// loop — decode, switch dispatch, loads and stores into a 2 MiB array,
// data-dependent branches — slows with the simulator's own interpreter
// when the host is contended, where a plain arithmetic loop does not.
//
// Each stretch of measured CPU time is scaled by the host speed the
// probes around it saw: speed = calRefNs / burst CPU time, so a stretch
// measured while a burst took twice calRefNs counts half. The result,
// in reference CPU seconds, is the CPU time the work would have taken on
// a host where one burst takes calRefNs. Probes are not part of the
// measured work: their CPU time is left out of every stretch.

const (
	// calBurst is the number of interpreter steps in one probe.
	calBurst = 100_000
	// calMemWords is the size of the interpreter's memory.
	calMemWords = 1 << 18
	// calRefNs is the reference host's CPU time for one burst.
	calRefNs = 250_000
	// probeEvery is the measured CPU time between sequential probes.
	probeEvery = 5 * time.Millisecond
	// sampleEvery is the background sampler's sleep between probes.
	sampleEvery = 5 * time.Millisecond
)

// threadCPU returns the calling thread's CPU time.
func threadCPU() (time.Duration, bool) {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno == 0
}

// probe runs one calibration burst and returns the host speed it saw
// (1 on the reference host), or 0 if the thread clock failed.
func probe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, ok0 := threadCPU()
	calibrate(calBurst)
	t1, ok1 := threadCPU()
	if !ok0 || !ok1 || t1 <= t0 {
		return 0
	}
	return calRefNs / float64(t1-t0)
}

// The calibration interpreter: a fixed pseudo-random 256-instruction
// program over 16 registers and a 2 MiB memory; a 64 KiB memory
// under-corrected heavy slow-downs (README.md). Both are global arrays,
// outside the heap the benchmark measures.
var (
	calCode [256]uint32
	calMem  [calMemWords]uint64
	calSink uint64
)

func init() {
	x := uint32(12345)
	for i := range calCode {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		calCode[i] = x
	}
}

func calibrate(steps int) {
	var regs [16]uint64
	pc := 0
	for i := 0; i < steps; i++ {
		ins := calCode[pc]
		a, b := (ins>>4)&15, (ins>>8)&15
		switch ins & 15 {
		case 0:
			regs[a] += regs[b] + 1
		case 1:
			regs[a] ^= regs[b] << 3
		case 2:
			regs[a] = calMem[(regs[b]+uint64(ins>>12))&(calMemWords-1)]
		case 3:
			calMem[(regs[a]+uint64(ins>>12))&(calMemWords-1)] = regs[b]
		case 4:
			regs[a] = regs[b] * 2654435761
		case 5:
			if regs[a]&1 == 0 {
				pc = int(ins>>16) & 255
				continue
			}
		case 6:
			regs[a] = regs[a]>>7 | regs[b]<<9
		case 7:
			regs[a] -= regs[b]
		default:
			regs[a] += uint64(ins & 15)
		}
		pc = (pc + 1) & 255
	}
	calSink += regs[0]
}

// speedometer accumulates measured process CPU time, raw and scaled to
// reference speed, between probes made on the measuring goroutine.
// Workloads that drive the simulator step by step call tick between
// steps; one that cannot be interleaved runs under a background sampler.
type speedometer struct {
	mark  time.Duration // process CPU time when the current stretch began
	speed float64       // the last probe's speed
	raw   time.Duration // measured CPU time, probes excluded
	ref   float64       // measured CPU seconds at reference speed
	probe time.Duration // wall time spent in probes
	bg    *speedSampler
}

// startSpeedometer probes once and starts the first stretch.
func startSpeedometer() *speedometer {
	s := &speedometer{}
	s.speed = s.probeSpeed(0)
	s.mark = processCPU()
	return s
}

// probeSpeed probes, keeping prev if the probe failed.
func (s *speedometer) probeSpeed(prev float64) float64 {
	t := time.Now()
	sp := probe()
	s.probe += time.Since(t)
	if sp == 0 {
		return prev
	}
	return sp
}

// tick ends the current stretch with a probe once it holds probeEvery of
// CPU time.
func (s *speedometer) tick() {
	if processCPU()-s.mark >= probeEvery {
		s.flush()
	}
}

// flush ends the current stretch with a probe and starts the next.
func (s *speedometer) flush() {
	// A stretch that ran beside the sampler leaves out the sampler's CPU
	// time and is scaled by the speed the sampler saw.
	var self time.Duration
	var bgSpeed float64
	if s.bg != nil {
		self, bgSpeed = s.bg.stop()
		s.bg = nil
	}
	d := processCPU() - s.mark - self
	sp := s.probeSpeed(s.speed)
	speed := (s.speed + sp) / 2
	if bgSpeed > 0 {
		speed = bgSpeed
	}
	s.raw += d
	s.ref += d.Seconds() * speed
	s.speed = sp
	s.mark = processCPU()
}

// background starts a sampler that probes from its own thread while the
// caller runs work it cannot interleave with probes. The next flush ends
// the sampling.
func (s *speedometer) background() {
	s.flush()
	s.bg = startSpeedSampler()
}

// speedSampler probes every sampleEvery on a thread of its own.
type speedSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	self  time.Duration // the sampler thread's CPU time
	sum   float64       // sum of the probes' speeds
	n     int
}

func startSpeedSampler() *speedSampler {
	g := &speedSampler{stopc: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t0, ok0 := threadCPU()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			if sp := probe(); sp > 0 {
				g.sum += sp
				g.n++
			}
			select {
			case <-g.stopc:
				if t1, ok1 := threadCPU(); ok0 && ok1 {
					g.self = t1 - t0
				}
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// stop ends sampling and returns the sampler's CPU time and the mean
// speed it saw (0 without a successful probe).
func (g *speedSampler) stop() (time.Duration, float64) {
	close(g.stopc)
	g.wg.Wait()
	if g.n == 0 {
		return g.self, 0
	}
	return g.self, g.sum / float64(g.n)
}
