package guest

import (
	"testing"

	"lazypoline/internal/cpu"
	"lazypoline/internal/kernel"
)

// TestMemBenchSelfCheck: the guest's accumulated load sum must match the
// closed-form expectation at the Full, Cached (data fast path off) and
// Interp levels, under a mechanism-free kernel — the bench workload is only useful if
// a wrong byte anywhere fails it loudly.
func TestMemBenchSelfCheck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		level cpu.FastPath
	}{
		{"fastpath-on", cpu.Full},
		{"fastpath-off", cpu.Cached},
		{"interpreter-only", cpu.Interp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := kernel.New(kernel.Config{FastPath: tc.level})
			prog, err := MemBench(5)
			if err != nil {
				t.Fatal(err)
			}
			task, err := prog.Spawn(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Run(-1); err != nil {
				t.Fatal(err)
			}
			if task.ExitCode != 0 {
				t.Fatalf("membench exited %d (self-check failed)", task.ExitCode)
			}
			if tc.level == cpu.Full && task.CPU.TLBStats().Hits == 0 {
				t.Error("membench retired with zero TLB hits; it does not exercise the data path")
			}
		})
	}
}
