package experiments

import (
	"testing"

	"lazypoline/internal/cpu"
	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/policy"
	"lazypoline/internal/telemetry"
)

// The syscall-policy invariance gate (DESIGN.md §12):
//
//  1. policy OFF is free and invisible: a kernel with Policy nil and one
//     with an all-off &PolicyConfig{} produce byte-identical outcomes,
//     for benign AND attack guests, under every mechanism, with the
//     chaos/telemetry/fast-path toggles exercised;
//  2. both attack guests are killed with the SAME violation record under
//     all nine mechanisms — the policy verdict is a property of the
//     application, not of the interposition technology;
//  3. a benign guest runs to completion under full enforcement with an
//     SFIP profile learned under a DIFFERENT mechanism, paying a
//     nonzero but exit-invisible cost.

// spawnAttackJIT, spawnAttackSeq, spawnMicro, spawnCat build one guest
// each; cat needs its corpus files in the kernel FS.
func spawnAttackJIT(k *kernel.Kernel) (*kernel.Task, error) {
	prog, err := guest.AttackJIT()
	if err != nil {
		return nil, err
	}
	return prog.Spawn(k)
}

func spawnAttackSeq(k *kernel.Kernel) (*kernel.Task, error) {
	prog, err := guest.AttackSeq()
	if err != nil {
		return nil, err
	}
	return prog.Spawn(k)
}

func spawnMicro(k *kernel.Kernel) (*kernel.Task, error) {
	prog, err := guest.Microbench(kernel.NonexistentSyscall, 300)
	if err != nil {
		return nil, err
	}
	return prog.Spawn(k)
}

func spawnCat(k *kernel.Kernel) (*kernel.Task, error) {
	for _, dir := range []string{"/tmp", "/etc", "/var/log"} {
		if err := k.FS.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	for path, contents := range guest.CoreutilFSFiles {
		if err := k.FS.WriteFile(path, []byte(contents), 0o644); err != nil {
			return nil, err
		}
	}
	prog, err := guest.Coreutil("cat", guest.LibcUbuntu2004(false))
	if err != nil {
		return nil, err
	}
	return prog.Spawn(k)
}

// runPolicyGuest runs one guest under one mechanism and configuration
// and returns the full observable outcome.
func runPolicyGuest(t *testing.T, mech string, cfg kernel.Config, spawn func(*kernel.Kernel) (*kernel.Task, error)) (runOutcome, *kernel.Task) {
	t.Helper()
	k := kernel.New(cfg)
	var ground groundTruth
	k.OnDispatch = ground.hook
	task, err := spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := attachForTrace(mech, k, task, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(-1); err != nil {
		t.Fatal(err)
	}
	return finishOutcome(task, &ground, rec), task
}

// TestPolicyInvarianceOff: Policy nil vs &PolicyConfig{} (all layers
// off) must be byte-identical for every guest × mechanism × toggle
// combination, and the attack guests must reach their benign escape
// exits — the suite is vacuous if the attacks never actually fire.
func TestPolicyInvarianceOff(t *testing.T) {
	guests := []struct {
		name  string
		spawn func(*kernel.Kernel) (*kernel.Task, error)
		exit  int
	}{
		{"attack-jit", spawnAttackJIT, guest.AttackJITExit},
		{"attack-seq", spawnAttackSeq, guest.AttackSeqExit},
		{"microbench", spawnMicro, 0},
	}
	toggles := []struct {
		name string
		mod  func(*kernel.Config)
	}{
		{"default", func(*kernel.Config) {}},
		{"chaos", func(c *kernel.Config) { c.ChaosSeed, c.ChaosRate = 7, 0.3 }},
		{"telemetry", func(c *kernel.Config) { c.Telemetry = telemetry.NewSink() }},
		{"nofastpath", func(c *kernel.Config) { c.FastPath = cpu.Cached }},
	}
	for _, g := range guests {
		for _, tog := range toggles {
			t.Run(g.name+"/"+tog.name, func(t *testing.T) {
				for _, mech := range invarianceMechs {
					var nilCfg, offCfg kernel.Config
					tog.mod(&nilCfg)
					tog.mod(&offCfg)
					offCfg.Policy = &kernel.PolicyConfig{}
					got, _ := runPolicyGuest(t, mech, nilCfg, g.spawn)
					off, _ := runPolicyGuest(t, mech, offCfg, g.spawn)
					if got != off {
						t.Errorf("%s: Policy nil and all-off differ:\n--- nil ---\n%s\n--- off ---\n%s\nfirst diff: %s",
							mech, got, off, firstDiff(got.String(), off.String()))
					}
					if got.Exit != g.exit {
						t.Errorf("%s: policy-off exit = %d, want %d", mech, got.Exit, g.exit)
					}
				}
			})
		}
	}
}

// violationRecord is the mechanism-invariant slice of a policy kill:
// what the guest managed to output, how it died, and why. (Cycle counts
// and the mechanisms' own service syscalls legitimately differ between
// interposers, so the full runOutcome is not comparable across them.)
type violationRecord struct {
	Exit      int
	Console   string
	Violation string
}

// TestPolicyInvarianceAttacks: with the matching layer enabled, each
// attack guest dies with 128+SIGSYS and an identical violation record
// under all nine mechanisms, and telemetry attributes exactly one
// violation to the right layer.
func TestPolicyInvarianceAttacks(t *testing.T) {
	cases := []struct {
		name    string
		spawn   func(*kernel.Kernel) (*kernel.Task, error)
		pol     func() *kernel.PolicyConfig
		counter string
	}{
		{
			"attack-jit", spawnAttackJIT,
			func() *kernel.PolicyConfig { return &kernel.PolicyConfig{Regions: true} },
			"policy.region.violations",
		},
		{
			"attack-seq", spawnAttackSeq,
			func() *kernel.PolicyConfig { return &kernel.PolicyConfig{SFIP: guest.AttackSeqProfile()} },
			"policy.sfip.violations",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			records := make(map[string]violationRecord, len(invarianceMechs))
			for _, mech := range invarianceMechs {
				sink := telemetry.NewSink()
				out, task := runPolicyGuest(t, mech, kernel.Config{Policy: c.pol(), Telemetry: sink}, c.spawn)
				if out.Exit != 128+kernel.SIGSYS {
					t.Errorf("%s: exit = %d, want %d", mech, out.Exit, 128+kernel.SIGSYS)
				}
				if task.PolicyViolation == "" {
					t.Errorf("%s: no violation recorded", mech)
				}
				if n := sink.Metrics.Snapshot().Counters[c.counter]; n != 1 {
					t.Errorf("%s: %s = %d, want 1", mech, c.counter, n)
				}
				records[mech] = violationRecord{out.Exit, out.Console, task.PolicyViolation}
			}
			ref := records[MechBaseline]
			for _, mech := range invarianceMechs {
				if records[mech] != ref {
					t.Errorf("violation record differs between %s and baseline:\n%+v\nvs\n%+v",
						mech, records[mech], ref)
				}
			}
		})
	}
}

// TestPolicyInvarianceBenign: full enforcement (regions + an SFIP
// profile learned once, under the plain baseline) lets a benign guest
// run to its normal exit under every mechanism, while charging a
// strictly positive cycle cost relative to the same mechanism's
// policy-off run.
func TestPolicyInvarianceBenign(t *testing.T) {
	guests := []struct {
		name  string
		spawn func(*kernel.Kernel) (*kernel.Task, error)
		track []int64 // extra alphabet entries beyond SFIPAlphabet
	}{
		{"microbench", spawnMicro, []int64{kernel.NonexistentSyscall}},
		{"cat", spawnCat, nil},
	}
	for _, g := range guests {
		t.Run(g.name, func(t *testing.T) {
			prof := policy.NewProfile(SFIPAlphabet()...)
			for _, nr := range g.track {
				prof.Track(nr)
			}
			learn, _ := runPolicyGuest(t, MechBaseline,
				kernel.Config{Policy: &kernel.PolicyConfig{SFIPLearn: prof}}, g.spawn)
			if learn.Exit != 0 {
				t.Fatalf("learning run exited %d", learn.Exit)
			}
			for _, mech := range invarianceMechs {
				off, offTask := runPolicyGuest(t, mech, kernel.Config{}, g.spawn)
				on, onTask := runPolicyGuest(t, mech,
					kernel.Config{Policy: &kernel.PolicyConfig{Regions: true, SFIP: prof}}, g.spawn)
				if on.Exit != 0 {
					t.Errorf("%s: enforced run exited %d (violation %q)", mech, on.Exit, onTask.PolicyViolation)
					continue
				}
				if on.Exit != off.Exit || on.Console != off.Console || on.Ground != off.Ground || on.Trace != off.Trace {
					t.Errorf("%s: enforcement changed observable behaviour:\n--- off ---\n%s\n--- on ---\n%s\nfirst diff: %s",
						mech, off, on, firstDiff(off.String(), on.String()))
				}
				if onTask.CPU.Cycles <= offTask.CPU.Cycles {
					t.Errorf("%s: enforced run cost %d cycles <= policy-off %d; checks were not charged",
						mech, onTask.CPU.Cycles, offTask.CPU.Cycles)
				}
			}
		})
	}
}
