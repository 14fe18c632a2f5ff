package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"lazypoline/internal/policy"
	"lazypoline/internal/telemetry"
)

// blockedProbe appends a manually-constructed blocked task whose poll
// records each visit, for white-box scheduler-round tests.
func blockedProbe(k *Kernel, id int, visits *[]int, ready func() bool) *Task {
	t := &Task{ID: id, Tgid: id, state: TaskBlocked, k: k}
	t.blocked.poll = func() bool {
		*visits = append(*visits, id)
		if ready != nil {
			return ready()
		}
		return false
	}
	k.order = append(k.order, t)
	return t
}

// TestRoundVisitsEachTaskOnceRotated: one scheduling round visits every
// task slot exactly once, and the start slot rotates by one each round —
// the fairness contract Run/RunSlice used to implement as two drifting
// copies and now share through scheduleRound.
func TestRoundVisitsEachTaskOnceRotated(t *testing.T) {
	k := New(Config{})
	var visits []int
	for id := 0; id < 4; id++ {
		blockedProbe(k, id, &visits, nil)
	}
	for round := 1; round <= 8; round++ {
		visits = visits[:0]
		r := k.scheduleRound()
		if !r.alive || r.progress {
			t.Fatalf("round %d: alive=%v progress=%v, want alive, no progress", round, r.alive, r.progress)
		}
		if len(visits) != 4 {
			t.Fatalf("round %d visited %d slots, want 4: %v", round, len(visits), visits)
		}
		seen := map[int]bool{}
		for _, id := range visits {
			if seen[id] {
				t.Fatalf("round %d visited task %d twice: %v", round, id, visits)
			}
			seen[id] = true
		}
		if want := round % 4; visits[0] != want {
			t.Errorf("round %d started at task %d, want %d (rotation)", round, visits[0], want)
		}
	}
}

// TestMidRoundSpawnPickedUpNextRound: a task added to k.order while a
// round is in flight is not visited by that round's snapshot, but is
// visited by the next round.
func TestMidRoundSpawnPickedUpNextRound(t *testing.T) {
	k := New(Config{})
	var visits []int
	spawned := false
	t0 := &Task{ID: 0, state: TaskBlocked, k: k}
	t0.blocked.poll = func() bool {
		visits = append(visits, 0)
		if !spawned {
			spawned = true
			blockedProbe(k, 1, &visits, nil)
		}
		return false
	}
	k.order = append(k.order, t0)

	k.scheduleRound()
	if len(visits) != 1 || visits[0] != 0 {
		t.Fatalf("first round visits = %v, want [0] (mid-round spawn must wait)", visits)
	}
	visits = visits[:0]
	k.scheduleRound()
	if len(visits) != 2 {
		t.Fatalf("second round visits = %v, want both tasks", visits)
	}
}

// parLoopGuest builds a task-private guest: write one byte n times, then
// exit with the given code. Its syscalls are all on the pure side of
// syscallGate, so shard-run quanta never serialize.
func parLoopGuest(letter string, n, exit int) string {
	return fmt.Sprintf(`
	_start:
		mov64 rbx, 0
	loop:
		mov64 rax, SYS_write
		mov64 rdi, 1
		lea rsi, msg
		mov64 rdx, 1
		syscall
		addi rbx, 1
		cmpi rbx, %d
		jnz loop
		mov64 rax, SYS_exit
		mov64 rdi, %d
		syscall
	msg:
		.ascii "%s"
	`, n, exit, letter)
}

// TestPlanShardsPartitionsIndependentTasks: independent spawned tasks
// (no shared AS/files/sighand/tgid) form one share-group each and get
// planned onto shards; a single-core kernel, a kernel with a tracer
// attached, or a lone runnable all decline.
func TestPlanShardsPartitionsIndependentTasks(t *testing.T) {
	k := New(Config{Cores: 4})
	for i := 0; i < 3; i++ {
		buildTask(t, k, parLoopGuest("x", 4, 0))
	}
	shards := k.planShards(k.order)
	if shards == nil {
		t.Fatal("planShards declined 3 independent runnable tasks on 4 cores")
	}
	total := 0
	for _, q := range shards {
		total += len(q)
	}
	if total != 3 || len(shards) > 3 {
		t.Fatalf("planned %d members on %d shards, want 3 members on <=3 shards", total, len(shards))
	}

	k1 := New(Config{Cores: 1})
	buildTask(t, k1, parLoopGuest("x", 4, 0))
	buildTask(t, k1, parLoopGuest("y", 4, 0))
	if k1.planShards(k1.order) != nil {
		t.Error("planShards engaged with Cores=1")
	}

	kt := New(Config{Cores: 4})
	buildTask(t, kt, parLoopGuest("x", 4, 0))
	buildTask(t, kt, parLoopGuest("y", 4, 0))
	kt.tracerCount = 1
	if kt.planShards(kt.order) != nil {
		t.Error("planShards engaged with a tracer attached")
	}
}

// runParCell runs the given guest sources to completion on one kernel
// and returns it plus the spawned tasks.
func runParCell(t *testing.T, cores int, srcs ...string) (*Kernel, []*Task) {
	t.Helper()
	k := New(Config{Cores: cores})
	tasks := make([]*Task, len(srcs))
	for i, src := range srcs {
		tasks[i] = buildTask(t, k, src)
	}
	mustRun(t, k)
	return k, tasks
}

// TestParallelRoundsMatchSequential: the same multi-task workload run
// with -cores 2, 4 and 8 produces console bytes, exit codes and a final
// virtual clock identical to -cores 1. This is the tentpole invariant
// (DESIGN.md §15) at kernel granularity. Each disqualified row must run
// every round with zero shards at Cores 4 and still match its own
// Cores 1 run.
func TestParallelRoundsMatchSequential(t *testing.T) {
	srcs := []string{
		parLoopGuest("a", 40, 1),
		parLoopGuest("b", 25, 2),
		parLoopGuest("c", 60, 3),
		parLoopGuest("d", 10, 4),
	}
	cases := []struct {
		name    string
		cores   []int
		sharded bool
		policy  bool
		setup   func(k *Kernel, tasks []*Task)
	}{
		{name: "independent", cores: []int{2, 4, 8}, sharded: true},
		{name: "tracer", cores: []int{4}, setup: func(k *Kernel, tasks []*Task) {
			k.AttachTracer(tasks[0], &Tracer{OnEnter: func(s *PtraceStop) { s.GetRegs() }})
		}},
		{name: "on-dispatch", cores: []int{4}, setup: func(k *Kernel, _ []*Task) {
			k.OnDispatch = func(*Task, int64, [6]uint64) {}
		}},
		{name: "policy", cores: []int{4}, policy: true},
		{name: "one-share-group", cores: []int{4}, setup: func(_ *Kernel, tasks []*Task) {
			// One signal-handler table, as CLONE_SIGHAND threads share.
			for _, tk := range tasks[1:] {
				tk.Sig = tasks[0].Sig
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(cores int) (*Kernel, []*Task) {
				cfg := Config{Cores: cores}
				if tc.policy {
					cfg.Policy = &PolicyConfig{SFIPLearn: policy.NewProfile(SysWrite, SysExit)}
				}
				k := New(cfg)
				tasks := make([]*Task, len(srcs))
				for i, src := range srcs {
					tasks[i] = buildTask(t, k, src)
				}
				if tc.setup != nil {
					tc.setup(k, tasks)
				}
				mustRun(t, k)
				return k, tasks
			}
			kRef, ref := run(1)
			if kRef.ParallelRounds() != 0 {
				t.Fatalf("cores=1 ran %d parallel rounds", kRef.ParallelRounds())
			}
			for _, cores := range tc.cores {
				k, tasks := run(cores)
				if got := k.ParallelRounds(); (got != 0) != tc.sharded {
					t.Errorf("cores=%d ran %d parallel rounds, want sharded=%v", cores, got, tc.sharded)
				}
				if k.Now() != kRef.Now() {
					t.Errorf("cores=%d: clock %d, want %d", cores, k.Now(), kRef.Now())
				}
				for i := range tasks {
					if !bytes.Equal(tasks[i].ConsoleOut, ref[i].ConsoleOut) {
						t.Errorf("cores=%d task %d console %q, want %q", cores, i, tasks[i].ConsoleOut, ref[i].ConsoleOut)
					}
					if tasks[i].ExitCode != ref[i].ExitCode {
						t.Errorf("cores=%d task %d exit %d, want %d", cores, i, tasks[i].ExitCode, ref[i].ExitCode)
					}
				}
			}
		})
	}
}

// TestParallelForkWaitMatchesSequential: fork/wait4/exit all serialize
// on the frontier; a forking guest racing an independent compute guest
// still resolves identically at every core count.
func TestParallelForkWaitMatchesSequential(t *testing.T) {
	forker := `
	_start:
		mov64 rax, SYS_fork
		syscall
		cmpi rax, 0
		jz child
		mov64 rdi, -1
		mov64 rsi, 0x7fef0100
		mov64 rdx, 0
		mov64 r10, 0
		mov64 rax, SYS_wait4
		syscall
		mov64 rsi, 0x7fef0100
		load32 rdi, [rsi+0]
		mov64 rax, SYS_exit
		syscall
	child:
		mov64 rax, SYS_exit
		mov64 rdi, 33
		syscall
	`
	srcs := []string{forker, parLoopGuest("z", 50, 9)}
	kRef, ref := runParCell(t, 1, srcs...)
	for _, cores := range []int{2, 4} {
		k, tasks := runParCell(t, cores, srcs...)
		if k.Now() != kRef.Now() {
			t.Errorf("cores=%d: clock %d, want %d", cores, k.Now(), kRef.Now())
		}
		if tasks[0].ExitCode != 33 || tasks[0].ExitCode != ref[0].ExitCode {
			t.Errorf("cores=%d forker exit %d, want 33", cores, tasks[0].ExitCode)
		}
		if tasks[1].ExitCode != ref[1].ExitCode {
			t.Errorf("cores=%d looper exit %d, want %d", cores, tasks[1].ExitCode, ref[1].ExitCode)
		}
	}
}

// TestParallelCrossTaskKillMatchesSequential: kill(2) to another task is
// deferred to the round barrier and delivered in canonical order — with
// or without shards — so a killer/victim pair resolves identically at
// every core count.
func TestParallelCrossTaskKillMatchesSequential(t *testing.T) {
	// Victim spins forever; killer burns a few quanta, then kills it.
	// Task IDs are deterministic (first spawn = 1001, second = 1002).
	killer := `
	_start:
		mov64 rbx, 0
	spin:
		addi rbx, 1
		cmpi rbx, 3000
		jnz spin
		mov64 rax, SYS_kill
		mov64 rdi, 1002
		mov64 rsi, 15        ; SIGTERM
		syscall
		mov64 rax, SYS_exit
		mov64 rdi, 5
		syscall
	`
	victim := `
	_start:
	spin:
		jmp spin
	`
	kRef, ref := runParCell(t, 1, killer, victim)
	if ref[1].ExitCode != 128+SIGTERM {
		t.Fatalf("victim exit %d, want SIGTERM death", ref[1].ExitCode)
	}
	for _, cores := range []int{2, 4} {
		k, tasks := runParCell(t, cores, killer, victim)
		if k.Now() != kRef.Now() {
			t.Errorf("cores=%d: clock %d, want %d", cores, k.Now(), kRef.Now())
		}
		if tasks[0].ExitCode != ref[0].ExitCode || tasks[1].ExitCode != ref[1].ExitCode {
			t.Errorf("cores=%d exits (%d,%d), want (%d,%d)", cores,
				tasks[0].ExitCode, tasks[1].ExitCode, ref[0].ExitCode, ref[1].ExitCode)
		}
	}
}

// TestParallelTelemetryByteIdentical: a telemetry sink does not disable
// parallel rounds, and the deferred-emission flush replays spans in
// program order — the timeline is byte-identical at every core count.
func TestParallelTelemetryByteIdentical(t *testing.T) {
	srcs := []string{
		parLoopGuest("a", 30, 1),
		parLoopGuest("b", 45, 2),
		parLoopGuest("c", 15, 3),
	}
	run := func(cores int) []byte {
		sink := &telemetry.Sink{Timeline: telemetry.NewTimeline()}
		k := New(Config{Cores: cores, Telemetry: sink})
		for _, src := range srcs {
			buildTask(t, k, src)
		}
		mustRun(t, k)
		var buf bytes.Buffer
		if err := telemetry.EncodeJSONL(&buf, sink.Timeline.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := run(1)
	for _, cores := range []int{2, 4} {
		if got := run(cores); !bytes.Equal(got, ref) {
			t.Errorf("cores=%d timeline differs from cores=1 (%d vs %d bytes)", cores, len(got), len(ref))
		}
	}
}
