package cpu

// Superblock execution: the scheduler hands the CPU a whole budget of
// instructions (the rest of the quantum) and StepBlock retires the
// straight-line body of each decoded block in a tight loop, re-entering
// the per-instruction Step dispatch only at block boundaries that are
// not chained. Events — syscalls, faults, traps, hcalls, halt — end the
// batch immediately, so the kernel observes exactly the same stopping
// points as per-Step scheduling: signal checks, quantum expiry and chaos
// injection all happen between the same instructions either way.
//
// Self-modifying code stays exact because the execution core re-checks
// the address space's code-mutation counter before every instruction —
// the same lock-free load the decode cache's sequential hit path
// performs — and revalidates page generations under the lock the moment
// it changes. Chained transitions and traces (chain.go, trace.go) add
// no trust: they are routing shortcuts whose targets get the identical
// validation.

// StepBlock executes up to max instructions, stopping early at the first
// non-EvNone event. It returns the event (EvNone means the budget was
// exhausted without one), the number of instructions retired, and the
// cycle counter value from just before the final instruction.
//
// The third value exists for the kernel clock: the per-Step scheduler
// loop refreshed its max-cycles clock after every instruction, so when
// an event instruction entered the kernel the clock held the cycle count
// through the *previous* instruction. A batching scheduler replays that
// exactly by folding in the pre-event value (when the batch retired more
// than one instruction) before handling the event. Nothing else observes
// the clock mid-batch, so batching stays semantically invisible — and
// the contract holds across chained transitions and trace execution,
// which thread the same pre pointer through every instruction they
// retire.
func (c *CPU) StepBlock(max uint64) (Event, uint64, uint64) {
	if max == 0 {
		return EvNone, 0, c.Cycles
	}
	if c.fast > Superblocks {
		pre := c.Cycles
		return c.Step(), 1, pre
	}
	var steps uint64
	pre := c.Cycles
	for {
		// Chained core first: it picks up from the decode cache's current
		// position and runs block→block until an event, the budget, or a
		// transition it cannot resolve (miss, invalidation, un-chained
		// target).
		if ev, done := c.runChained(max, &steps, &pre); done {
			return ev, steps, pre
		}
		// The chained core can exhaust the budget on a block's last
		// instruction and still report done=false (the next transition is
		// unresolved); the budget is a hard ceiling, so stop before the
		// dispatched Step rather than overshoot by one.
		if steps >= max {
			return EvNone, steps, pre
		}
		// One dispatched Step resolves the transition — full cachedInst
		// lookup (planting a chain link if the previous block completed) or
		// the uncached path.
		pre = c.Cycles
		ev := c.Step()
		steps++
		if ev != EvNone || steps >= max {
			return ev, steps, pre
		}
	}
}
