package cpu

import (
	"fmt"
	"strings"
)

// FastPath selects how much of the execution fast path a CPU runs with.
// The layers stack — superblocks run the decode cache's blocks, chaining
// links superblocks, traces follow chains — so the settings form one
// ladder instead of independent switches. Every level is semantically
// invisible: events, faults, traces and cycle counts are identical at
// all five. The lower levels exist for differential tests and for
// measuring what each layer buys.
type FastPath uint8

// Fast-path levels, fastest first.
const (
	// Full is the whole fast path: decoded-instruction cache, software
	// D-TLB, superblock execution, block chaining, and hot traces with
	// the fused idiom handlers. It is the zero value.
	Full FastPath = iota
	// Chained drops hot traces and the fused idiom handlers.
	Chained
	// Superblocks also drops block chaining: every block boundary goes
	// back through the decode cache's map lookup.
	Superblocks
	// Cached keeps only the decoded-instruction cache. The D-TLB and
	// superblock execution are off, so every data access takes the
	// address space's locked walk and every instruction is dispatched
	// one Step at a time.
	Cached
	// Interp fetches and decodes every instruction from guest memory.
	Interp
)

var fastPathNames = [...]string{"full", "chained", "superblocks", "cached", "interp"}

func (f FastPath) String() string {
	if int(f) < len(fastPathNames) {
		return fastPathNames[f]
	}
	return fmt.Sprintf("FastPath(%d)", f)
}

// Set parses a level name ("full", "chained", "superblocks", "cached",
// "interp"), so a *FastPath can back a command-line flag.
func (f *FastPath) Set(name string) error {
	for i, n := range fastPathNames {
		if name == n {
			*f = FastPath(i)
			return nil
		}
	}
	return fmt.Errorf("unknown fast-path level %q (want %s)", name, strings.Join(fastPathNames[:], ", "))
}

// MarshalText records the level by name in JSON configs.
func (f FastPath) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// SetFastPath selects the CPU's fast-path level. Call it before the
// first Step: a layer the new level drops takes its cached state and
// counters with it.
func (c *CPU) SetFastPath(level FastPath) {
	c.fast = level
	switch {
	case level > Cached:
		c.cache = nil
	case c.cache == nil:
		c.cache = newDecodeCache(c.AS)
	}
	switch {
	case level > Superblocks:
		c.tlb = nil
	case c.tlb == nil:
		c.tlb = newDTLB(c.AS)
	}
}
