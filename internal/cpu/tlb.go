package cpu

import (
	"encoding/binary"

	"lazypoline/internal/mem"
)

// tlbSize is the number of direct-mapped D-TLB entries. 64 entries cover
// 256 KiB of working set — far more than any guest's hot loop touches —
// while keeping the index mask a single AND.
const tlbSize = 64

// TLBStats counts software D-TLB activity, exposed for tests, cpubench
// and the telemetry layer. Pure observability: none of these affect
// timing or guest-visible behaviour.
type TLBStats struct {
	// Hits are data accesses served lock-free from a validated entry.
	Hits uint64
	// Misses are in-page data accesses that re-walked the page map
	// (empty slot, conflict eviction, or a stale generation).
	Misses uint64
	// Evictions counts valid entries displaced by a conflicting page.
	Evictions uint64
	// Flushes counts whole-TLB resets (address-space rebind).
	Flushes uint64
}

// tlbEntry is one direct-mapped slot: the page number tag plus the
// generation-validated handle aliasing the page's backing bytes.
type tlbEntry struct {
	pn uint64
	h  mem.PageHandle
}

// dtlb is the per-CPU software data-TLB. Like the decode cache it is
// private to its CPU (per-task); all cross-CPU coherence runs through
// the address space's per-page generation counters, so two CPUs sharing
// one address space (CLONE_VM) invalidate each other's stale entries on
// the next generation compare — and, because entries alias the single
// backing array, data written by one task is visible to the other even
// through a still-valid entry.
type dtlb struct {
	as      *mem.AddressSpace
	entries [tlbSize]tlbEntry
	stats   TLBStats
}

func newDTLB(as *mem.AddressSpace) *dtlb {
	return &dtlb{as: as}
}

// TLBStats returns a snapshot of the TLB counters (zero at Cached and
// Interp).
func (c *CPU) TLBStats() TLBStats {
	if c.tlb == nil {
		return TLBStats{}
	}
	return c.tlb.stats
}

// FlushTLB drops every entry. Correctness never requires calling it —
// generation validation catches every mutation — but it is useful to
// re-measure cold-start behaviour.
func (c *CPU) FlushTLB() {
	if c.tlb != nil {
		c.tlb.reset(c.AS)
	}
}

func (d *dtlb) reset(as *mem.AddressSpace) {
	d.as = as
	d.entries = [tlbSize]tlbEntry{}
	d.stats.Flushes++
}

// lookup returns a handle for an n-byte data access at addr that lies
// entirely within one page, or nil when the caller must take the locked
// slow path (no TLB at this level, page-crossing access, unmapped page,
// insufficient protection, pkey denial, or a write to an executable
// page). The slow path re-derives any fault with its proper address and
// accounting, so lookup never needs to construct one.
func (c *CPU) lookup(addr uint64, n int, write bool) *mem.PageHandle {
	d := c.tlb
	if d == nil {
		return nil
	}
	if d.as != c.AS {
		// The CPU was rebound to a different address space (execve); every
		// entry aliases pages of the old one.
		d.reset(c.AS)
	}
	if int(addr&(mem.PageSize-1))+n > mem.PageSize {
		return nil
	}
	pn := addr >> mem.PageShift
	e := &d.entries[pn&(tlbSize-1)]
	hit := e.h.Data != nil && e.pn == pn && e.h.Valid()
	if !hit {
		// Fill: one read-locked walk, then zero-lock hits until the page's
		// generation changes.
		d.stats.Misses++
		if e.h.Data != nil && e.pn != pn {
			d.stats.Evictions++
		}
		h, ok := d.as.PageForAccess(pn)
		if !ok {
			return nil
		}
		e.pn, e.h = pn, h
	}
	if write {
		if !e.h.DirectWrite {
			return nil
		}
	} else if e.h.Prot&mem.ProtRead == 0 {
		return nil
	}
	if !mem.PkeyAllows(c.PKRU, e.h.Pkey, write) {
		return nil
	}
	if hit {
		d.stats.Hits++
	}
	return &e.h
}

// readAt is the TLB-aware counterpart of AS.ReadAt for guest data reads.
func (c *CPU) readAt(addr uint64, p []byte) error {
	if h := c.lookup(addr, len(p), false); h != nil {
		off := addr & (mem.PageSize - 1)
		copy(p, h.Data[off:int(off)+len(p)])
		return nil
	}
	return c.AS.ReadAt(addr, p)
}

// writeAt is the TLB-aware counterpart of AS.WriteAt for guest data
// writes. Writes to executable pages always fall through to the locked
// path so generation and code-mutation bookkeeping stays exact.
func (c *CPU) writeAt(addr uint64, p []byte) error {
	if h := c.lookup(addr, len(p), true); h != nil {
		off := addr & (mem.PageSize - 1)
		copy(h.Data[off:int(off)+len(p)], p)
		return nil
	}
	return c.AS.WriteAt(addr, p)
}

// readU64 reads a little-endian uint64 with read permission.
func (c *CPU) readU64(addr uint64) (uint64, error) {
	if h := c.lookup(addr, 8, false); h != nil {
		off := addr & (mem.PageSize - 1)
		return binary.LittleEndian.Uint64(h.Data[off : off+8]), nil
	}
	return c.AS.ReadU64(addr)
}

// writeU64 writes a little-endian uint64 with write permission.
func (c *CPU) writeU64(addr, v uint64) error {
	if h := c.lookup(addr, 8, true); h != nil {
		off := addr & (mem.PageSize - 1)
		binary.LittleEndian.PutUint64(h.Data[off:off+8], v)
		return nil
	}
	return c.AS.WriteU64(addr, v)
}
