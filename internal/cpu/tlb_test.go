package cpu

import (
	"errors"
	"fmt"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// storeLoadProgram stores rbx at [stackBase], loads it back into rcx, and
// halts. Stepped instruction by instruction it exercises the TLB write
// and read paths against the same page.
func storeLoadProgram(val int64) []byte {
	var e isa.Enc
	e.MovImm64(isa.RAX, stackBase)
	e.MovImm64(isa.RBX, val)
	e.Store(isa.RAX, 0, isa.RBX)
	e.Load(isa.RCX, isa.RAX, 0)
	e.Hlt()
	return e.Buf
}

func TestTLBServesHitsAndIsOffWhenDisabled(t *testing.T) {
	for _, tlb := range []bool{true, false} {
		t.Run(fmt.Sprintf("tlb=%v", tlb), func(t *testing.T) {
			var e isa.Enc
			e.MovImm64(isa.RAX, stackBase)
			e.MovImm64(isa.RCX, 50)
			loop := e.Len()
			e.Store(isa.RAX, 0, isa.RCX)
			e.Load(isa.RDX, isa.RAX, 0)
			e.Add(isa.RBX, isa.RDX)
			e.AddImm(isa.RCX, -1)
			e.Jnz(int64(loop) - int64(e.Len()) - 5)
			e.Hlt()
			c := load(t, e.Buf)
			if !tlb {
				c.SetFastPath(Cached)
			}
			if ev := run(t, c, 10_000); ev != EvHlt {
				t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
			}
			if want := uint64(50 * 51 / 2); c.Regs[isa.RBX] != want {
				t.Errorf("rbx = %d, want %d", c.Regs[isa.RBX], want)
			}
			s := c.TLBStats()
			if tlb && s.Hits == 0 {
				t.Errorf("TLB enabled but recorded no hits: %+v", s)
			}
			if !tlb && s != (TLBStats{}) {
				t.Errorf("TLB disabled but recorded activity: %+v", s)
			}
		})
	}
}

func TestTLBInvalidateOnProtect(t *testing.T) {
	// mprotect to read-only between two stores: the second store must
	// fault even though a validated write-capable entry was cached.
	var e isa.Enc
	e.MovImm64(isa.RAX, stackBase)
	e.MovImm64(isa.RBX, 7)
	e.Store(isa.RAX, 0, isa.RBX)
	e.Store(isa.RAX, 8, isa.RBX)
	e.Hlt()
	c := load(t, e.Buf)
	for i := 0; i < 3; i++ { // through the first store
		if ev := c.Step(); ev != EvNone {
			t.Fatalf("step %d: %v (fault: %v)", i, ev, c.FaultErr)
		}
	}
	if err := c.AS.Protect(stackBase, mem.PageSize, mem.ProtRead); err != nil {
		t.Fatal(err)
	}
	if ev := c.Step(); ev != EvFault {
		t.Fatalf("store after mprotect: event = %v, want fault", ev)
	}
	var f *mem.Fault
	if !errors.As(c.FaultErr, &f) {
		t.Fatalf("FaultErr = %v, want a mem.Fault", c.FaultErr)
	}
	if f.Addr != stackBase+8 || f.Kind != mem.AccessWrite {
		t.Errorf("fault at %#x (%v), want write fault at %#x", f.Addr, f.Kind, uint64(stackBase+8))
	}
}

func TestTLBInvalidateOnUnmapAndRemap(t *testing.T) {
	// Unmap invalidates a cached entry (tombstone generation 0); a fresh
	// mapping at the same address gets a never-before-issued generation,
	// so the stale entry cannot revalidate against the new page either.
	c := load(t, storeLoadProgram(7))
	if ev := run(t, c, 100); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if err := c.AS.Unmap(stackBase, stackSize); err != nil {
		t.Fatal(err)
	}
	c.RIP = codeBase
	for i := 0; i < 2; i++ {
		if ev := c.Step(); ev != EvNone {
			t.Fatalf("step %d: %v", i, ev)
		}
	}
	if ev := c.Step(); ev != EvFault { // store to the unmapped page
		t.Fatalf("store after unmap: event = %v, want fault", ev)
	}
	var f *mem.Fault
	if !errors.As(c.FaultErr, &f) || f.Addr != stackBase {
		t.Fatalf("FaultErr = %v, want unmapped-page fault at %#x", c.FaultErr, uint64(stackBase))
	}
	// Remap and fill with a sentinel: the guest must observe the new page.
	if err := c.AS.MapFixed(stackBase, stackSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	c.RIP = codeBase
	if ev := run(t, c, 100); ev != EvHlt {
		t.Fatalf("rerun: event = %v (fault: %v)", ev, c.FaultErr)
	}
	if c.Regs[isa.RCX] != 7 {
		t.Errorf("rcx = %d, want 7 (store to remapped page lost)", c.Regs[isa.RCX])
	}
}

func TestTLBSeesPtracePoke(t *testing.T) {
	// A host WriteForce (ptrace POKEDATA) between a load that cached the
	// page and a second load: the second load must return the poked value,
	// and the poke must have invalidated the entry (a fresh generation),
	// not merely been visible through the shared backing array.
	var e isa.Enc
	e.MovImm64(isa.RAX, stackBase)
	e.Load(isa.RCX, isa.RAX, 0)
	e.Load(isa.RDX, isa.RAX, 0)
	e.Hlt()
	c := load(t, e.Buf)
	if err := c.AS.WriteAt(stackBase, []byte{1, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // mov + first load (fills the TLB)
		if ev := c.Step(); ev != EvNone {
			t.Fatalf("step %d: %v", i, ev)
		}
	}
	missesBefore := c.TLBStats().Misses
	if err := c.AS.WriteForce(stackBase, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if c.Regs[isa.RDX] != 2 {
		t.Errorf("rdx = %d, want 2 (poked value missed)", c.Regs[isa.RDX])
	}
	if c.TLBStats().Misses == missesBefore {
		t.Errorf("poke did not invalidate the cached entry (no revalidation miss)")
	}
}

func TestTLBForkIsolation(t *testing.T) {
	// fork (Clone) copies pages eagerly: after the fork, parent and child
	// writes must stay invisible to each other even though both CPUs hold
	// TLB entries for the same page number.
	parent := load(t, storeLoadProgram(1))
	if ev := run(t, parent, 100); ev != EvHlt {
		t.Fatalf("parent: %v", ev)
	}

	childAS := parent.AS.Clone()
	child := New(childAS)
	child.RIP = codeBase
	if err := childAS.WriteForce(codeBase+12, []byte{2}); err != nil { // imm of the second mov64
		t.Fatal(err)
	}
	if ev := run(t, child, 100); ev != EvHlt {
		t.Fatalf("child: %v", ev)
	}
	if child.Regs[isa.RCX] != 2 {
		t.Errorf("child rcx = %d, want 2", child.Regs[isa.RCX])
	}
	// Parent's copy of the data page is untouched by the child's store.
	parent.RIP = codeBase
	var e isa.Enc
	e.MovImm64(isa.RAX, stackBase)
	e.Load(isa.RCX, isa.RAX, 0)
	e.Hlt()
	if err := parent.AS.WriteForce(codeBase, append(e.Buf, make([]byte, 64)...)); err != nil {
		t.Fatal(err)
	}
	if ev := run(t, parent, 100); ev != EvHlt {
		t.Fatalf("parent reread: %v", ev)
	}
	if parent.Regs[isa.RCX] != 1 {
		t.Errorf("parent rcx = %d, want 1 (child store leaked across fork)", parent.Regs[isa.RCX])
	}
}

func TestTLBHonoursPkeyAndWRPKRU(t *testing.T) {
	// A page tagged with a protection key is readable while PKRU permits,
	// then must fault the moment WRPKRU installs the access-disable bit —
	// even though the TLB still holds a validated entry for it. pkey
	// checks happen per-hit against the CPU's PKRU register, exactly like
	// the hardware's permission intersection.
	var e isa.Enc
	e.MovImm64(isa.RAX, stackBase)
	e.Load(isa.RCX, isa.RAX, 0) // allowed: fills the TLB
	e.MovImm64(isa.RBX, int64(mem.PkeyAccessDisableBit(1)))
	e.Wrpkru(isa.RBX)
	e.Load(isa.RDX, isa.RAX, 0) // denied by PKRU
	e.Hlt()
	c := load(t, e.Buf)
	if err := c.AS.WriteAt(stackBase, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.SetPkey(stackBase, mem.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	ev := run(t, c, 100)
	if ev != EvFault {
		t.Fatalf("event = %v, want pkey fault", ev)
	}
	var f *mem.Fault
	if !errors.As(c.FaultErr, &f) || f.Addr != stackBase {
		t.Fatalf("FaultErr = %v, want fault at %#x", c.FaultErr, uint64(stackBase))
	}
	if c.Regs[isa.RCX] != 5 {
		t.Errorf("first load saw %d, want 5 (test is vacuous)", c.Regs[isa.RCX])
	}

	// Write-disable: loads keep hitting, stores fault.
	var w isa.Enc
	w.MovImm64(isa.RAX, stackBase)
	w.Load(isa.RCX, isa.RAX, 0)
	w.MovImm64(isa.RBX, int64(mem.PkeyWriteDisableBit(1)))
	w.Wrpkru(isa.RBX)
	w.Load(isa.RDX, isa.RAX, 0) // reads still allowed
	w.Store(isa.RAX, 0, isa.RBX)
	w.Hlt()
	c = load(t, w.Buf)
	if err := c.AS.SetPkey(stackBase, mem.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if ev := run(t, c, 100); ev != EvFault {
		t.Fatalf("event = %v, want write-disable fault", ev)
	}
	if !errors.As(c.FaultErr, &f) || f.Kind != mem.AccessWrite {
		t.Fatalf("FaultErr = %v, want a write fault", c.FaultErr)
	}
}

func TestTLBRebindsOnAddressSpaceSwap(t *testing.T) {
	// The execve case: the CPU is rebound to a fresh address space whose
	// pages happen to live at the same addresses. Data reads must come
	// from the new space, never from a stale handle into the old one.
	c := load(t, storeLoadProgram(1))
	if ev := run(t, c, 100); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}

	var e isa.Enc
	e.MovImm64(isa.RAX, stackBase)
	e.Load(isa.RCX, isa.RAX, 0)
	e.Hlt()
	as2 := mem.NewAddressSpace()
	if err := as2.MapFixed(codeBase, mem.PageSize, mem.ProtRX); err != nil {
		t.Fatal(err)
	}
	if err := as2.WriteForce(codeBase, e.Buf); err != nil {
		t.Fatal(err)
	}
	if err := as2.MapFixed(stackBase, mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as2.WriteForce(stackBase, []byte{9}); err != nil {
		t.Fatal(err)
	}
	c.AS = as2
	c.RIP = codeBase
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if c.Regs[isa.RCX] != 9 {
		t.Errorf("rcx = %d, want 9 (stale data from the old address space)", c.Regs[isa.RCX])
	}
	if c.TLBStats().Flushes == 0 {
		t.Error("address-space rebind did not flush the TLB")
	}
}

func TestTLBNeverCachesWritesToExecutablePages(t *testing.T) {
	// Guest stores to a W+X page must take the locked path every time so
	// the code-mutation counter and page generation advance — the decode
	// cache depends on it. The TLB must not shortcut them even after the
	// page was previously read (and therefore cached).
	var e isa.Enc
	e.MovImm64(isa.RAX, codeBase+0x800) // inside the (RWX) code page
	e.Load(isa.RCX, isa.RAX, 0)
	e.Store(isa.RAX, 0, isa.RBX)
	e.Store(isa.RAX, 8, isa.RBX)
	e.Hlt()
	c := loadProt(t, e.Buf, mem.ProtRWX)
	for i := 0; i < 2; i++ {
		if ev := c.Step(); ev != EvNone {
			t.Fatalf("step %d: %v", i, ev)
		}
	}
	before := c.AS.CodeMutations()
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if got := c.AS.CodeMutations(); got != before+2 {
		t.Errorf("code mutations advanced by %d across two exec-page stores, want 2", got-before)
	}
}

func TestTLBPageCrossingAccessFaultsAtFirstBadByte(t *testing.T) {
	// A 16-byte vector store straddling the last mapped page must fault at
	// the first inaccessible byte with the accessible prefix written
	// (partial-transfer semantics) — the TLB's in-page restriction must
	// not change multi-page fault behaviour.
	as := mem.NewAddressSpace()
	if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRX); err != nil {
		t.Fatal(err)
	}
	if err := as.MapFixed(0x3000, mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	var e isa.Enc
	e.MovImm64(isa.RAX, 0x4000-8)
	e.MovImm64(isa.RBX, 0x1122334455667788)
	e.MovQ2X(0, isa.RBX)
	e.MovupsStore(isa.RAX, 0, 0)
	e.Hlt()
	if err := as.WriteForce(0x1000, e.Buf); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.RIP = 0x1000
	if ev := run(t, c, 10); ev != EvFault {
		t.Fatalf("event = %v, want fault", ev)
	}
	var f *mem.Fault
	if !errors.As(c.FaultErr, &f) {
		t.Fatalf("FaultErr = %v, want a mem.Fault", c.FaultErr)
	}
	if f.Addr != 0x4000 || f.Kind != mem.AccessWrite {
		t.Errorf("fault at %#x (%v), want write fault at 0x4000", f.Addr, f.Kind)
	}
	got, err := as.ReadU64(0x4000 - 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1122334455667788 {
		t.Errorf("accessible prefix = %#x, want %#x (partial transfer lost)", got, uint64(0x1122334455667788))
	}
}
