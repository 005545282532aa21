package module

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"flowguard/internal/isa"
)

// retModule builds a minimal valid module by hand: one RET-only function
// named fn, optionally exported.
func retModule(name, fn string, exported bool) *Module {
	code := (isa.Instr{Op: isa.RET}).EncodeTo(nil)
	return &Module{
		Name: name,
		Code: code,
		Symbols: []Symbol{
			{Name: fn, Kind: SymFunc, Off: 0, Size: uint64(len(code)), Exported: exported},
		},
	}
}

func TestLoadLayout(t *testing.T) {
	exec := retModule("app", "main", true)
	exec.Needed = []string{"libc", "libz"}
	libc := retModule("libc", "memcpy", true)
	libz := retModule("libz", "inflate", true)
	vdso := retModule("vdso", "gettimeofday", true)

	as, err := Load(exec, map[string]*Module{"libc": libc, "libz": libz}, vdso)
	if err != nil {
		t.Fatal(err)
	}
	if as.Exec.CodeBase != ExecBase {
		t.Errorf("exec base = %#x, want %#x", as.Exec.CodeBase, ExecBase)
	}
	if len(as.Mods) != 4 {
		t.Fatalf("loaded %d modules, want 4", len(as.Mods))
	}
	if as.Mods[1].CodeBase != LibBase || as.Mods[2].CodeBase != LibBase+LibStride {
		t.Errorf("library bases = %#x, %#x", as.Mods[1].CodeBase, as.Mods[2].CodeBase)
	}
	if as.VDSO == nil || as.VDSO.CodeBase != VDSOBase {
		t.Fatal("VDSO not loaded at VDSOBase")
	}
	if as.InitialSP != StackTop {
		t.Errorf("initial SP = %#x, want %#x", as.InitialSP, StackTop)
	}
}

func TestLoadMissingDependency(t *testing.T) {
	exec := retModule("app", "main", true)
	exec.Needed = []string{"libghost"}
	if _, err := Load(exec, nil, nil); err == nil {
		t.Fatal("Load accepted missing DT_NEEDED library")
	}
}

func TestSymbolInterposition(t *testing.T) {
	// Both libraries define "open"; the one earlier in BFS DT_NEEDED
	// order must win (global symbol interpose, §4.1).
	exec := retModule("app", "main", true)
	exec.Needed = []string{"liba", "libb"}
	exec.GOTSlots = 1
	exec.Data = make([]byte, 8)
	exec.PLT = []PLTEntry{{Symbol: "open", Off: 0, GOTSlot: 0}}
	liba := retModule("liba", "open", true)
	libb := retModule("libb", "open", true)

	as, err := Load(exec, map[string]*Module{"liba": liba, "libb": libb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadU64(as.Exec.DataBase)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := as.Mods[1].SymbolAddr("open") // liba
	if got != want {
		t.Errorf("GOT[open] = %#x, want liba's %#x", got, want)
	}
}

func TestVDSOPrecedence(t *testing.T) {
	// gettimeofday exists in libc and the VDSO: the VDSO definition must
	// take precedence (paper §4.1).
	exec := retModule("app", "main", true)
	exec.Needed = []string{"libc"}
	exec.GOTSlots = 1
	exec.Data = make([]byte, 8)
	exec.PLT = []PLTEntry{{Symbol: "gettimeofday", Off: 0, GOTSlot: 0}}
	libc := retModule("libc", "gettimeofday", true)
	vdso := retModule("vdso", "gettimeofday", true)

	as, err := Load(exec, map[string]*Module{"libc": libc}, vdso)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := as.ReadU64(as.Exec.DataBase)
	want, _ := as.VDSO.SymbolAddr("gettimeofday")
	if got != want {
		t.Errorf("GOT[gettimeofday] = %#x, want VDSO's %#x", got, want)
	}
}

func TestUnresolvedSymbol(t *testing.T) {
	exec := retModule("app", "main", true)
	exec.GOTSlots = 1
	exec.Data = make([]byte, 8)
	exec.PLT = []PLTEntry{{Symbol: "ghost", Off: 0, GOTSlot: 0}}
	_, err := Load(exec, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Fatalf("Load = %v, want unresolved symbol error", err)
	}
}

func TestPermissions(t *testing.T) {
	exec := retModule("app", "main", true)
	exec.Data = make([]byte, 16)
	as, err := Load(exec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Code is readable and executable but not writable.
	if _, err := as.FetchInstr(ExecBase); err != nil {
		t.Errorf("FetchInstr(code): %v", err)
	}
	if err := as.WriteU64(ExecBase, 0); err == nil {
		t.Error("code segment was writable")
	}

	// Data is read/write but not executable (DEP).
	if err := as.WriteU64(as.Exec.DataBase, 42); err != nil {
		t.Errorf("WriteU64(data): %v", err)
	}
	if _, err := as.FetchInstr(as.Exec.DataBase); err == nil {
		t.Error("data segment was executable (DEP violated)")
	}

	// Stack is read/write but not executable (NX).
	sp := as.InitialSP - 8
	if err := as.WriteU64(sp, 1); err != nil {
		t.Errorf("WriteU64(stack): %v", err)
	}
	if _, err := as.FetchInstr(sp); err == nil {
		t.Error("stack was executable (NX violated)")
	}

	// Unmapped access faults with a typed *Fault error.
	_, err = as.ReadU64(0x10)
	if err == nil {
		t.Fatal("read of unmapped page succeeded")
	}
	f, ok := err.(*Fault)
	if !ok || f.Kind != FaultUnmapped {
		t.Errorf("unmapped read error = %v, want *Fault{FaultUnmapped}", err)
	}
}

func TestFindModuleAndSymbolFor(t *testing.T) {
	exec := retModule("app", "main", true)
	libc := retModule("libc", "memcpy", true)
	exec.Needed = []string{"libc"}
	as, err := Load(exec, map[string]*Module{"libc": libc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := as.FindModule(ExecBase); m == nil || m.Mod.Name != "app" {
		t.Errorf("FindModule(ExecBase) = %v", m)
	}
	if m := as.FindModule(LibBase); m == nil || m.Mod.Name != "libc" {
		t.Errorf("FindModule(LibBase) = %v", m)
	}
	if m := as.FindModule(as.InitialSP - 8); m != nil {
		t.Errorf("FindModule(stack) = %v, want nil", m)
	}
	if s := as.SymbolFor(LibBase); s != "libc!memcpy" {
		t.Errorf("SymbolFor = %q, want libc!memcpy", s)
	}
}

// TestModuleIndexMatchesFindModule is the quick-check of the code-range
// table against the segment search: for arbitrary addresses, and for
// addresses at and around every segment's edges, ModuleIndex names the
// module FindModule returns, in the address space and in its clone. One
// address space holds more modules than a machine word has bits, and
// both hold an executable anonymous mapping, which is no module's code.
func TestModuleIndexMatchesFindModule(t *testing.T) {
	for _, nlibs := range []int{1, 70} {
		exec := retModule("app", "main", true)
		libs := map[string]*Module{}
		for i := 0; i < nlibs; i++ {
			name := fmt.Sprintf("lib%d", i)
			exec.Needed = append(exec.Needed, name)
			libs[name] = retModule(name, fmt.Sprintf("f%d", i), true)
		}
		as, err := Load(exec, libs, retModule("vdso", "gettimeofday", true))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := as.Mmap(0x3000, PermR|PermX); err != nil {
			t.Fatal(err)
		}
		if len(as.Mods) != nlibs+2 {
			t.Fatalf("loaded %d modules, want %d", len(as.Mods), nlibs+2)
		}
		clone := as.Clone()
		segs := as.Segments()
		agree := func(addr uint64) bool {
			want := as.FindModule(addr)
			for _, a := range []*AddressSpace{as, clone} {
				i := a.ModuleIndex(addr)
				if i < 0 && want != nil || i >= 0 && a.Mods[i] != want {
					t.Logf("%d modules: ModuleIndex(%#x) = %d, FindModule = %v", len(as.Mods), addr, i, want)
					return false
				}
			}
			return true
		}
		near := func(raw uint64, pick uint16, delta int8, end bool) bool {
			s := segs[int(pick)%len(segs)]
			edge := s.Base
			if end {
				edge = s.End()
			}
			return agree(raw) && agree(edge+uint64(int64(delta)))
		}
		if err := quick.Check(near, &quick.Config{MaxCount: 5000}); err != nil {
			t.Fatalf("%d modules: %v", len(as.Mods), err)
		}
	}
}

func TestMmapAndMprotect(t *testing.T) {
	exec := retModule("app", "main", true)
	as, err := Load(exec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := as.Mmap(100, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	if base%0x1000 != 0 {
		t.Errorf("mmap base %#x not page-aligned", base)
	}
	if err := as.WriteU64(base, 7); err != nil {
		t.Errorf("write to mmapped region: %v", err)
	}
	// Two mappings must not overlap.
	b2, err := as.Mmap(0x2000, PermR)
	if err != nil {
		t.Fatal(err)
	}
	if b2 >= base && b2 < base+0x1000 {
		t.Errorf("second mmap %#x overlaps first %#x", b2, base)
	}
	if err := as.Mprotect(base, PermR); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(base, 7); err == nil {
		t.Error("write succeeded after mprotect(PROT_READ)")
	}
	if _, err := as.Mmap(0, PermR); err == nil {
		t.Error("zero-length mmap succeeded")
	}
}

func TestValidateCatchesCorruptModules(t *testing.T) {
	cases := []func(*Module){
		func(m *Module) { m.Name = "" },
		func(m *Module) { m.Code = append(m.Code, 0) },
		func(m *Module) { m.GOTSlots = 10 },
		func(m *Module) { m.Symbols[0].Off = 1 << 20 },
		func(m *Module) { m.PLT = []PLTEntry{{Symbol: "x", Off: 1 << 20}} },
		func(m *Module) {
			m.GOTSlots = 0
			m.PLT = []PLTEntry{{Symbol: "x", Off: 0, GOTSlot: 0}}
		},
		func(m *Module) { m.Relocs = []Reloc{{Off: 1 << 20, Symbol: "x"}} },
		func(m *Module) { m.Entry = 1 << 20 },
	}
	for i, corrupt := range cases {
		m := retModule("app", "main", true)
		m.Data = make([]byte, 8)
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted corrupt module", i)
		}
	}
}

func TestFuncAt(t *testing.T) {
	code := (isa.Instr{Op: isa.RET}).EncodeTo(nil)
	code = (isa.Instr{Op: isa.NOP}).EncodeTo(code)
	code = (isa.Instr{Op: isa.RET}).EncodeTo(code)
	m := &Module{
		Name: "m",
		Code: code,
		Symbols: []Symbol{
			{Name: "a", Kind: SymFunc, Off: 0, Size: 8},
			{Name: "b", Kind: SymFunc, Off: 8, Size: 16},
		},
	}
	if s, ok := m.FuncAt(0); !ok || s.Name != "a" {
		t.Errorf("FuncAt(0) = %v, %v", s, ok)
	}
	if s, ok := m.FuncAt(16); !ok || s.Name != "b" {
		t.Errorf("FuncAt(16) = %v, %v", s, ok)
	}
}

// Property: FindSegment agrees with a linear scan for arbitrary
// addresses.
func TestQuickFindSegment(t *testing.T) {
	exec := retModule("app", "main", true)
	exec.Needed = []string{"libc"}
	libc := retModule("libc", "memcpy", true)
	as, err := Load(exec, map[string]*Module{"libc": libc}, retModule("vdso", "gettimeofday", true))
	if err != nil {
		t.Fatal(err)
	}
	segs := as.Segments()
	linear := func(addr uint64) *Segment {
		for _, s := range segs {
			if s.Contains(addr) {
				return s
			}
		}
		return nil
	}
	f := func(addr uint64) bool {
		addr %= StackTop + 0x1000
		return as.FindSegment(addr) == linear(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// And the exact boundaries (zero-length segments contain nothing).
	for _, s := range segs {
		if len(s.Data) > 0 && as.FindSegment(s.Base) != s {
			t.Errorf("FindSegment(base of %s) missed", s.Name)
		}
		if got := as.FindSegment(s.End()); got == s {
			t.Errorf("FindSegment(end of %s) claimed the segment", s.Name)
		}
	}
}
