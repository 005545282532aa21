// Package module defines the binary format of the synthetic toolchain and
// the address-space loader.
//
// A Module is the analogue of an ELF object: a code section, a data
// section with a global offset table (GOT) at its front, a symbol table
// carrying function metadata, a procedure linkage table (PLT) for imported
// functions, relocations for address-taken symbols, and a DT_NEEDED-style
// dependency list. The loader maps an executable, its dependency closure
// and the VDSO into one flat address space and performs eager symbol
// binding with ELF-like global symbol interposition: the executable is
// searched first, then the needed libraries in breadth-first order, and
// VDSO definitions take precedence for the symbols the VDSO exports
// (paper §4.1).
package module

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"flowguard/internal/isa"
)

// SymKind distinguishes function symbols from data objects.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc SymKind = iota
	SymObject
)

func (k SymKind) String() string {
	if k == SymFunc {
		return "func"
	}
	return "object"
}

// Symbol is one entry of a module's symbol table.
type Symbol struct {
	Name string
	Kind SymKind
	// Off is the symbol's offset within the code section (SymFunc) or the
	// data section (SymObject).
	Off  uint64
	Size uint64
	// ArgCount is the declared number of argument registers a function
	// consumes. The static analyzer computes its own arity via use-def
	// analysis; the declared value exists so tests can validate the
	// analysis against ground truth.
	ArgCount int
	// AddressTaken marks functions whose address escapes (via LEA
	// relocations or data-section function pointers). Only address-taken
	// functions are legal indirect-call targets in the conservative CFG.
	AddressTaken bool
	// Exported symbols participate in dynamic linking.
	Exported bool
}

// Reloc asks the loader to write the absolute address of Symbol at offset
// Off of the data section (a function pointer or a GOT slot).
type Reloc struct {
	// Off is the data-section offset of the 8-byte slot to patch.
	Off uint64
	// Symbol is resolved through the regular interposition order.
	Symbol string
}

// PLTEntry describes one procedure-linkage-table stub in the code section.
// The stub loads the target address from its GOT slot and performs an
// indirect jump, which is why inter-module control transfers are only ever
// indirect branches plus the matching returns (paper §4.1).
type PLTEntry struct {
	Symbol string
	// Off is the code-section offset of the stub's first instruction.
	Off uint64
	// GOTSlot is the index of the 8-byte GOT slot holding the resolved
	// target address.
	GOTSlot int
}

// Module is one linkable object: an executable, a shared library, or the
// VDSO.
type Module struct {
	Name string
	Code []byte
	Data []byte
	// GOTSlots is the number of 8-byte GOT entries at the start of Data.
	GOTSlots int
	Symbols  []Symbol
	PLT      []PLTEntry
	Relocs   []Reloc
	// Needed lists dependency module names in DT_NEEDED order.
	Needed []string
	// Entry is the code offset of the entry point (executables only).
	Entry uint64
}

// Symbol returns the symbol with the given name, if present.
func (m *Module) Symbol(name string) (Symbol, bool) {
	for i := range m.Symbols {
		if m.Symbols[i].Name == name {
			return m.Symbols[i], true
		}
	}
	return Symbol{}, false
}

// FuncAt returns the function symbol covering the given code offset.
func (m *Module) FuncAt(off uint64) (Symbol, bool) {
	best := -1
	for i := range m.Symbols {
		s := &m.Symbols[i]
		if s.Kind != SymFunc || s.Off > off {
			continue
		}
		if s.Size > 0 && off >= s.Off+s.Size {
			continue
		}
		if best < 0 || s.Off > m.Symbols[best].Off {
			best = i
		}
	}
	if best < 0 {
		return Symbol{}, false
	}
	return m.Symbols[best], true
}

// Validate performs structural checks: section sizes, symbol bounds, PLT
// and relocation targets.
func (m *Module) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("module: empty name")
	}
	if len(m.Code)%8 != 0 {
		return fmt.Errorf("module %s: code size %d not a multiple of the instruction width", m.Name, len(m.Code))
	}
	if got := uint64(m.GOTSlots * 8); got > uint64(len(m.Data)) {
		return fmt.Errorf("module %s: GOT (%d slots) exceeds data section (%d bytes)", m.Name, m.GOTSlots, len(m.Data))
	}
	for _, s := range m.Symbols {
		limit := uint64(len(m.Data))
		if s.Kind == SymFunc {
			limit = uint64(len(m.Code))
		}
		if s.Off >= limit && !(s.Off == limit && s.Size == 0) {
			return fmt.Errorf("module %s: symbol %s offset %#x out of range", m.Name, s.Name, s.Off)
		}
	}
	for _, p := range m.PLT {
		if p.Off >= uint64(len(m.Code)) {
			return fmt.Errorf("module %s: PLT stub for %s out of range", m.Name, p.Symbol)
		}
		if p.GOTSlot < 0 || p.GOTSlot >= m.GOTSlots {
			return fmt.Errorf("module %s: PLT stub for %s references GOT slot %d of %d", m.Name, p.Symbol, p.GOTSlot, m.GOTSlots)
		}
	}
	for _, r := range m.Relocs {
		if r.Off+8 > uint64(len(m.Data)) {
			return fmt.Errorf("module %s: relocation for %s at %#x out of data range", m.Name, r.Symbol, r.Off)
		}
	}
	if m.Entry >= uint64(len(m.Code)) && len(m.Code) > 0 {
		return fmt.Errorf("module %s: entry %#x out of code range", m.Name, m.Entry)
	}
	return nil
}

// Default address-space layout constants.
const (
	ExecBase  uint64 = 0x0040_0000 // executable code base
	LibBase   uint64 = 0x1000_0000 // first shared library base
	LibStride uint64 = 0x0100_0000 // spacing between libraries
	VDSOBase  uint64 = 0x7000_0000 // VDSO code base
	StackTop  uint64 = 0x7f00_0000 // initial stack pointer (exclusive)
	StackSize uint64 = 1 << 20     // 1 MiB stack
	pageAlign uint64 = 0x1000
)

// Perm is a segment permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Segment is one contiguous mapped region.
//
// Segments are never unmapped, moved or resized: once an address space
// maps a segment, its Base and the Data slice header stay fixed for the
// address space's lifetime, and only Perm (Mprotect) and the bytes in
// Data change. A cached *Segment therefore never goes stale as a range;
// a cache only has to re-check Perm on every use (see DataHint) or, for
// a code map, whether Mprotect has dropped it (see FetchCursor).
type Segment struct {
	Base uint64
	Perm Perm
	Data []byte
	// Mod is the loaded module owning this segment, nil for stack and
	// anonymous mappings.
	Mod *Loaded
	// IsCode marks the code segment of a module.
	IsCode bool
	Name   string

	// code is the segment's code map once built (see CodeMapAt); codeMu
	// serializes building it against Mprotect.
	codeMu sync.Mutex
	code   atomic.Pointer[CodeMap]
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 { return s.Base + uint64(len(s.Data)) }

// Contains reports whether addr lies inside the segment.
func (s *Segment) Contains(addr uint64) bool { return addr >= s.Base && addr < s.End() }

// Loaded is a module mapped at concrete base addresses.
type Loaded struct {
	Mod      *Module
	CodeBase uint64
	DataBase uint64
}

// CodeEnd returns the first address past the module's code segment.
func (l *Loaded) CodeEnd() uint64 { return l.CodeBase + uint64(len(l.Mod.Code)) }

// ContainsCode reports whether addr lies in the module's code segment.
func (l *Loaded) ContainsCode(addr uint64) bool {
	return addr >= l.CodeBase && addr < l.CodeEnd()
}

// SymbolAddr returns the absolute address of a symbol defined by this
// loaded module.
func (l *Loaded) SymbolAddr(name string) (uint64, bool) {
	s, ok := l.Mod.Symbol(name)
	if !ok {
		return 0, false
	}
	if s.Kind == SymFunc {
		return l.CodeBase + s.Off, true
	}
	return l.DataBase + s.Off, true
}

// FaultKind classifies memory faults raised by the address space.
type FaultKind uint8

// Fault kinds.
const (
	FaultUnmapped FaultKind = iota
	FaultPerm
	FaultMisaligned
)

// Fault is the error returned for an illegal memory access; the kernel
// model turns it into a fatal signal.
type Fault struct {
	Kind FaultKind
	Addr uint64
	Op   string
}

func (f *Fault) Error() string {
	kinds := [...]string{"unmapped address", "permission denied", "misaligned access"}
	return fmt.Sprintf("memory fault: %s at %#x (%s)", kinds[f.Kind], f.Addr, f.Op)
}

// AddressSpace is a process's flat memory map: module segments, stack and
// anonymous mappings, plus the loaded-module index used by decoders and
// the static analyzer.
type AddressSpace struct {
	segs []*Segment // sorted by Base
	// Mods holds the loaded modules: executable first, then libraries in
	// load order, then the VDSO (if any).
	Mods []*Loaded
	// Exec is the loaded executable (Mods[0]).
	Exec *Loaded
	// VDSO is the loaded VDSO module, nil if absent.
	VDSO *Loaded
	// InitialSP is the stack pointer at process start.
	InitialSP uint64

	// code is the code-range table behind ModuleIndex: every module's
	// code segment, sorted by base. Built at load and, like Mods, shared
	// by clones.
	code []codeRange

	// mapsBuilt counts the code maps built in this address space.
	mapsBuilt atomic.Uint64
}

// LoadOption customizes Load.
type LoadOption func(*loadConfig)

type loadConfig struct {
	stackSize uint64
	noVDSO    bool
}

// WithStackSize overrides the default 1 MiB stack.
func WithStackSize(n uint64) LoadOption {
	return func(c *loadConfig) { c.stackSize = n }
}

// Load maps the executable, the transitive closure of its DT_NEEDED
// dependencies (resolved through libs), and the optional VDSO, then
// performs eager symbol binding: every GOT slot and data relocation is
// patched with the interposed symbol address.
func Load(exec *Module, libs map[string]*Module, vdso *Module, opts ...LoadOption) (*AddressSpace, error) {
	cfg := loadConfig{stackSize: StackSize}
	for _, o := range opts {
		o(&cfg)
	}
	if err := exec.Validate(); err != nil {
		return nil, err
	}

	// Resolve the dependency closure breadth-first from the executable,
	// preserving DT_NEEDED order. This order also defines the global
	// symbol search order (interposition).
	order := []*Module{exec}
	seen := map[string]bool{exec.Name: true}
	for i := 0; i < len(order); i++ {
		for _, dep := range order[i].Needed {
			if seen[dep] {
				continue
			}
			lib, ok := libs[dep]
			if !ok {
				return nil, fmt.Errorf("module %s: needed library %q not found", order[i].Name, dep)
			}
			if err := lib.Validate(); err != nil {
				return nil, err
			}
			seen[dep] = true
			order = append(order, lib)
		}
	}

	as := &AddressSpace{}
	place := func(m *Module, codeBase uint64) *Loaded {
		dataBase := align(codeBase+uint64(len(m.Code)), pageAlign)
		l := &Loaded{Mod: m, CodeBase: codeBase, DataBase: dataBase}
		code := make([]byte, len(m.Code))
		copy(code, m.Code)
		data := make([]byte, len(m.Data))
		copy(data, m.Data)
		as.segs = append(as.segs,
			&Segment{Base: codeBase, Perm: PermR | PermX, Data: code, Mod: l, IsCode: true, Name: m.Name + ".text"},
			&Segment{Base: dataBase, Perm: PermR | PermW, Data: data, Mod: l, Name: m.Name + ".data"})
		as.Mods = append(as.Mods, l)
		return l
	}

	as.Exec = place(exec, ExecBase)
	for i, m := range order[1:] {
		base := LibBase + uint64(i)*LibStride
		place(m, base)
	}
	if vdso != nil && !cfg.noVDSO {
		if err := vdso.Validate(); err != nil {
			return nil, err
		}
		as.VDSO = place(vdso, VDSOBase)
	}

	stackBase := StackTop - cfg.stackSize
	as.segs = append(as.segs, &Segment{
		Base: stackBase,
		Perm: PermR | PermW,
		Data: make([]byte, cfg.stackSize),
		Name: "[stack]",
	})
	as.InitialSP = StackTop

	sort.Slice(as.segs, func(i, j int) bool { return as.segs[i].Base < as.segs[j].Base })
	for i := 1; i < len(as.segs); i++ {
		if as.segs[i].Base < as.segs[i-1].End() {
			return nil, fmt.Errorf("module: overlapping segments %s and %s", as.segs[i-1].Name, as.segs[i].Name)
		}
	}

	if err := as.bind(); err != nil {
		return nil, err
	}
	as.code = codeRanges(as.Mods)
	return as, nil
}

// codeRange is one module's code segment [base, end) and the module's
// index in AddressSpace.Mods.
type codeRange struct {
	base, end uint64
	mod       int
}

// codeRanges builds the code-range table of mods, sorted by base.
func codeRanges(mods []*Loaded) []codeRange {
	out := make([]codeRange, len(mods))
	for i, l := range mods {
		out[i] = codeRange{base: l.CodeBase, end: l.CodeEnd(), mod: i}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out
}

// ModuleIndex returns the index in Mods of the module whose code segment
// contains addr, or -1 when FindModule would return nil. It answers from
// the flat code-range table, one binary search over contiguous entries
// with no segment pointer to follow per probe, for checkers that resolve
// trace targets at every endpoint.
//
//fg:hotpath
func (as *AddressSpace) ModuleIndex(addr uint64) int {
	lo, hi := 0, len(as.code)
	for lo < hi {
		mid := (lo + hi) / 2
		if as.code[mid].end <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(as.code) && as.code[lo].base <= addr {
		return as.code[lo].mod
	}
	return -1
}

// bind performs eager symbol resolution for every module's GOT and data
// relocations.
func (as *AddressSpace) bind() error {
	for _, l := range as.Mods {
		for _, p := range l.Mod.PLT {
			addr, err := as.resolve(p.Symbol)
			if err != nil {
				return fmt.Errorf("binding %s: %w", l.Mod.Name, err)
			}
			if err := as.pokeU64(l.DataBase+uint64(p.GOTSlot)*8, addr); err != nil {
				return err
			}
		}
		for _, r := range l.Mod.Relocs {
			var addr uint64
			// A relocation first tries the defining module itself (local
			// definitions win for plain address-taken references), then
			// the global order.
			if a, ok := l.SymbolAddr(r.Symbol); ok {
				addr = a
			} else {
				a, err := as.resolve(r.Symbol)
				if err != nil {
					return fmt.Errorf("relocating %s: %w", l.Mod.Name, err)
				}
				addr = a
			}
			if err := as.pokeU64(l.DataBase+r.Off, addr); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolve performs the global symbol lookup: VDSO definitions take
// precedence (paper: VDSO functions take precedence over libraries), then
// the executable, then the libraries in breadth-first DT_NEEDED order.
func (as *AddressSpace) resolve(name string) (uint64, error) {
	if as.VDSO != nil {
		if s, ok := as.VDSO.Mod.Symbol(name); ok && s.Exported {
			return as.VDSO.CodeBase + s.Off, nil
		}
	}
	for _, l := range as.Mods {
		if l == as.VDSO {
			continue
		}
		if s, ok := l.Mod.Symbol(name); ok && s.Exported {
			if s.Kind == SymFunc {
				return l.CodeBase + s.Off, nil
			}
			return l.DataBase + s.Off, nil
		}
	}
	return 0, fmt.Errorf("module: unresolved symbol %q", name)
}

// ResolveSymbol performs the same interposed lookup used at load time.
func (as *AddressSpace) ResolveSymbol(name string) (uint64, bool) {
	addr, err := as.resolve(name)
	return addr, err == nil
}

// pokeU64 writes ignoring permissions (loader-only).
func (as *AddressSpace) pokeU64(addr, v uint64) error {
	seg := as.FindSegment(addr)
	if seg == nil || addr+8 > seg.End() {
		return &Fault{Kind: FaultUnmapped, Addr: addr, Op: "reloc"}
	}
	binary.LittleEndian.PutUint64(seg.Data[addr-seg.Base:], v)
	return nil
}

// FindSegment returns the segment containing addr, or nil.
func (as *AddressSpace) FindSegment(addr uint64) *Segment {
	lo, hi := 0, len(as.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if as.segs[mid].End() <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(as.segs) && as.segs[lo].Contains(addr) {
		return as.segs[lo]
	}
	return nil
}

// FindModule returns the loaded module whose code segment contains addr.
func (as *AddressSpace) FindModule(addr uint64) *Loaded {
	seg := as.FindSegment(addr)
	if seg == nil || !seg.IsCode {
		return nil
	}
	return seg.Mod
}

func (as *AddressSpace) access(addr uint64, n int, perm Perm, op string) ([]byte, error) {
	seg, err := as.accessSegment(addr, uint64(n), perm, op)
	if err != nil {
		return nil, err
	}
	return seg.Data[addr-seg.Base : addr-seg.Base+uint64(n)], nil
}

// accessSegment returns the segment an n-byte access at addr with perm
// touches, or the fault the access raises.
func (as *AddressSpace) accessSegment(addr, n uint64, perm Perm, op string) (*Segment, error) {
	seg := as.FindSegment(addr)
	if seg == nil {
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr, Op: op}
	}
	if seg.Perm&perm != perm {
		return nil, &Fault{Kind: FaultPerm, Addr: addr, Op: op}
	}
	if addr+n > seg.End() {
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr, Op: op}
	}
	return seg, nil
}

// ReadU64 loads a 64-bit little-endian word.
func (as *AddressSpace) ReadU64(addr uint64) (uint64, error) {
	b, err := as.access(addr, 8, PermR, "read64")
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// WriteU64 stores a 64-bit little-endian word.
func (as *AddressSpace) WriteU64(addr, v uint64) error {
	b, err := as.access(addr, 8, PermW, "write64")
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	return nil
}

// ReadU8 loads one byte.
func (as *AddressSpace) ReadU8(addr uint64) (byte, error) {
	b, err := as.access(addr, 1, PermR, "read8")
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteU8 stores one byte.
func (as *AddressSpace) WriteU8(addr uint64, v byte) error {
	b, err := as.access(addr, 1, PermW, "write8")
	if err != nil {
		return err
	}
	b[0] = v
	return nil
}

// ReadBytes copies n bytes starting at addr.
func (as *AddressSpace) ReadBytes(addr uint64, n int) ([]byte, error) {
	b, err := as.access(addr, n, PermR, "read")
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// WriteBytes stores p at addr.
func (as *AddressSpace) WriteBytes(addr uint64, p []byte) error {
	b, err := as.access(addr, len(p), PermW, "write")
	if err != nil {
		return err
	}
	copy(b, p)
	return nil
}

// FetchInstr reads the 8 instruction bytes at pc, requiring execute
// permission (DEP/NX: data and stack are never executable).
func (as *AddressSpace) FetchInstr(pc uint64) ([]byte, error) {
	return as.access(pc, 8, PermX, "fetch")
}

// Mmap maps an anonymous region (used by the mmap syscall model). It
// returns the chosen base address.
func (as *AddressSpace) Mmap(size uint64, perm Perm) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("module: zero-length mmap")
	}
	size = align(size, pageAlign)
	// First-fit above the last library, below the VDSO.
	base := uint64(0x4000_0000)
	for {
		conflict := false
		for _, s := range as.segs {
			if base < s.End() && s.Base < base+size {
				conflict = true
				if s.End() > base {
					base = align(s.End(), pageAlign)
				}
				break
			}
		}
		if !conflict {
			break
		}
		if base+size > VDSOBase {
			return 0, fmt.Errorf("module: out of address space")
		}
	}
	seg := &Segment{Base: base, Perm: perm, Data: make([]byte, size), Name: "[anon]"}
	as.segs = append(as.segs, seg)
	sort.Slice(as.segs, func(i, j int) bool { return as.segs[i].Base < as.segs[j].Base })
	return base, nil
}

// Mprotect sets the permissions of the whole segment containing addr to
// perm. It enforces no W^X policy: any combination is accepted, for code
// and data segments alike, because the syscall itself is a guarded
// endpoint (the threat model puts the check there, not in the loader).
//
// Mprotect also drops the segment's code map. A map is built only for a
// segment that is executable and not writable, and nothing can change
// such a segment's bytes, so the map stays exact until the next
// Mprotect. Every FetchCursor over the segment — the CPUs executing the
// address space, including other threads' CPUs, and the flow walks
// decoding its trace — sees the drop on its next fetch, and the first
// fetch after the segment is executable and read-only again rebuilds
// the map.
func (as *AddressSpace) Mprotect(addr uint64, perm Perm) error {
	seg := as.FindSegment(addr)
	if seg == nil {
		return &Fault{Kind: FaultUnmapped, Addr: addr, Op: "mprotect"}
	}
	seg.codeMu.Lock()
	seg.Perm = perm
	seg.code.Store(nil)
	seg.codeMu.Unlock()
	return nil
}

// Segments returns the mapped segments in address order.
func (as *AddressSpace) Segments() []*Segment { return as.segs }

// Clone returns a fork-style copy of the address space: every segment's
// bytes are duplicated (memory is private to the child — the simulation
// has no COW, so copying eagerly is the honest model), while the
// loaded-module index (Mods/Exec/VDSO and the code-range table) is
// shared. That index is immutable mapping metadata identical in parent
// and child, and sharing it is what lets a forked child keep using the
// parent's per-binary CFG artifacts without any re-analysis.
func (as *AddressSpace) Clone() *AddressSpace {
	out := &AddressSpace{
		Mods:      as.Mods,
		Exec:      as.Exec,
		VDSO:      as.VDSO,
		InitialSP: as.InitialSP,
		code:      as.code,
	}
	out.segs = make([]*Segment, len(as.segs))
	for i, s := range as.segs {
		ns := &Segment{
			Base: s.Base, Perm: s.Perm, Data: append([]byte(nil), s.Data...),
			Mod: s.Mod, IsCode: s.IsCode, Name: s.Name,
		}
		// The child's bytes equal the parent's and a map is immutable,
		// so the child shares the parent's map until its own Mprotect.
		ns.code.Store(s.code.Load())
		out.segs[i] = ns
	}
	return out
}

// SymbolFor returns "module!symbol+off" for a code address, for
// diagnostics.
func (as *AddressSpace) SymbolFor(addr uint64) string {
	l := as.FindModule(addr)
	if l == nil {
		return fmt.Sprintf("%#x", addr)
	}
	off := addr - l.CodeBase
	if s, ok := l.Mod.FuncAt(off); ok {
		if off == s.Off {
			return fmt.Sprintf("%s!%s", l.Mod.Name, s.Name)
		}
		return fmt.Sprintf("%s!%s+%#x", l.Mod.Name, s.Name, off-s.Off)
	}
	for _, p := range l.Mod.PLT {
		const stubSize = 3 * 8
		if off >= p.Off && off < p.Off+stubSize {
			if off == p.Off {
				return fmt.Sprintf("%s!%s@plt", l.Mod.Name, p.Symbol)
			}
			return fmt.Sprintf("%s!%s@plt+%#x", l.Mod.Name, p.Symbol, off-p.Off)
		}
	}
	return fmt.Sprintf("%s+%#x", l.Mod.Name, off)
}

// CodeMap is the predecoded view of one executable, non-writable
// segment: the decoded instruction of every 8-byte slot and, for each
// slot, how many straight-line instructions follow before the next stop.
// A stop is a change-of-flow instruction, HALT, an undecodable slot or
// the segment end. The CPU executes from it and the instruction-flow
// walk steps whole basic blocks over it instead of fetching and decoding
// one instruction at a time (the analogue of Griffin's mirror pages and
// of libipt's block decoder). A map is immutable once built.
type CodeMap struct {
	base  uint64 // address of slot 0 (the segment base)
	slots []CodeSlot
}

// CodeSlot is one instruction slot of a CodeMap.
type CodeSlot struct {
	// Instr is the decoded instruction. At an undecodable slot its Op is
	// undecodable, which is not a valid opcode.
	Instr isa.Instr
	// Run is the number of consecutive instructions from this slot on
	// that are not stops: 0 at a stop, and at most the slots left before
	// the segment end.
	Run uint32
}

// Slot returns the slot at pc, or nil when pc lies outside the map or is
// not on an instruction boundary.
func (m *CodeMap) Slot(pc uint64) *CodeSlot {
	off := pc - m.base
	if pc < m.base || off%isa.InstrSize != 0 || off/isa.InstrSize >= uint64(len(m.slots)) {
		return nil
	}
	return &m.slots[off/isa.InstrSize]
}

// undecodable is the Op of an undecodable slot: no opcode has it.
const undecodable = ^isa.Op(0)

// buildCodeMap decodes every slot of data and links each slot to the
// next stop.
func buildCodeMap(base uint64, data []byte) *CodeMap {
	n := len(data) / isa.InstrSize
	m := &CodeMap{base: base, slots: make([]CodeSlot, n)}
	var run uint32
	for i := n - 1; i >= 0; i-- {
		in, err := isa.Decode(data[i*isa.InstrSize:])
		switch {
		case err != nil:
			in, run = isa.Instr{Op: undecodable}, 0
		case in.Op.IsCoFI() || in.Op == isa.HALT:
			run = 0
		default:
			run++
		}
		m.slots[i] = CodeSlot{Instr: in, Run: run}
	}
	return m
}

// CodeMapAt returns the code map of the segment containing pc, building
// and publishing it on first use. It returns nil when pc is unmapped or
// its segment is not executable, or is writable: the bytes of a
// writable segment can change under the map, so such code is only ever
// fetched and decoded instruction by instruction. Concurrent callers
// build a segment's map once.
func (as *AddressSpace) CodeMapAt(pc uint64) *CodeMap {
	seg := as.FindSegment(pc)
	if seg == nil {
		return nil
	}
	return as.codeMap(seg)
}

// codeMap returns seg's code map, building it on first use (see
// CodeMapAt).
func (as *AddressSpace) codeMap(seg *Segment) *CodeMap {
	if m := seg.code.Load(); m != nil {
		return m
	}
	// Perm is read under codeMu only: Mprotect writes it there, and may
	// run on another goroutine sharing the address space.
	seg.codeMu.Lock()
	defer seg.codeMu.Unlock()
	if seg.Perm&(PermW|PermX) != PermX {
		return nil
	}
	m := seg.code.Load()
	if m == nil {
		m = buildCodeMap(seg.Base, seg.Data)
		seg.code.Store(m)
		as.mapsBuilt.Add(1)
	}
	return m
}

// CodeMapsBuilt returns how many code maps this address space has
// built: one per executable, read-only segment that a CPU executed in or
// a flow walk decoded, plus one per rebuild after an Mprotect. The CPU
// and the walk share each map, so a trace decoded over the address
// space that produced it builds none. Maps a Clone inherits are not
// counted again.
func (as *AddressSpace) CodeMapsBuilt() uint64 { return as.mapsBuilt.Load() }

func align(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
