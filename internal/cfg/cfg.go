// Package cfg implements the offline static binary analysis of §4.1: it
// disassembles the loaded executable and every shared library, recovers
// functions and basic blocks, and builds the conservative original CFG
// (O-CFG) that the ITC-CFG reconstruction and the slow path consume.
//
// The analysis mirrors the paper's Dyninst-plugin pipeline:
//
//   - intra-module CFGs from disassembly (exact here: fixed-width ISA),
//   - inter-module edges only through PLT stubs (indirect jumps bound by
//     the loader with DT_NEEDED-order symbol interposition and VDSO
//     precedence) and the corresponding returns,
//   - indirect-call target sets restricted by a TypeArmor-style use-def /
//     liveness arity analysis over address-taken functions,
//   - return instructions connected to the valid return addresses after
//     call sites (call/return matching),
//   - tail calls detected by following terminal jumps out of functions and
//     propagating the caller's return addresses to the tail callee.
//
// The CFG is conservative: indirect target sets over-approximate, so
// runtime checking of legitimate flow never raises a false positive.
package cfg

import (
	"fmt"
	"sort"

	"flowguard/internal/isa"
	"flowguard/internal/module"
)

// TermKind classifies how a basic block ends.
type TermKind uint8

// Block terminator kinds.
const (
	TermFall    TermKind = iota // runs into the next leader
	TermJmp                     // direct jump
	TermCond                    // conditional branch
	TermCall                    // direct call
	TermIndCall                 // indirect call (CALLR)
	TermIndJmp                  // indirect jump (JMPR)
	TermRet                     // return
	TermSyscall                 // far transfer, resumes at fall-through
	TermHalt                    // no successors
)

var termNames = [...]string{
	TermFall: "fall", TermJmp: "jmp", TermCond: "cond", TermCall: "call",
	TermIndCall: "indcall", TermIndJmp: "indjmp", TermRet: "ret",
	TermSyscall: "syscall", TermHalt: "halt",
}

func (k TermKind) String() string { return termNames[k] }

// Block is one basic block, identified by its absolute start address.
type Block struct {
	Start, End uint64
	Fn         *Function
	Kind       TermKind
	// TermAddr is the address of the terminating CoFI (End-8) when Kind
	// is not TermFall.
	TermAddr uint64

	// Direct successor structure. For TermCond, Taken/Fall are the two
	// targets (the taken edge corresponds to TNT bit 1). For TermJmp,
	// TermCall and TermSyscall, Next is the single direct successor
	// (callee entry for calls, fall-through for syscalls). For TermFall,
	// Next is the next leader.
	Taken, Fall uint64
	Next        uint64

	// IndTargets lists the conservatively resolved targets of an
	// indirect terminator (TermIndCall/TermIndJmp: function or table
	// entries; TermRet: valid return addresses). Sorted ascending.
	IndTargets []uint64
}

// DirectSuccs appends the block's direct-edge successors to dst.
// Direct edges are the ones IPT never reports: following them produces no
// packet, which is exactly why the ITC-CFG collapses them (§4.2).
func (b *Block) DirectSuccs(dst []uint64) []uint64 {
	switch b.Kind {
	case TermFall, TermJmp, TermCall, TermSyscall:
		dst = append(dst, b.Next)
	case TermCond:
		dst = append(dst, b.Taken, b.Fall)
	}
	return dst
}

// HasIndirectTerm reports whether the block ends in a TIP-producing
// branch.
func (b *Block) HasIndirectTerm() bool {
	return b.Kind == TermIndCall || b.Kind == TermIndJmp || b.Kind == TermRet
}

// CallSite is one call instruction (direct or indirect) inside a
// function.
type CallSite struct {
	Addr    uint64
	RetAddr uint64
	// Callee is the direct callee (possibly a PLT stub function); nil
	// for indirect sites.
	Callee *Function
	// Targets holds the resolved callee set of an indirect site.
	Targets []*Function
	// Prepared is the over-approximated count of argument registers set
	// up at this site (TypeArmor forward analysis).
	Prepared int
}

// Indirect reports whether the site is an indirect call.
func (c *CallSite) Indirect() bool { return c.Callee == nil }

// Function is one recovered function (including synthesized PLT-stub
// functions).
type Function struct {
	Name  string
	Mod   *module.Loaded
	Entry uint64
	End   uint64
	// Arity is the computed number of argument registers consumed
	// (liveness at entry), the TypeArmor callee-side signature.
	Arity int
	// DeclaredArity is the toolchain ground truth from the symbol table,
	// used only to validate the analysis (never by enforcement).
	DeclaredArity int
	// AddressTaken marks functions whose address escapes; only these are
	// legal indirect-call targets.
	AddressTaken bool
	// IsPLT marks synthesized PLT-stub functions.
	IsPLT bool
	// PLTTarget is the loader-bound target address of a PLT stub.
	PLTTarget uint64

	Blocks    []*Block
	CallSites []*CallSite

	// TailTargets lists functions reached from this one via terminal
	// jumps (tail calls), including PLT stub fan-out.
	TailTargets []*Function

	// RetTargets is the set of valid return addresses for this
	// function's RET instructions (call/return matching plus tail-call
	// propagation), sorted ascending.
	RetTargets []uint64
}

// SiteKind classifies indirect-branch instructions for AIA accounting.
type SiteKind uint8

// Indirect site kinds.
const (
	SiteIndCall SiteKind = iota
	SiteIndJmp
	SiteRet
)

func (k SiteKind) String() string {
	switch k {
	case SiteIndCall:
		return "indcall"
	case SiteIndJmp:
		return "indjmp"
	default:
		return "ret"
	}
}

// IndirectSite is one indirect branch instruction with its allowed target
// set — the unit over which AIA (average indirect targets allowed, §4.3)
// is computed.
type IndirectSite struct {
	Addr    uint64
	Kind    SiteKind
	Fn      *Function
	Targets []uint64 // sorted ascending
}

// Graph is the conservative O-CFG over the whole address space.
type Graph struct {
	AS    *module.AddressSpace
	Funcs []*Function
	// Blocks is sorted by start address.
	Blocks []*Block
	// Sites lists every indirect branch instruction.
	Sites []*IndirectSite

	funcAt  map[uint64]*Function
	blockAt map[uint64]*Block
	// ends holds Blocks[i].End at i, so BlockContaining binary-searches
	// one contiguous array instead of loading a *Block per probe.
	ends []uint64
}

// indexEnds builds ends over the sorted Blocks.
func (g *Graph) indexEnds() {
	g.ends = make([]uint64, len(g.Blocks))
	for i, b := range g.Blocks {
		g.ends[i] = b.End
	}
}

// Synthetic assembles a Graph directly from hand- or generator-built
// blocks, bypassing binary analysis: conformance suites use it to drive
// the ITC-CFG machinery over randomized topologies that no real program
// would compile to. Blocks are sorted by start address and indexed; no
// function or site information is derived.
func Synthetic(blocks []*Block) *Graph {
	g := &Graph{
		Blocks:  append([]*Block(nil), blocks...),
		funcAt:  make(map[uint64]*Function),
		blockAt: make(map[uint64]*Block, len(blocks)),
	}
	sort.Slice(g.Blocks, func(i, j int) bool { return g.Blocks[i].Start < g.Blocks[j].Start })
	for _, b := range g.Blocks {
		g.blockAt[b.Start] = b
	}
	g.indexEnds()
	return g
}

// FuncAt returns the function whose entry is addr.
func (g *Graph) FuncAt(addr uint64) (*Function, bool) {
	f, ok := g.funcAt[addr]
	return f, ok
}

// BlockAt returns the block starting at addr.
func (g *Graph) BlockAt(addr uint64) (*Block, bool) {
	b, ok := g.blockAt[addr]
	return b, ok
}

// BlockContaining returns the block covering addr.
func (g *Graph) BlockContaining(addr uint64) (*Block, bool) {
	i := sort.Search(len(g.ends), func(i int) bool { return g.ends[i] > addr })
	if i < len(g.ends) && g.Blocks[i].Start <= addr {
		return g.Blocks[i], true
	}
	return nil, false
}

// Stats summarizes the graph for Table 4 reporting.
type Stats struct {
	// ExecBlocks/LibBlocks count basic blocks in the executable and the
	// libraries (paper Table 4 columns).
	ExecBlocks, LibBlocks int
	// ExecEdges/LibEdges count O-CFG edges by source module.
	ExecEdges, LibEdges int
	// Libraries is the number of loaded libraries (excluding the
	// executable and the VDSO).
	Libraries int
	// AIA is the average indirect targets allowed over all indirect
	// branch sites.
	AIA float64
	// Sites is the number of indirect branch instructions.
	Sites int
}

// ComputeStats derives the Table 4 inputs from the graph.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	for _, l := range g.AS.Mods {
		if l != g.AS.Exec && l != g.AS.VDSO {
			s.Libraries++
		}
	}
	for _, b := range g.Blocks {
		inExec := b.Fn.Mod == g.AS.Exec
		edges := len(b.IndTargets)
		switch b.Kind {
		case TermFall, TermJmp, TermCall, TermSyscall:
			edges++
		case TermCond:
			edges += 2
		}
		if inExec {
			s.ExecBlocks++
			s.ExecEdges += edges
		} else {
			s.LibBlocks++
			s.LibEdges += edges
		}
	}
	s.Sites = len(g.Sites)
	if s.Sites > 0 {
		total := 0
		for _, site := range g.Sites {
			total += len(site.Targets)
		}
		s.AIA = float64(total) / float64(s.Sites)
	}
	return s
}

// ContainsEdge reports whether the O-CFG allows a transfer from the CoFI
// at src to dst. It is the slow path's ground-truth membership test.
func (g *Graph) ContainsEdge(src, dst uint64, class isa.CoFIClass) bool {
	b, ok := g.BlockContaining(src)
	if !ok {
		return false
	}
	switch class {
	case isa.CoFIDirect, isa.CoFIFarTransfer:
		switch b.Kind {
		case TermJmp, TermCall, TermSyscall:
			return b.TermAddr == src && b.Next == dst
		}
		return false
	case isa.CoFICond:
		return b.Kind == TermCond && b.TermAddr == src && (b.Taken == dst || b.Fall == dst)
	case isa.CoFIIndirect, isa.CoFIRet:
		if b.TermAddr != src || !b.HasIndirectTerm() {
			return false
		}
		i := sort.Search(len(b.IndTargets), func(i int) bool { return b.IndTargets[i] >= dst })
		return i < len(b.IndTargets) && b.IndTargets[i] == dst
	}
	return false
}

func (g *Graph) String() string {
	return fmt.Sprintf("O-CFG{funcs=%d blocks=%d sites=%d}", len(g.Funcs), len(g.Blocks), len(g.Sites))
}
