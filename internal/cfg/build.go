package cfg

import (
	"fmt"
	"sort"

	"flowguard/internal/isa"
	"flowguard/internal/module"
)

// Build disassembles every loaded module and constructs the conservative
// O-CFG.
func Build(as *module.AddressSpace) (*Graph, error) {
	b := &builder{
		g: &Graph{
			AS:      as,
			funcAt:  make(map[uint64]*Function),
			blockAt: make(map[uint64]*Block),
		},
		instrs: make(map[uint64]isa.Instr),
	}
	if err := b.disassemble(); err != nil {
		return nil, err
	}
	b.discoverFunctions()
	b.markAddressTaken()
	b.buildBlocks()
	// BlockContaining binary-searches the sorted blocks; establish
	// the invariant before the analyses that depend on it.
	sort.Slice(b.g.Blocks, func(i, j int) bool { return b.g.Blocks[i].Start < b.g.Blocks[j].Start })
	b.g.indexEnds()
	b.computeArities()
	b.resolveCallSites()
	b.tailClosure()
	b.propagateReturns()
	b.finalizeSites()
	return b.g, nil
}

type builder struct {
	g      *Graph
	instrs map[uint64]isa.Instr
	// taken marks address-taken function entries.
	taken map[uint64]bool
	// labelTargets maps a function to the interior addresses its code
	// takes with LEA — the computed-goto / switch-lowering targets that
	// bound the function's indirect jumps.
	labelTargets map[*Function][]uint64
}

func (b *builder) disassemble() error {
	for _, l := range b.g.AS.Mods {
		code := l.Mod.Code
		for off := 0; off+isa.InstrSize <= len(code); off += isa.InstrSize {
			in, err := isa.Decode(code[off:])
			if err != nil {
				return fmt.Errorf("cfg: %s+%#x: %w", l.Mod.Name, off, err)
			}
			b.instrs[l.CodeBase+uint64(off)] = in
		}
	}
	return nil
}

func (b *builder) discoverFunctions() {
	for _, l := range b.g.AS.Mods {
		for _, s := range l.Mod.Symbols {
			if s.Kind != module.SymFunc {
				continue
			}
			f := &Function{
				Name:          l.Mod.Name + "!" + s.Name,
				Mod:           l,
				Entry:         l.CodeBase + s.Off,
				End:           l.CodeBase + s.Off + s.Size,
				DeclaredArity: s.ArgCount,
				AddressTaken:  s.AddressTaken,
			}
			b.g.Funcs = append(b.g.Funcs, f)
			b.g.funcAt[f.Entry] = f
		}
		for _, p := range l.Mod.PLT {
			target, ok := b.g.AS.ResolveSymbol(p.Symbol)
			if !ok {
				continue
			}
			f := &Function{
				Name:      l.Mod.Name + "!" + p.Symbol + "@plt",
				Mod:       l,
				Entry:     l.CodeBase + p.Off,
				End:       l.CodeBase + p.Off + 3*isa.InstrSize,
				IsPLT:     true,
				PLTTarget: target,
			}
			b.g.Funcs = append(b.g.Funcs, f)
			b.g.funcAt[f.Entry] = f
		}
	}
	sort.Slice(b.g.Funcs, func(i, j int) bool { return b.g.Funcs[i].Entry < b.g.Funcs[j].Entry })
}

// markAddressTaken combines three escape channels, as a binary analyzer
// would: symbol-table flags (our toolchain's relocation summary), LEA
// instructions whose target is a function entry, and data relocations
// resolving to function symbols (function-pointer tables).
func (b *builder) markAddressTaken() {
	b.taken = make(map[uint64]bool)
	for _, f := range b.g.Funcs {
		if f.AddressTaken {
			b.taken[f.Entry] = true
		}
	}
	for addr, in := range b.instrs {
		if in.Op != isa.LEA {
			continue
		}
		t := addr + isa.InstrSize + uint64(int64(in.Imm))
		if f, ok := b.g.funcAt[t]; ok && !f.IsPLT {
			b.taken[f.Entry] = true
			f.AddressTaken = true
		}
	}
	for _, l := range b.g.AS.Mods {
		for _, r := range l.Mod.Relocs {
			addr, ok := l.SymbolAddr(r.Symbol)
			if !ok {
				addr, ok = b.g.AS.ResolveSymbol(r.Symbol)
			}
			if !ok {
				continue
			}
			if f, fok := b.g.funcAt[addr]; fok && !f.IsPLT {
				b.taken[f.Entry] = true
				f.AddressTaken = true
			}
		}
		// GOT-bound functions: the loader writes their absolute address
		// into the GOT, from where any code can load it (AddrOf on an
		// imported symbol compiles to a GOT load). As in real binary
		// CFI, every dynamically-bound function must conservatively be
		// treated as address-taken.
		for _, p := range l.Mod.PLT {
			addr, ok := b.g.AS.ResolveSymbol(p.Symbol)
			if !ok {
				continue
			}
			if f, fok := b.g.funcAt[addr]; fok && !f.IsPLT {
				b.taken[f.Entry] = true
				f.AddressTaken = true
			}
		}
	}
}

func (b *builder) buildBlocks() {
	b.labelTargets = make(map[*Function][]uint64)
	for _, f := range b.g.Funcs {
		b.buildFunctionBlocks(f)
	}
}

func (b *builder) buildFunctionBlocks(f *Function) {
	leaders := map[uint64]bool{f.Entry: true}
	for a := f.Entry; a < f.End; a += isa.InstrSize {
		in := b.instrs[a]
		if in.Op == isa.LEA {
			// An address-taken interior label (computed goto): it is a
			// potential indirect-jump target, hence a block leader.
			t := a + isa.InstrSize + uint64(int64(in.Imm))
			if t > f.Entry && t < f.End {
				leaders[t] = true
				b.labelTargets[f] = append(b.labelTargets[f], t)
			}
			continue
		}
		if !in.Op.IsCoFI() {
			continue
		}
		if a+isa.InstrSize < f.End {
			leaders[a+isa.InstrSize] = true
		}
		switch in.Op {
		case isa.JMP, isa.JCC, isa.CALL:
			t := in.BranchTarget(a)
			if t >= f.Entry && t < f.End {
				leaders[t] = true
			}
		}
	}
	starts := make([]uint64, 0, len(leaders))
	for a := range leaders {
		starts = append(starts, a)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	for i, start := range starts {
		limit := f.End
		if i+1 < len(starts) {
			limit = starts[i+1]
		}
		blk := &Block{Start: start, Fn: f}
		end := start
		for a := start; a < limit; a += isa.InstrSize {
			end = a + isa.InstrSize
			in := b.instrs[a]
			if !in.Op.IsCoFI() && in.Op != isa.HALT {
				continue
			}
			blk.TermAddr = a
			next := a + isa.InstrSize
			switch in.Op {
			case isa.JMP:
				blk.Kind = TermJmp
				blk.Next = in.BranchTarget(a)
			case isa.JCC:
				blk.Kind = TermCond
				blk.Taken = in.BranchTarget(a)
				blk.Fall = next
			case isa.CALL:
				blk.Kind = TermCall
				blk.Next = in.BranchTarget(a)
				f.CallSites = append(f.CallSites, &CallSite{Addr: a, RetAddr: next})
			case isa.CALLR:
				blk.Kind = TermIndCall
				f.CallSites = append(f.CallSites, &CallSite{Addr: a, RetAddr: next, Prepared: -1})
			case isa.JMPR:
				blk.Kind = TermIndJmp
			case isa.RET:
				blk.Kind = TermRet
			case isa.SYSCALL:
				blk.Kind = TermSyscall
				blk.Next = next
			case isa.HALT:
				blk.Kind = TermHalt
			}
			break
		}
		blk.End = end
		if blk.TermAddr == 0 && blk.Kind == TermFall {
			// No terminator before the next leader: plain fall-through.
			blk.End = limit
			if limit < f.End {
				blk.Next = limit
			} else {
				// Running off the end of the function: dead end.
				blk.Kind = TermHalt
			}
		}
		f.Blocks = append(f.Blocks, blk)
		b.g.Blocks = append(b.g.Blocks, blk)
		b.g.blockAt[blk.Start] = blk
	}
}

// regReads returns the register-read set of an instruction as a bitmask.
func regReads(in isa.Instr) uint16 {
	rd, rs := uint16(1)<<in.Rd, uint16(1)<<in.Rs
	switch in.Op {
	case isa.MOV, isa.LD, isa.LDB:
		return rs
	case isa.MOVIH, isa.ADDI:
		return rd
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.CMP, isa.ST, isa.STB:
		return rd | rs
	case isa.CMPI:
		return rd
	case isa.PUSH, isa.JMPR, isa.CALLR:
		return rs
	}
	return 0
}

// regWrites returns the register-write set of an instruction as a bitmask.
func regWrites(in isa.Instr) uint16 {
	switch in.Op {
	case isa.MOV, isa.MOVI, isa.MOVIH, isa.LEA, isa.ADD, isa.SUB, isa.MUL,
		isa.DIV, isa.MOD, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.ADDI, isa.LD, isa.LDB, isa.POP:
		return 1 << in.Rd
	}
	return 0
}

const argMask = 1<<isa.NumArgRegs - 1

// computeArities runs the TypeArmor-style callee-side analysis: a
// backward liveness fixpoint over each function's intra-procedural blocks
// determines which argument registers are read before being written.
// Calls act as barriers (reads past a call may observe return values, not
// arguments), which can only under-estimate the consumed count — the safe
// direction for target-set construction.
func (b *builder) computeArities() {
	for _, f := range b.g.Funcs {
		if f.IsPLT {
			f.Arity = isa.NumArgRegs // stubs forward everything
			continue
		}
		f.Arity = b.calleeArity(f)
	}
}

func (b *builder) calleeArity(f *Function) int {
	type flow struct{ gen, kill uint16 }
	flows := make(map[*Block]flow, len(f.Blocks))
	for _, blk := range f.Blocks {
		var fl flow
		for a := blk.Start; a < blk.End; a += isa.InstrSize {
			in := b.instrs[a]
			if in.Op == isa.CALL || in.Op == isa.CALLR {
				// Barrier: everything after the call is invisible, and
				// the call's own target read (CALLR Rs) is not an
				// argument use.
				fl.kill = argMask
				break
			}
			fl.gen |= regReads(in) &^ fl.kill & argMask
			fl.kill |= regWrites(in) & argMask
		}
		flows[blk] = fl
	}
	liveIn := make(map[*Block]uint16, len(f.Blocks))
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			blk := f.Blocks[i]
			var out uint16
			var succs []uint64
			succs = blk.DirectSuccs(succs)
			for _, s := range succs {
				if sb, ok := b.g.blockAt[s]; ok && sb.Fn == f {
					out |= liveIn[sb]
				}
			}
			fl := flows[blk]
			in := fl.gen | out&^fl.kill
			if in != liveIn[blk] {
				liveIn[blk] = in
				changed = true
			}
		}
	}
	entry, ok := b.g.blockAt[f.Entry]
	if !ok {
		return 0
	}
	live := liveIn[entry] & argMask
	arity := 0
	for i := 0; i < isa.NumArgRegs; i++ {
		if live&(1<<i) != 0 {
			arity = i + 1
		}
	}
	return arity
}

// sitePrepared over-approximates the argument registers materialized at
// an indirect call site: the TypeArmor caller-side analysis. The
// toolchain invariant (arguments are set up in the call's own basic
// block, with pass-through wrappers forwarding their own arguments)
// bounds the scan to the block prefix plus the enclosing function's
// consumed arguments.
func (b *builder) sitePrepared(f *Function, blk *Block, callAddr uint64) int {
	var written uint16
	for a := blk.Start; a < callAddr; a += isa.InstrSize {
		in := b.instrs[a]
		if in.Op == isa.CALL || in.Op == isa.CALLR {
			// A preceding call clobbers the pending argument window:
			// restart (its return value in R0 may itself be an arg).
			written = 1 << 0 // R0 holds the return value
			continue
		}
		written |= regWrites(in) & argMask
	}
	prepared := 0
	for i := 0; i < isa.NumArgRegs; i++ {
		if written&(1<<i) != 0 {
			prepared = i + 1
		}
	}
	if f.Arity > prepared {
		// Pass-through: the caller's own live arguments remain valid.
		prepared = f.Arity
	}
	return prepared
}

// resolveCallSites fills direct callees, indirect target sets (arity
// filtered over address-taken functions) and the Prepared counts.
func (b *builder) resolveCallSites() {
	var takenFuncs []*Function
	for _, f := range b.g.Funcs {
		if f.AddressTaken && !f.IsPLT {
			takenFuncs = append(takenFuncs, f)
		}
	}
	for _, f := range b.g.Funcs {
		for _, cs := range f.CallSites {
			blk, ok := b.g.BlockContaining(cs.Addr)
			if !ok {
				continue
			}
			if blk.Kind == TermCall {
				cs.Callee = b.g.funcAt[blk.Next]
				continue
			}
			cs.Prepared = b.sitePrepared(f, blk, cs.Addr)
			for _, tf := range takenFuncs {
				if tf.Arity <= cs.Prepared {
					cs.Targets = append(cs.Targets, tf)
				}
			}
		}
	}
}

// tailClosure detects tail calls (paper §4.1): terminal direct jumps to
// other function entries and PLT-stub indirect jumps, closed
// transitively, so returns of the tail callee can be connected to the
// original caller's return address.
func (b *builder) tailClosure() {
	direct := make(map[*Function][]*Function)
	for _, f := range b.g.Funcs {
		if f.IsPLT {
			if tf, ok := b.g.funcAt[f.PLTTarget]; ok {
				direct[f] = append(direct[f], tf)
			}
			continue
		}
		for _, blk := range f.Blocks {
			switch blk.Kind {
			case TermJmp:
				if tf, ok := b.g.funcAt[blk.Next]; ok && tf != f {
					direct[f] = append(direct[f], tf)
				}
			case TermIndJmp:
				if len(b.labelTargets[f]) > 0 {
					// Computed goto within the function: not a tail call.
					continue
				}
				// A non-PLT indirect jump may tail-call any address-taken
				// function (conservative).
				for _, tf := range b.g.Funcs {
					if tf.AddressTaken && !tf.IsPLT {
						direct[f] = append(direct[f], tf)
					}
				}
			}
		}
	}
	for _, f := range b.g.Funcs {
		seen := map[*Function]bool{f: true}
		stack := append([]*Function(nil), direct[f]...)
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[t] {
				continue
			}
			seen[t] = true
			f.TailTargets = append(f.TailTargets, t)
			stack = append(stack, direct[t]...)
		}
	}
}

// propagateReturns performs call/return matching: for every call site,
// the return address becomes a valid RET target of the callee and of
// every function the callee can tail-jump to.
func (b *builder) propagateReturns() {
	ret := make(map[*Function]map[uint64]bool)
	add := func(f *Function, addr uint64) {
		if ret[f] == nil {
			ret[f] = make(map[uint64]bool)
		}
		ret[f][addr] = true
	}
	addClosure := func(callee *Function, addr uint64) {
		add(callee, addr)
		for _, t := range callee.TailTargets {
			add(t, addr)
		}
	}
	for _, f := range b.g.Funcs {
		for _, cs := range f.CallSites {
			if cs.Callee != nil {
				addClosure(cs.Callee, cs.RetAddr)
				continue
			}
			for _, t := range cs.Targets {
				addClosure(t, cs.RetAddr)
			}
		}
	}
	for _, f := range b.g.Funcs {
		targets := make([]uint64, 0, len(ret[f]))
		for a := range ret[f] {
			targets = append(targets, a)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		f.RetTargets = targets
	}
}

// finalizeSites writes each indirect block's target set and the AIA site
// list. Return addresses and indirect targets become block leaders by
// construction (the instruction after any CoFI is a leader; indirect
// call/jmp targets are function entries).
func (b *builder) finalizeSites() {
	for _, f := range b.g.Funcs {
		siteTargets := make(map[uint64][]uint64)
		for _, cs := range f.CallSites {
			if !cs.Indirect() {
				continue
			}
			ts := make([]uint64, 0, len(cs.Targets))
			for _, t := range cs.Targets {
				ts = append(ts, t.Entry)
			}
			siteTargets[cs.Addr] = ts
		}
		for _, blk := range f.Blocks {
			switch blk.Kind {
			case TermIndCall:
				blk.IndTargets = sortedUnique(siteTargets[blk.TermAddr])
				b.g.Sites = append(b.g.Sites, &IndirectSite{
					Addr: blk.TermAddr, Kind: SiteIndCall, Fn: f, Targets: blk.IndTargets,
				})
			case TermIndJmp:
				var ts []uint64
				switch {
				case f.IsPLT:
					ts = []uint64{f.PLTTarget}
				case len(b.labelTargets[f]) > 0:
					// Computed goto: the jump is bounded by the labels
					// whose addresses the function takes (plus tail-call
					// fan-out if the function also escapes addresses of
					// other functions — covered by the general case when
					// no interior labels exist).
					ts = append(ts, b.labelTargets[f]...)
				default:
					for _, tf := range b.g.Funcs {
						if tf.AddressTaken && !tf.IsPLT {
							ts = append(ts, tf.Entry)
						}
					}
				}
				blk.IndTargets = sortedUnique(ts)
				b.g.Sites = append(b.g.Sites, &IndirectSite{
					Addr: blk.TermAddr, Kind: SiteIndJmp, Fn: f, Targets: blk.IndTargets,
				})
			case TermRet:
				blk.IndTargets = f.RetTargets
				b.g.Sites = append(b.g.Sites, &IndirectSite{
					Addr: blk.TermAddr, Kind: SiteRet, Fn: f, Targets: blk.IndTargets,
				})
			}
		}
	}
	sort.Slice(b.g.Sites, func(i, j int) bool { return b.g.Sites[i].Addr < b.g.Sites[j].Addr })
}

func sortedUnique(ts []uint64) []uint64 {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := ts[:0]
	var last uint64
	for i, t := range ts {
		if i == 0 || t != last {
			out = append(out, t)
		}
		last = t
	}
	return out
}
