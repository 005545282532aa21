// Package cpu implements the emulator executing the synthetic ISA.
//
// It plays two roles from the paper's infrastructure:
//
//   - the protected machine itself: processes run on this CPU while the
//     IPT model observes retired branches, and
//   - the QEMU user-mode emulator that the AFL-style fuzzer instruments
//     during the dynamic training phase (§4.3) — the fuzzer attaches a
//     coverage sink to the same branch-event stream.
//
// The emulator also charges each retired instruction to a calibrated
// cycle model so experiments can report deterministic overheads next to
// wall-clock measurements (see EXPERIMENTS.md for calibration).
//
// Instructions come from the predecoded code map of their segment, the
// same module.CodeMap the instruction-flow walk steps. Retire executes a
// block at a time — a straight-line run and the stop that ends it —
// checking the map once per block and chaining to the next block while
// the target stays in the same live map, as QEMU chains translation
// blocks. Code the map does not cover (writable segments, misaligned or
// undecodable slots) is fetched and decoded one instruction at a time.
// Step is Retire(1), and Run is Retire with an instruction budget; each
// retires, charges and reports exactly what one instruction at a time
// would.
package cpu

import (
	"errors"
	"fmt"

	"flowguard/internal/isa"
	"flowguard/internal/module"
	"flowguard/internal/trace"
)

// SyscallHandler receives SYSCALL traps. The handler may mutate CPU state
// (registers, PC, even SP — sigreturn does). Returning an error stops the
// CPU; the kernel uses sentinel errors for clean exits and kills.
type SyscallHandler interface {
	Syscall(c *CPU) error
}

// ErrHalted is returned by Run when the program executes HALT.
var ErrHalted = errors.New("cpu: halted")

// Fault wraps a runtime fault (memory, illegal instruction, divide by
// zero) with the faulting PC; the kernel model turns it into SIGSEGV.
type Fault struct {
	PC  uint64
	Err error
}

func (f *Fault) Error() string { return fmt.Sprintf("fault at pc=%#x: %v", f.PC, f.Err) }

// Unwrap exposes the underlying fault cause.
func (f *Fault) Unwrap() error { return f.Err }

// Per-opcode cycle costs of the calibrated model. The base unit is "one
// simple ALU op = 1 cycle"; memory operations and multiplies cost more,
// matching the relative weights used to calibrate Table 1 (EXPERIMENTS.md).
// The table spans every byte value so indexing it by Op needs no bounds
// check.
var opCycles = [256]uint64{
	isa.NOP: 1, isa.HALT: 1, isa.MOV: 1, isa.MOVI: 1, isa.MOVIH: 1,
	isa.LEA: 1, isa.ADD: 1, isa.SUB: 1, isa.MUL: 3, isa.DIV: 20,
	isa.MOD: 20, isa.AND: 1, isa.OR: 1, isa.XOR: 1, isa.SHL: 1,
	isa.SHR: 1, isa.ADDI: 1, isa.CMP: 1, isa.CMPI: 1, isa.LD: 2,
	isa.ST: 2, isa.LDB: 2, isa.STB: 2, isa.PUSH: 2, isa.POP: 2,
	isa.JMP: 1, isa.JCC: 1, isa.CALL: 2, isa.JMPR: 2, isa.CALLR: 3,
	isa.RET: 2, isa.SYSCALL: 50,
}

// CPU is one hardware thread executing an address space.
type CPU struct {
	Regs  [isa.NumRegs]uint64
	PC    uint64
	FlagZ bool
	FlagN bool

	// AS is the process address space the CPU executes in.
	AS *module.AddressSpace
	// Sys handles SYSCALL traps; nil makes SYSCALL fault.
	Sys SyscallHandler
	// Branch, if non-nil, observes every retired CoFI. This is the
	// attachment point of the tracing hardware (IPT/BTS/LBR) and of the
	// fuzzer's coverage instrumentation.
	Branch trace.Sink

	// Instrs counts retired instructions.
	Instrs uint64
	// CycleCount accumulates the calibrated cycle model.
	CycleCount uint64

	// PendingTrap, when set, stops the CPU before the next instruction
	// with that error — the asynchronous-interrupt delivery point (the
	// PMI-triggered kill uses it).
	PendingTrap error

	halted bool
	// code serves instruction fetches from the predecoded code maps and
	// data serves loads, stores and stack operations; both rebind when AS
	// changes.
	code module.FetchCursor
	data module.DataHint
}

// New returns a CPU ready to run the address space from its entry point:
// PC at the executable entry and SP at the top of the stack.
func New(as *module.AddressSpace) *CPU {
	c := &CPU{AS: as}
	c.Reset()
	return c
}

// Reset rewinds registers to the process-start state.
func (c *CPU) Reset() {
	c.Regs = [isa.NumRegs]uint64{}
	c.Regs[isa.SP] = c.AS.InitialSP
	c.PC = c.AS.Exec.CodeBase + c.AS.Exec.Mod.Entry
	c.FlagZ, c.FlagN = false, false
	c.Instrs, c.CycleCount = 0, 0
	c.halted = false
}

// Halted reports whether the CPU has executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// SP returns the stack pointer.
func (c *CPU) SP() uint64 { return c.Regs[isa.SP] }

func (c *CPU) fault(pc uint64, err error) error { return &Fault{PC: pc, Err: err} }

// errDivideByZero is the cause of a DIV or MOD fault.
var errDivideByZero = errors.New("divide by zero")

func (c *CPU) push(v uint64) error {
	sp := c.Regs[isa.SP] - 8
	if err := c.data.WriteU64(c.AS, sp, v); err != nil {
		return err
	}
	c.Regs[isa.SP] = sp
	return nil
}

func (c *CPU) pop() (uint64, error) {
	v, err := c.data.ReadU64(c.AS, c.Regs[isa.SP])
	if err != nil {
		return 0, err
	}
	c.Regs[isa.SP] += 8
	return v, nil
}

func (c *CPU) cond(cc isa.Cond) bool {
	switch cc {
	case isa.EQ:
		return c.FlagZ
	case isa.NE:
		return !c.FlagZ
	case isa.LT:
		return c.FlagN
	case isa.LE:
		return c.FlagN || c.FlagZ
	case isa.GT:
		return !c.FlagN && !c.FlagZ
	case isa.GE:
		return !c.FlagN
	}
	return false
}

func (c *CPU) setFlags(a, b uint64) {
	d := int64(a) - int64(b)
	c.FlagZ = d == 0
	c.FlagN = d < 0
}

func (c *CPU) emit(b trace.Branch) {
	if c.Branch != nil {
		c.Branch.Branch(b)
	}
}

// decode fetches and decodes the instruction at pc where no code map
// holds it, raising the exact fault of an unfetchable or undecodable pc.
func (c *CPU) decode(pc uint64) (isa.Instr, error) {
	raw, err := c.AS.FetchInstr(pc)
	if err != nil {
		return isa.Instr{}, c.fault(pc, err)
	}
	in, err := isa.Decode(raw)
	if err != nil {
		return isa.Instr{}, c.fault(pc, err)
	}
	return in, nil
}

// Step retires one instruction: it is Retire(1) with the count dropped.
func (c *CPU) Step() error {
	_, err := c.Retire(1)
	return err
}

// Retire retires at most n instructions and returns how many of them
// completed without error. It stops early where Step would return an
// error — HALT, a fault, a syscall handler's error or a pending trap —
// and returns that error; the instruction that raised it is not in the
// count. Retire(n) leaves the CPU, its address space and its branch sink
// exactly as n calls of Step stopping at the first error would.
//
// Retire executes a block at a time: the straight-line run at PC and the
// stop that ends it, taken from the slots of PC's code map. It checks
// the map once per block (module.FetchCursor.Live), and chains to the
// next block without a lookup while the next PC stays in the same live
// map; only a PC outside it takes a full cursor lookup. Every
// instruction is still counted and charged one at a time, and a fault
// inside a run leaves PC at the faulting instruction. Code no map serves
// is fetched and decoded one instruction at a time.
func (c *CPU) Retire(n uint64) (uint64, error) {
	// span is the code map of the last block, as the cursor's Span
	// returned it for address space as, and base the address of its
	// slot 0; it is nil after a block the maps do not serve.
	var (
		span    []module.CodeSlot
		base    uint64
		as      *module.AddressSpace
		one     [1]module.CodeSlot
		retired uint64
	)
	r := &c.Regs
blocks:
	for retired < n {
		if c.halted {
			return retired, ErrHalted
		}
		// Only a branch sink sets PendingTrap (the PMI hook), and every
		// instruction that calls a sink or the syscall handler ends its
		// block, so checking before each block stops the CPU before the
		// next instruction.
		if err := c.PendingTrap; err != nil {
			c.PendingTrap = nil
			return retired, err
		}
		pc := c.PC
		var blk []module.CodeSlot
		if off := pc - base; off%isa.InstrSize == 0 && off/isa.InstrSize < uint64(len(span)) &&
			c.AS == as && c.code.Live() {
			// Chained: the block lies in the live map of the last one.
			blk = module.BlockAt(span, off/isa.InstrSize)
		} else if span, base, _ = c.code.Span(c.AS, pc); span != nil {
			as = c.AS
			blk = module.BlockAt(span, (pc-base)/isa.InstrSize)
		}
		if blk == nil {
			in, err := c.decode(pc)
			if err != nil {
				return retired, err
			}
			one[0].Instr = in
			blk = one[:]
		}
		if left := n - retired; uint64(len(blk)) > left {
			blk = blk[:left]
		}
		for i := range blk {
			in := &blk[i].Instr
			c.Instrs++
			c.CycleCount += opCycles[in.Op]
			next := pc + isa.InstrSize
			var err error
			switch in.Op {
			case isa.NOP:
			case isa.HALT:
				c.halted = true
				c.PC = next
				return retired, ErrHalted
			case isa.MOV:
				r[in.Rd] = r[in.Rs]
			case isa.MOVI:
				r[in.Rd] = uint64(int64(in.Imm))
			case isa.MOVIH:
				r[in.Rd] = r[in.Rd]&0xffffffff | uint64(uint32(in.Imm))<<32
			case isa.LEA:
				r[in.Rd] = next + uint64(int64(in.Imm))
			case isa.ADD:
				r[in.Rd] += r[in.Rs]
			case isa.SUB:
				r[in.Rd] -= r[in.Rs]
			case isa.MUL:
				r[in.Rd] *= r[in.Rs]
			case isa.DIV:
				if r[in.Rs] == 0 {
					err = errDivideByZero
					break
				}
				r[in.Rd] /= r[in.Rs]
			case isa.MOD:
				if r[in.Rs] == 0 {
					err = errDivideByZero
					break
				}
				r[in.Rd] %= r[in.Rs]
			case isa.AND:
				r[in.Rd] &= r[in.Rs]
			case isa.OR:
				r[in.Rd] |= r[in.Rs]
			case isa.XOR:
				r[in.Rd] ^= r[in.Rs]
			case isa.SHL:
				r[in.Rd] <<= r[in.Rs] & 63
			case isa.SHR:
				r[in.Rd] >>= r[in.Rs] & 63
			case isa.ADDI:
				r[in.Rd] += uint64(int64(in.Imm))
			case isa.CMP:
				c.setFlags(r[in.Rd], r[in.Rs])
			case isa.CMPI:
				c.setFlags(r[in.Rd], uint64(int64(in.Imm)))
			case isa.LD:
				var v uint64
				if v, err = c.data.ReadU64(c.AS, r[in.Rs]+uint64(int64(in.Imm))); err == nil {
					r[in.Rd] = v
				}
			case isa.ST:
				err = c.data.WriteU64(c.AS, r[in.Rd]+uint64(int64(in.Imm)), r[in.Rs])
			case isa.LDB:
				var v byte
				if v, err = c.data.ReadU8(c.AS, r[in.Rs]+uint64(int64(in.Imm))); err == nil {
					r[in.Rd] = uint64(v)
				}
			case isa.STB:
				err = c.data.WriteU8(c.AS, r[in.Rd]+uint64(int64(in.Imm)), byte(r[in.Rs]))
			case isa.PUSH:
				err = c.push(r[in.Rs])
			case isa.POP:
				var v uint64
				if v, err = c.pop(); err == nil {
					r[in.Rd] = v
				}

			// A change of flow ends its block. PC is the branch's own
			// address while the sink observes it, as it is for every
			// instruction that has not retired yet.
			case isa.JMP:
				next = in.BranchTarget(pc)
				c.PC = pc
				c.emit(trace.Branch{Class: isa.CoFIDirect, Source: pc, Target: next, Taken: true})
			case isa.JCC:
				taken := c.cond(in.Cond())
				if taken {
					next = in.BranchTarget(pc)
				}
				c.PC = pc
				c.emit(trace.Branch{Class: isa.CoFICond, Source: pc, Target: next, Taken: taken})
			case isa.CALL:
				if err = c.push(next); err == nil {
					next = in.BranchTarget(pc)
					c.PC = pc
					c.emit(trace.Branch{Class: isa.CoFIDirect, Source: pc, Target: next, Taken: true})
				}
			case isa.JMPR:
				next = r[in.Rs]
				c.PC = pc
				c.emit(trace.Branch{Class: isa.CoFIIndirect, Source: pc, Target: next, Taken: true})
			case isa.CALLR:
				if err = c.push(next); err == nil {
					next = r[in.Rs]
					c.PC = pc
					c.emit(trace.Branch{Class: isa.CoFIIndirect, Source: pc, Target: next, Taken: true})
				}
			case isa.RET:
				if next, err = c.pop(); err == nil {
					c.PC = pc
					c.emit(trace.Branch{Class: isa.CoFIRet, Source: pc, Target: next, Taken: true})
				}
			case isa.SYSCALL:
				// Far transfer: user-only tracing sees the kernel entry/exit
				// boundary (FUP + TIP pair). PC is advanced first so handlers
				// observe the resume address and may overwrite it (sigreturn).
				c.PC = pc
				c.emit(trace.Branch{Class: isa.CoFIFarTransfer, Source: pc, Target: next, Taken: true})
				c.PC = next
				if c.Sys == nil {
					return retired, c.fault(pc, errors.New("syscall with no handler"))
				}
				if err := c.Sys.Syscall(c); err != nil {
					return retired, err
				}
				retired++
				continue blocks
			default:
				err = fmt.Errorf("unimplemented opcode %v", in.Op)
			}
			if err != nil {
				c.PC = pc
				return retired, c.fault(pc, err)
			}
			pc = next
			retired++
		}
		c.PC = pc
	}
	return retired, nil
}

// Run retires instructions until the program halts, a fault or syscall
// error stops it, or maxInstrs is exceeded (0 means no limit). It returns
// the number of instructions retired in this call.
func (c *CPU) Run(maxInstrs uint64) (uint64, error) {
	start := c.Instrs
	n := maxInstrs
	if n == 0 {
		n = ^uint64(0)
	}
	for {
		if _, err := c.Retire(n); err != nil {
			return c.Instrs - start, err
		}
		if maxInstrs > 0 {
			return c.Instrs - start, fmt.Errorf("cpu: instruction budget %d exhausted", maxInstrs)
		}
	}
}
