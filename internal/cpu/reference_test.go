package cpu

import (
	"errors"
	"fmt"

	"flowguard/internal/isa"
	"flowguard/internal/trace"
)

// StepReference is the per-instruction step as it was before the CPU
// ran from the code maps: every instruction is fetched through
// AddressSpace.FetchInstr and decoded with isa.Decode, and every load,
// store, push and pop goes through the address space's accessors. The
// differential tests run it in lockstep with Step.
func (c *CPU) StepReference() error {
	if c.halted {
		return ErrHalted
	}
	if c.PendingTrap != nil {
		err := c.PendingTrap
		c.PendingTrap = nil
		return err
	}
	pc := c.PC
	raw, err := c.AS.FetchInstr(pc)
	if err != nil {
		return c.fault(pc, err)
	}
	in, err := isa.Decode(raw)
	if err != nil {
		return c.fault(pc, err)
	}
	c.Instrs++
	c.CycleCount += opCycles[in.Op]
	next := pc + isa.InstrSize
	r := &c.Regs

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		c.halted = true
		c.PC = next
		return ErrHalted
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
			return c.fault(pc, errors.New("divide by zero"))
		}
		r[in.Rd] /= r[in.Rs]
	case isa.MOD:
		if r[in.Rs] == 0 {
			return c.fault(pc, errors.New("divide by zero"))
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
		v, err := c.AS.ReadU64(r[in.Rs] + uint64(int64(in.Imm)))
		if err != nil {
			return c.fault(pc, err)
		}
		r[in.Rd] = v
	case isa.ST:
		if err := c.AS.WriteU64(r[in.Rd]+uint64(int64(in.Imm)), r[in.Rs]); err != nil {
			return c.fault(pc, err)
		}
	case isa.LDB:
		v, err := c.AS.ReadU8(r[in.Rs] + uint64(int64(in.Imm)))
		if err != nil {
			return c.fault(pc, err)
		}
		r[in.Rd] = uint64(v)
	case isa.STB:
		if err := c.AS.WriteU8(r[in.Rd]+uint64(int64(in.Imm)), byte(r[in.Rs])); err != nil {
			return c.fault(pc, err)
		}
	case isa.PUSH:
		if err := c.pushReference(pc, r[in.Rs]); err != nil {
			return err
		}
	case isa.POP:
		v, err := c.popReference(pc)
		if err != nil {
			return err
		}
		r[in.Rd] = v

	case isa.JMP:
		t := in.BranchTarget(pc)
		c.emit(trace.Branch{Class: isa.CoFIDirect, Source: pc, Target: t, Taken: true})
		c.PC = t
		return nil
	case isa.JCC:
		taken := c.cond(in.Cond())
		t := next
		if taken {
			t = in.BranchTarget(pc)
		}
		c.emit(trace.Branch{Class: isa.CoFICond, Source: pc, Target: t, Taken: taken})
		c.PC = t
		return nil
	case isa.CALL:
		if err := c.pushReference(pc, next); err != nil {
			return err
		}
		t := in.BranchTarget(pc)
		c.emit(trace.Branch{Class: isa.CoFIDirect, Source: pc, Target: t, Taken: true})
		c.PC = t
		return nil
	case isa.JMPR:
		t := r[in.Rs]
		c.emit(trace.Branch{Class: isa.CoFIIndirect, Source: pc, Target: t, Taken: true})
		c.PC = t
		return nil
	case isa.CALLR:
		if err := c.pushReference(pc, next); err != nil {
			return err
		}
		t := r[in.Rs]
		c.emit(trace.Branch{Class: isa.CoFIIndirect, Source: pc, Target: t, Taken: true})
		c.PC = t
		return nil
	case isa.RET:
		t, err := c.popReference(pc)
		if err != nil {
			return err
		}
		c.emit(trace.Branch{Class: isa.CoFIRet, Source: pc, Target: t, Taken: true})
		c.PC = t
		return nil
	case isa.SYSCALL:
		// Far transfer: user-only tracing sees the kernel entry/exit
		// boundary (FUP + TIP pair). PC is advanced first so handlers
		// observe the resume address and may overwrite it (sigreturn).
		c.emit(trace.Branch{Class: isa.CoFIFarTransfer, Source: pc, Target: next, Taken: true})
		c.PC = next
		if c.Sys == nil {
			return c.fault(pc, errors.New("syscall with no handler"))
		}
		return c.Sys.Syscall(c)
	default:
		return c.fault(pc, fmt.Errorf("unimplemented opcode %v", in.Op))
	}

	c.PC = next
	return nil
}

func (c *CPU) pushReference(pc, v uint64) error {
	sp := c.Regs[isa.SP] - 8
	if err := c.AS.WriteU64(sp, v); err != nil {
		return c.fault(pc, err)
	}
	c.Regs[isa.SP] = sp
	return nil
}

func (c *CPU) popReference(pc uint64) (uint64, error) {
	v, err := c.AS.ReadU64(c.Regs[isa.SP])
	if err != nil {
		return 0, c.fault(pc, err)
	}
	c.Regs[isa.SP] += 8
	return v, nil
}
