package guard_test

// The slow path's verdict on direct and conditional edges the O-CFG
// lacks: code rewritten through Mprotect after the O-CFG was built,
// which the chain lane's checker rejects and the walk hands to the slow
// path's edge check.

import (
	"slices"
	"testing"

	"flowguard/internal/asm"
	"flowguard/internal/cfg"
	"flowguard/internal/guard"
	"flowguard/internal/isa"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/oracle"
	"flowguard/internal/trace/ipt"
)

// rewriteApp writes a banner a few times (TIP history), then jumps over
// one NOP and takes a conditional branch over another, and writes once
// more before it exits.
func rewriteApp(t *testing.T) *module.Module {
	t.Helper()
	b := asm.NewModule("rewrite").Needs("libc")
	b.DataBytes("banner", []byte("hi\n"), false)
	main := b.Func("main", 0, true)
	b.SetEntry("main")
	main.Prologue(16)
	for range 4 {
		main.AddrOf(r0, "banner")
		main.Movi(r1, 3)
		main.Call("write_out")
	}
	main.Jmp("a")
	main.Nop()
	main.Label("a")
	main.Nop().Nop()
	main.Movi(r5, 1)
	main.Cmpi(r5, 1)
	main.Jcc(isa.EQ, "b")
	main.Nop()
	main.Label("b")
	main.Nop().Nop()
	main.AddrOf(r0, "banner")
	main.Movi(r1, 3)
	main.Call("write_out")
	main.Movi(r0, 0)
	main.Call("exit")
	main.Halt()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// retarget moves the branch target of every instruction with one of ops
// in main one slot further, through Mprotect: RX -> RW, rewrite, RX.
func retarget(t *testing.T, as *module.AddressSpace, ops ...isa.Op) {
	t.Helper()
	pc, ok := as.Exec.SymbolAddr("main")
	if !ok {
		t.Fatal("no main")
	}
	var patched []isa.Instr
	var at []uint64
	for ; ; pc += isa.InstrSize {
		raw, err := as.FetchInstr(pc)
		if err != nil {
			t.Fatal(err)
		}
		in, err := isa.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == isa.HALT {
			break
		}
		if slices.Contains(ops, in.Op) {
			in.Imm += isa.InstrSize
			patched, at = append(patched, in), append(at, pc)
		}
	}
	if err := as.Mprotect(pc, module.PermR|module.PermW); err != nil {
		t.Fatal(err)
	}
	for i, in := range patched {
		if err := as.WriteBytes(at[i], in.EncodeTo(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Mprotect(pc, module.PermR|module.PermX); err != nil {
		t.Fatal(err)
	}
}

// TestSlowPathRejectsRewrittenDirectEdges: a JMP and a JCC rewritten
// after cfg.Build land one instruction past the targets the O-CFG holds.
// Over untrained labels every check takes the slow path; the one whose
// window holds the rewritten branches must be a violation naming the
// first of them, with the reason the slow path has always given, and
// the reference oracle must agree with every verdict.
func TestSlowPathRejectsRewrittenDirectEdges(t *testing.T) {
	exec, libs := rewriteApp(t), map[string]*module.Module{"libc": libcFor(t)}
	for _, tc := range []struct {
		name   string
		ops    []isa.Op
		reason string
	}{
		{"jmp+jcc", []isa.Op{isa.JMP, isa.JCC},
			"slow path: O-CFG mismatch: direct rewrite!main+0x98 -> rewrite!main+0xb0"},
		{"jcc", []isa.Op{isa.JCC},
			"slow path: O-CFG mismatch: cond rewrite!main+0xc8 -> rewrite!main+0xe0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := kernelsim.New()
			p, err := k.Spawn("rewrite", exec, libs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ocfg, err := cfg.Build(p.AS)
			if err != nil {
				t.Fatal(err)
			}
			retarget(t, p.AS, tc.ops...)

			tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
			if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
				t.Fatal(err)
			}
			p.CPU.Branch = tr
			pol := guard.DefaultPolicy()
			g := guard.New(p.AS, ocfg, itc.FromCFG(ocfg), tr, pol)
			o := oracle.New(p.AS, ocfg, oracle.NewRef(ocfg), tr.Out, oracle.Policy{
				PktCount: pol.PktCount, CredRatio: pol.CredRatio, RequireModuleStride: pol.RequireModuleStride,
			})
			var last guard.Result
			slow := 0
			k.Intercept(kernelsim.SysWrite, func(*kernelsim.Process, uint64) error {
				last = g.Check()
				ores := o.Check()
				if uint8(last.Verdict) != uint8(ores.Verdict) || last.UsedSlowPath != ores.UsedSlowPath {
					t.Errorf("guard %v (slow %v, %s), oracle %v (slow %v, %s)", last.Verdict, last.UsedSlowPath,
						last.Reason, ores.Verdict, ores.UsedSlowPath, ores.Reason)
				}
				if last.UsedSlowPath {
					slow++
				}
				if last.Verdict == guard.VerdictViolation {
					k.Kill(p, kernelsim.SIGKILL)
					return kernelsim.ErrKilled
				}
				return nil
			})
			st, err := k.Run(p, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Killed || last.Verdict != guard.VerdictViolation {
				t.Fatalf("rewritten branches not killed: %v, last check %v", st, last.Verdict)
			}
			if slow < 2 {
				t.Fatalf("%d checks took the slow path, want the clean ones before the rewrite too", slow)
			}
			if last.Reason != tc.reason {
				t.Fatalf("reason %q, want %q", last.Reason, tc.reason)
			}
		})
	}
}
