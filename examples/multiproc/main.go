// Multiproc: the single-CR3-filter story of §6. Two servers share one
// core (one IPT trace unit); the kernel reprograms the unit's CR3 view
// at each context switch. The filter isolates the protected process's
// trace perfectly — and leaves the sibling entirely uncovered, which is
// why the paper asks for configurable multi-CR3 filtering hardware.
package main

import (
	"fmt"
	"log"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/cfg"
	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

const ctl = ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlToPA

func main() {
	app := apps.Vulnd()

	// Offline phase once (the binaries are shared).
	as, err := app.Load()
	if err != nil {
		log.Fatal(err)
	}
	ocfg, err := cfg.Build(as)
	if err != nil {
		log.Fatal(err)
	}
	ig := itc.FromCFG(ocfg)
	training := []byte("G /index\nG /about\nP 16\n0123456789abcdefH /x\n")
	if err := train(app, ig, training); err != nil {
		log.Fatal(err)
	}

	payload, err := attack.BuildROPWrite(as)
	if err != nil {
		log.Fatal(err)
	}

	for _, scenario := range []struct {
		name         string
		attackTarget int // which worker gets the exploit
	}{
		{"exploit against the PROTECTED worker", 0},
		{"exploit against the UNPROTECTED sibling", 1},
	} {
		k := kernelsim.New()
		inputs := [][]byte{training, training}
		inputs[scenario.attackTarget] = payload
		pA, err := app.Spawn(k, inputs[0])
		if err != nil {
			log.Fatal(err)
		}
		pB, err := app.Spawn(k, inputs[1])
		if err != nil {
			log.Fatal(err)
		}

		// One core: a single trace unit, CR3-filtered to worker A.
		tr := ipt.NewTracer(ipt.NewToPA(16 << 10))
		if err := tr.WriteMSR(ipt.MSRRTITCtl, ctl|ipt.CtlCR3Filter); err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteMSR(ipt.MSRRTITCR3Match, pA.CR3); err != nil {
			log.Fatal(err)
		}
		for _, p := range []*kernelsim.Process{pA, pB} {
			p.CPU.Branch = tr
		}
		k.OnCoreSwitch = func(_ int, p *kernelsim.Process, _ *kernelsim.Thread) { tr.SetCR3(p.CR3) }

		g := guard.New(pA.AS, ocfg, ig, tr, guard.DefaultPolicy())
		for _, sysno := range guard.DefaultEndpoints() {
			k.Intercept(sysno, func(p *kernelsim.Process, sysno uint64) error {
				if p != pA {
					return nil
				}
				if res := g.Check(); res.Verdict == guard.VerdictViolation {
					fmt.Printf("  guard: killed %s at %s: %s\n",
						p.Name, kernelsim.SyscallName(sysno), res.Reason)
					k.Kill(p, kernelsim.SIGKILL)
					return kernelsim.ErrKilled
				}
				return nil
			})
		}

		sts, err := k.RunMulticore([]*kernelsim.Process{pA, pB}, 1, 512, 500_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n  worker A (protected):  %v\n  worker B (sibling):    %v\n",
			scenario.name, sts[0], sts[1])
	}
	fmt.Println("\none CR3 filter covers one process — §6 suggestion 2 asks for more")
}

func train(app *apps.App, ig *itc.Graph, input []byte) error {
	k := kernelsim.New()
	p, err := app.Spawn(k, input)
	if err != nil {
		return err
	}
	tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctl); err != nil {
		return err
	}
	p.CPU.Branch = tr
	if _, err := k.Run(p, 100_000_000); err != nil {
		return err
	}
	tr.Flush()
	evs, err := ipt.DecodeFast(tr.Out.Snapshot())
	if err != nil {
		return err
	}
	ig.ObserveWindow(ipt.ExtractTIPs(evs))
	ig.RebuildCache()
	return nil
}
