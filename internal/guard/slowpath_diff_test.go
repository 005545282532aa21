package guard

// Differential test of the slow path against the event-list slow path
// it replaced: eventSlowCheck decodes the whole region into events first
// (ipt.DecodeFast), fails on any grammar error before walking, and walks
// the events instruction by instruction with a cursor of its own. The
// production slowCheck pulls packets straight from the region bytes; the
// two must agree on every Result field the slow path writes and on the
// approvals it leaves behind.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/isa"
	"flowguard/internal/itc"
	"flowguard/internal/module"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

var (
	errEvExhausted = errors.New("trace data exhausted")
	errEvDesync    = errors.New("decoder desynchronized")
)

// evCursor serves TNT outcomes and IP packets from an event list in
// stream order, stepping over synchronization-only events.
type evCursor struct {
	evs    []ipt.Event
	i, bit int // bit: the next outcome of evs[i] when it is a TNT packet
}

// settle moves the cursor to the first event at or after it that is not
// synchronization-only: a TNT packet with outcomes left, or any other
// packet but PAD, PIP, PSBEND, MODE, PSB and a PSB+ context FUP.
func (c *evCursor) settle() {
	for ; c.i < len(c.evs); c.i, c.bit = c.i+1, 0 {
		switch e := &c.evs[c.i]; e.Kind {
		case ipt.KindPAD, ipt.KindPIP, ipt.KindPSBEND, ipt.KindMODE, ipt.KindPSB:
		case ipt.KindFUP:
			if !e.Ctx {
				return
			}
		case ipt.KindTNT:
			if c.bit < e.TNTCount {
				return
			}
		default:
			return
		}
	}
}

// pop returns the current event if it is of kind want, consuming it
// unless it is a TNT packet (whose outcomes tnt pops).
func (c *evCursor) pop(want ipt.Kind) (*ipt.Event, error) {
	c.settle()
	if c.i >= len(c.evs) {
		return nil, errEvExhausted
	}
	e := &c.evs[c.i]
	if e.Kind != want {
		return nil, errEvDesync
	}
	if want != ipt.KindTNT {
		c.i, c.bit = c.i+1, 0
	}
	return e, nil
}

// tnt pops the oldest pending conditional outcome.
func (c *evCursor) tnt() (bool, error) {
	e, err := c.pop(ipt.KindTNT)
	if err != nil {
		return false, err
	}
	c.bit++
	return e.TNTBits&(1<<(c.bit-1)) != 0, nil
}

// async consumes an asynchronous FUP+TIP pair whose FUP is at ip and
// returns the TIP target; otherwise it leaves the cursor as it was.
func (c *evCursor) async(ip uint64) (uint64, bool) {
	save := *c
	if fup, err := c.pop(ipt.KindFUP); err == nil && fup.IP == ip {
		if tip, err := c.pop(ipt.KindTIP); err == nil {
			return tip.IP, true
		}
	}
	*c = save
	return 0, false
}

// seekPSB moves past the next PSB's context FUP, found before its
// PSBEND, and returns the FUP's IP.
func (c *evCursor) seekPSB() (uint64, bool) {
	psb := false
	for ; c.i < len(c.evs); c.i++ {
		switch e := &c.evs[c.i]; e.Kind {
		case ipt.KindPSB:
			psb = true
		case ipt.KindPSBEND:
			psb = false
		case ipt.KindFUP:
			if psb {
				c.i, c.bit = c.i+1, 0
				return e.IP, true
			}
		}
	}
	return 0, false
}

// evEdge is one edge of the event walk, with the opcode that made it and
// the number of resynchronizations before it.
type evEdge struct {
	trace.Branch
	op      isa.Op
	resyncs int
}

// eventWalk reconstructs the flow over evs one instruction at a time,
// fetching and decoding each through the address space.
func eventWalk(as *module.AddressSpace, evs []ipt.Event) (edges []evEdge, instrs uint64, err error) {
	c := &evCursor{evs: evs}
	ip, ok := c.seekPSB()
	if !ok {
		return nil, 0, ipt.ErrNoSync
	}
	resyncs := 0
	resync := func() bool {
		nip, ok := c.seekPSB()
		if ok {
			ip = nip
			resyncs++
		}
		return ok
	}
	edge := func(class isa.CoFIClass, op isa.Op, target uint64, taken bool) {
		edges = append(edges, evEdge{trace.Branch{Class: class, Source: ip, Target: target, Taken: taken}, op, resyncs})
		ip = target
	}
	for {
		if t, ok := c.async(ip); ok {
			ip = t
			continue
		}
		raw, err := as.FetchInstr(ip)
		if err != nil {
			return edges, instrs, fmt.Errorf("ipt: flow reconstruction fetch at %#x: %w", ip, err)
		}
		in, err := isa.Decode(raw)
		if err != nil {
			return edges, instrs, fmt.Errorf("ipt: flow reconstruction decode at %#x: %w", ip, err)
		}
		instrs++
		switch in.Op {
		case isa.JMP, isa.CALL:
			edge(isa.CoFIDirect, in.Op, in.BranchTarget(ip), true)
		case isa.JCC:
			taken, err := c.tnt()
			if err == errEvDesync && resync() {
				continue
			} else if err != nil {
				return edges, instrs, nil
			}
			t := ip + isa.InstrSize
			if taken {
				t = in.BranchTarget(ip)
			}
			edge(isa.CoFICond, in.Op, t, taken)
		case isa.JMPR, isa.CALLR, isa.RET:
			tip, err := c.pop(ipt.KindTIP)
			if err == errEvDesync && resync() {
				continue
			} else if err != nil {
				return edges, instrs, nil
			}
			class := isa.CoFIIndirect
			if in.Op == isa.RET {
				class = isa.CoFIRet
			}
			edge(class, in.Op, tip.IP, true)
		case isa.SYSCALL:
			if _, err := c.pop(ipt.KindFUP); err == errEvDesync && resync() {
				continue
			} else if err != nil {
				return edges, instrs, nil
			}
			if _, err := c.pop(ipt.KindTIPPGD); err != nil {
				return edges, instrs, nil
			}
			pge, err := c.pop(ipt.KindTIPPGE)
			if err != nil {
				return edges, instrs, nil
			}
			edge(isa.CoFIFarTransfer, in.Op, pge.IP, true)
		case isa.HALT:
			return edges, instrs, nil
		default:
			ip += isa.InstrSize
		}
	}
}

// eventSlowCheck is the slow path as it ran over a materialized event
// list: slowCheck's verdict rules and approval step over eventWalk.
func eventSlowCheck(g *Guard, res *Result, tips []ipt.TIPRecord, region []byte) {
	res.UsedSlowPath = true
	if len(region) == 0 {
		return
	}
	evs, err := ipt.DecodeFast(region)
	var edges []evEdge
	var instrs uint64
	if err == nil {
		edges, instrs, err = eventWalk(g.AS, evs)
		res.SlowCycles += instrs * ipt.CyclesPerDecodedInstr
	}
	if err != nil {
		res.Verdict = VerdictViolation
		res.Reason = fmt.Sprintf("slow path: flow reconstruction failed: %v", err)
		return
	}
	var shadow []uint64
	resyncs := 0
	for _, e := range edges {
		if e.resyncs != resyncs {
			shadow, resyncs = shadow[:0], e.resyncs
		}
		if !g.OCFG.ContainsEdge(e.Source, e.Target, e.Class) {
			res.Verdict = VerdictViolation
			res.Reason = fmt.Sprintf("slow path: O-CFG mismatch: %v %s -> %s",
				e.Class, g.AS.SymbolFor(e.Source), g.AS.SymbolFor(e.Target))
			return
		}
		switch e.op {
		case isa.CALL, isa.CALLR:
			shadow = append(shadow, e.Source+isa.InstrSize)
		case isa.RET:
			if len(shadow) == 0 {
				continue
			}
			want := shadow[len(shadow)-1]
			shadow = shadow[:len(shadow)-1]
			if e.Target != want {
				res.Verdict = VerdictViolation
				res.Reason = fmt.Sprintf("slow path: shadow stack: ret %s -> %s, want %s",
					g.AS.SymbolFor(e.Source), g.AS.SymbolFor(e.Target), g.AS.SymbolFor(want))
				return
			}
		case isa.SYSCALL:
			if e.Target != e.Source+isa.InstrSize {
				res.Verdict = VerdictViolation
				res.Reason = fmt.Sprintf("slow path: far transfer resumed at %s", g.AS.SymbolFor(e.Target))
				return
			}
		}
	}
	for i := 0; i+1 < len(tips); i++ {
		if tips[i].Async || tips[i+1].Resync || tips[i+1].Async {
			continue
		}
		src, dst, sig := tips[i].IP, tips[i+1].IP, tips[i+1].TNTSig
		l := g.art.Lookup(src, dst, sig)
		if l.Exists && !(l.HighCredit && l.SigMatch) {
			g.appr.ApproveEdge(edgeKey{src, dst, sig})
		}
		if g.Policy.PathSensitive && i+2 < len(tips) && !tips[i+2].Resync && !tips[i+2].Async {
			g.appr.ApprovePath(itc.PathKey(src, dst, tips[i+2].IP))
		}
	}
}

// approvals returns the edges and paths c holds.
func approvals(c *ApprovalCache) (edges map[edgeKey]struct{}, paths map[uint64]struct{}) {
	edges, paths = map[edgeKey]struct{}{}, map[uint64]struct{}{}
	for i := range c.stripes {
		maps.Copy(edges, c.stripes[i].edges)
		maps.Copy(paths, c.stripes[i].paths)
	}
	return edges, paths
}

// checkSlowMatchesEventPath runs slowCheck and eventSlowCheck over one
// region, each into an empty approval cache, and fails unless they agree
// on the Result and the approvals. It returns the Result.
func checkSlowMatchesEventPath(t testing.TB, g *Guard, name string, tips []ipt.TIPRecord, region []byte) Result {
	t.Helper()
	saved := g.appr
	defer func() { g.appr = saved }()
	var got, want Result
	g.appr = NewApprovalCache()
	g.slowCheck(&got, nil, tips, region, 0)
	gotEdges, gotPaths := approvals(g.appr)
	g.appr = NewApprovalCache()
	eventSlowCheck(g, &want, tips, region)
	wantEdges, wantPaths := approvals(g.appr)
	if got.Verdict != want.Verdict || got.Reason != want.Reason ||
		got.SlowCycles != want.SlowCycles || got.UsedSlowPath != want.UsedSlowPath {
		t.Fatalf("%s (%d bytes): slowCheck gave %v %q cycles=%d used=%v; the event path %v %q cycles=%d used=%v",
			name, len(region), got.Verdict, got.Reason, got.SlowCycles, got.UsedSlowPath,
			want.Verdict, want.Reason, want.SlowCycles, want.UsedSlowPath)
	}
	if !maps.Equal(gotEdges, wantEdges) || !maps.Equal(gotPaths, wantPaths) {
		t.Fatalf("%s: slowCheck approved %d edges and %d paths, the event path %d and %d",
			name, len(gotEdges), len(gotPaths), len(wantEdges), len(wantPaths))
	}
	return got
}

// badByte is a header byte no packet starts with.
const badByte = 0x03

// regionVariants derives, from one recorded window region, the regions
// the two slow paths are compared on. Each variant names itself.
func regionVariants(rng *rand.Rand, region []byte) map[string][]byte {
	evs, err := ipt.DecodeFast(region)
	if err != nil || len(evs) < 4 {
		return map[string][]byte{"whole": region}
	}
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	out := map[string][]byte{
		"whole":       region,
		"bad-at-end":  cat(region, []byte{badByte}),
		"partial-psb": cat(region, []byte{0x02, 0x82, 0x02, 0x82, 0x02, 0x82}),
		// A PSB cut short by the end is a truncated tail whatever its
		// bytes: no grammar error.
		"partial-psb-garbage": cat(region, []byte{0x02, 0x82, 0x55, 0x02}),
	}
	// Cut at random offsets: truncated tails, packets cut mid-payload.
	for k := range 3 {
		out[fmt.Sprintf("cut-%d", k)] = region[:1+rng.Intn(len(region))]
	}
	// An OVF spliced in at a random packet boundary; a second variant
	// also ends in a grammar error.
	at := evs[1+rng.Intn(len(evs)-1)].Off
	ovf := cat(region[:at], []byte{0x02, 0xF3}, region[at:])
	out["ovf"] = ovf
	out["ovf-bad-at-end"] = cat(ovf, []byte{badByte})
	// No PSB: the packets after the first PSB+ up to the next PSB.
	var psbs []int
	psbEnd := -1
	for _, e := range evs {
		switch {
		case e.Kind == ipt.KindPSB:
			psbs = append(psbs, e.Off)
		case e.Kind == ipt.KindPSBEND && psbEnd < 0:
			psbEnd = e.Off + 2
		}
	}
	if psbEnd > 0 {
		end := len(region)
		if len(psbs) > 1 {
			end = psbs[1]
		}
		out["no-psb"] = region[psbEnd:end]
		out["no-psb-bad"] = cat(region[psbEnd:end], []byte{badByte})
	}
	// A cut just inside the last PSB: a partial PSB at the tail.
	if last := psbs[len(psbs)-1]; last > 0 {
		out["cut-in-psb"] = region[:last+1+rng.Intn(ipt.PSBSize-1)]
	}
	// A TIP retargeted to unmapped memory stops the walk with a fetch
	// error well before the region ends; with a grammar error planted at
	// the end, the region still fails on the grammar.
	var tips []ipt.Event
	for _, e := range evs {
		if e.Kind == ipt.KindTIP && !e.Suppressed {
			tips = append(tips, e)
		}
	}
	if len(tips) > 0 {
		e := tips[rng.Intn(len(tips))]
		plen := 1 + map[byte]int{1: 2, 2: 4, 3: 8}[region[e.Off]>>5]
		far := cat(region[:e.Off], []byte{0x0D | 3<<5, 0, 0, 0, 0, 0xad, 0xde, 0, 0}, region[e.Off+plen:])
		out["tip-unmapped"] = far
		out["tip-unmapped-bad-at-end"] = cat(far, []byte{badByte})
	}
	// A few random byte flips.
	flipped := slices.Clone(region)
	for range 1 + rng.Intn(3) {
		flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
	}
	out["flipped"] = flipped
	return out
}

// TestSlowCheckMatchesEventPath: over nginx's and signald's cold-start
// slow-path windows (signald's carry async FUP+TIP pairs) and regions
// derived from them — a grammar error planted after the walk's end,
// with and without the walk stopping early on a fetch error, no PSB,
// truncated tails and partial PSBs, OVF seams, random flips — the
// byte-streaming slow path gives the event-list slow path's Verdict,
// Reason, SlowCycles and UsedSlowPath, and writes the same approvals.
func TestSlowCheckMatchesEventPath(t *testing.T) {
	nginx, signald := apps.Nginx(), apps.Signald()
	cases := []struct {
		app   *apps.App
		input []byte
	}{
		{nginx, nginx.MakeInput(3, 1)},
		{signald, []byte("aSbSSab S aSSSbaSab")},
	}
	for _, tc := range cases {
		t.Run(tc.app.Name, func(t *testing.T) {
			g, slow := recordSlowWindows(t, tc.app, tc.input)
			rng := rand.New(rand.NewSource(1))
			asyncs, fetchStops, grammarLate := 0, 0, 0
			for i, w := range slow {
				for _, r := range w.tips {
					if r.Async {
						asyncs++
					}
				}
				variants := regionVariants(rng, w.region)
				names := make([]string, 0, len(variants))
				for name := range variants {
					names = append(names, name)
				}
				slices.Sort(names)
				for _, name := range names {
					res := checkSlowMatchesEventPath(t, g, fmt.Sprintf("window %d %s", i, name), w.tips, variants[name])
					switch name {
					case "tip-unmapped":
						if res.SlowCycles > 0 && res.Verdict == VerdictViolation {
							fetchStops++
						}
					case "tip-unmapped-bad-at-end":
						if res.SlowCycles == 0 && strings.Contains(res.Reason, ipt.ErrMalformedTrace.Error()) {
							grammarLate++
						}
					}
				}
			}
			if fetchStops == 0 || grammarLate == 0 {
				t.Fatalf("no window stopped early on a fetch error (%d) or failed on a later grammar error (%d)", fetchStops, grammarLate)
			}
			if tc.app == signald && asyncs == 0 {
				t.Fatal("no signald window holds an async FUP+TIP pair")
			}
		})
	}
}

// FuzzSlowCheckMatchesEventPath: for any region bytes, checked with the
// TIP records of one of nginx's cold-start slow-path windows, the
// byte-streaming slow path and the event-list slow path agree.
func FuzzSlowCheckMatchesEventPath(f *testing.F) {
	app := apps.Nginx()
	g, slow := recordSlowWindows(f, app, app.MakeInput(2, 1))
	rng := rand.New(rand.NewSource(1))
	for i, w := range slow[:min(len(slow), 4)] {
		for _, r := range regionVariants(rng, w.region) {
			f.Add(uint8(i), r)
		}
	}
	f.Fuzz(func(t *testing.T, i uint8, region []byte) {
		checkSlowMatchesEventPath(t, g, "fuzzed region", slow[int(i)%len(slow)].tips, region)
	})
}
