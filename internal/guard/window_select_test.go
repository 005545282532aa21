package guard

// Differential tests of the one-pass window selection (selectWindow)
// against the per-sync-point rule it replaced, kept here as
// windowReference: walk the PSBs backwards, stop at the first whose
// records meet the packet count and the module-stride rule (or at the
// first PSB), then trim that tail back to the shortest qualifying
// suffix.

import (
	"fmt"
	"math/rand"
	"testing"

	"flowguard/internal/module"
	"flowguard/internal/trace/ipt"
)

// windowReference is the per-PSB strideOK+trim selection, recomputing
// module membership from scratch per candidate (no incremental
// scratch). It returns the checked records and the offset of the sync
// point the window region opens at.
func windowReference(g *Guard, all []ipt.TIPRecord, pts []int) ([]ipt.TIPRecord, int) {
	for k := len(pts) - 1; k >= 0; k-- {
		sub := ipt.TipsFrom(all, pts[k])
		if (len(sub) >= g.Policy.PktCount && strideOKReference(g, sub)) || k == 0 {
			return trimReference(g, sub), pts[k]
		}
	}
	panic("windowReference: no sync points")
}

func strideOKReference(g *Guard, tips []ipt.TIPRecord) bool {
	if !g.Policy.RequireModuleStride {
		return true
	}
	return spansModulesReference(g.AS, tips)
}

func spansModulesReference(as *module.AddressSpace, tips []ipt.TIPRecord) bool {
	mods := make(map[*module.Loaded]bool)
	inExec := false
	for _, t := range tips {
		l := as.FindModule(t.IP)
		if l == nil {
			continue
		}
		if l == as.Exec {
			inExec = true
		}
		mods[l] = true
	}
	return inExec && len(mods) > 1
}

func trimReference(g *Guard, tips []ipt.TIPRecord) []ipt.TIPRecord {
	if len(tips) <= g.Policy.PktCount {
		return tips
	}
	start := len(tips) - g.Policy.PktCount
	if !g.Policy.RequireModuleStride {
		return tips[start:]
	}
	for start > 0 && !spansModulesReference(g.AS, tips[start:]) {
		start--
	}
	return tips[start:]
}

// windowLayout decodes a record/sync-point layout from script, one
// stream item per byte: a PSB, or a TIP record targeting the
// executable, the library (at two different addresses each), an
// unmapped address, or a mapped segment that holds no code. Offsets
// ascend; the script may start with records that precede every sync
// point.
func windowLayout(f *windowFixture, script []byte) (all []ipt.TIPRecord, pts []int) {
	targets := []uint64{f.exec, f.exec + 16, f.lib, f.lib + 24, 0x10, 0}
	for _, seg := range f.as.Segments() {
		if !seg.IsCode && len(seg.Data) > 0 {
			targets[5] = seg.Base
			break
		}
	}
	off := 0
	for _, b := range script {
		off += 1 + int(b>>5)
		if b%6 == 0 {
			pts = append(pts, off)
			continue
		}
		all = append(all, ipt.TIPRecord{IP: targets[int(b>>3)%len(targets)], Off: off})
	}
	return all, pts
}

// checkWindowSelect compares selectWindow with windowReference on one
// layout under the fixture guard's current policy.
func checkWindowSelect(t *testing.T, f *windowFixture, all []ipt.TIPRecord, pts []int) {
	t.Helper()
	got, gotPSB := f.g.selectWindow(all, pts)
	want, wantPSB := windowReference(f.g, all, pts)
	if len(got) != len(want) || gotPSB != wantPSB {
		t.Fatalf("policy pkt=%d stride=%v, %d records, psbs %v: selectWindow = %d records from PSB %d, reference = %d records from PSB %d",
			f.g.Policy.PktCount, f.g.Policy.RequireModuleStride, len(all), pts,
			len(got), gotPSB, len(want), wantPSB)
	}
}

// wantMod is the reference module class of a record target: FindModule,
// as the reference selection resolves it.
func wantMod(as *module.AddressSpace, ip uint64) uint8 {
	switch l := as.FindModule(ip); {
	case l == nil:
		return modNone
	case l == as.Exec:
		return modExec
	}
	return modLib
}

// checkWindowSelectGrowing replays a layout the way the window cache
// presents it: each steps byte lets the stream grow by up to 8 offsets,
// about one item, and a quarter of the byte values also trim the records
// and sync points before a recent offset. selectWindow runs after every step over the same record
// storage, so the module classes it caches on the records carry from call
// to call, as they do between checks. Every call must match the
// reference, and every class cached on a record must be the record's.
func checkWindowSelectGrowing(t *testing.T, f *windowFixture, all []ipt.TIPRecord, pts []int, steps []byte) {
	t.Helper()
	now, lo := 0, 0
	for _, b := range steps {
		now += 1 + int(b&7)
		if b >= 0xc0 {
			lo = max(lo, now-8*int(b>>3&7))
		}
		live := ipt.TipsFrom(all, lo)
		live = live[:len(live)-len(ipt.TipsFrom(live, now+1))]
		var livePts []int
		for _, p := range pts {
			if p >= lo && p <= now {
				livePts = append(livePts, p)
			}
		}
		if len(livePts) > 0 {
			checkWindowSelect(t, f, live, livePts)
		}
	}
	for i, r := range all {
		if r.Mod != modUnresolved && r.Mod != wantMod(f.as, r.IP) {
			t.Fatalf("record %d (%#x) carries module class %d, want %d", i, r.IP, r.Mod, wantMod(f.as, r.IP))
		}
	}
}

// TestWindowSelectMatchesReference is the property: over random record,
// sync-point and module layouts, with the stride rule on and off and
// packet counts from 0 to past the record count, the one-pass selection
// returns exactly the reference's record slice and region offset.
// Named cases pin the edges the random layouts reach only by chance.
func TestWindowSelectMatchesReference(t *testing.T) {
	f := newWindowFixture(t, DefaultPolicy())
	psb, exe, lib, none, data := byte(0), byte(1), byte(17), byte(33), byte(41)
	cases := []struct {
		name   string
		script []byte
		pkt    int
	}{
		{"pkt-count-exceeds-records", []byte{psb, exe, lib, psb, exe, lib}, 9},
		{"no-suffix-meets-stride", []byte{psb, lib, lib, psb, lib, none, lib}, 2},
		{"records-before-first-psb", []byte{exe, exe, lib, psb, lib, lib, psb, lib}, 2},
		{"only-records-before-first-psb", []byte{exe, lib, exe, psb}, 1},
		{"stride-met-only-before-first-psb", []byte{exe, lib, psb, lib, lib}, 1},
		{"adjacent-psbs", []byte{psb, exe, psb, psb, lib, psb, psb}, 1},
		{"empty-window", []byte{psb, exe, lib, psb}, 0},
		{"extension-crosses-psbs", []byte{psb, exe, psb, lib, psb, lib, lib, psb, lib}, 2},
		{"non-code-targets", []byte{psb, exe, data, lib, none, data, data}, 2},
	}
	for _, c := range cases {
		for _, stride := range []bool{false, true} {
			f.g.Policy.PktCount, f.g.Policy.RequireModuleStride = c.pkt, stride
			all, pts := windowLayout(f, c.script)
			t.Run(fmt.Sprintf("%s/stride=%v", c.name, stride), func(t *testing.T) { checkWindowSelect(t, f, all, pts) })
		}
	}

	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 20000; it++ {
		script := make([]byte, rng.Intn(60))
		rng.Read(script)
		all, pts := windowLayout(f, script)
		if len(pts) == 0 {
			continue
		}
		f.g.Policy.PktCount = rng.Intn(len(all) + 4)
		f.g.Policy.RequireModuleStride = rng.Intn(2) == 0
		checkWindowSelect(t, f, all, pts)
		if it%8 == 0 {
			// The same layout again, grown and trimmed step by step over
			// fresh records.
			all, _ = windowLayout(f, script)
			checkWindowSelectGrowing(t, f, all, pts, script)
		}
	}
}

// FuzzWindowSelectMatchesReference is the fuzzing twin of the property:
// the first script byte chooses the policy, the rest the layout, which
// is then also grown and trimmed step by step (the same bytes choose the
// steps), with selectWindow called after every step over one record
// storage.
func FuzzWindowSelectMatchesReference(f *testing.F) {
	f.Add([]byte{0x05, 0, 1, 17, 0, 1, 17})
	f.Add([]byte{0x14, 0, 17, 17, 0, 17, 33, 17})
	f.Add([]byte{0x07, 1, 1, 17, 0, 17, 17, 0, 17})
	f.Add([]byte{0x00, 0, 1, 17, 0})
	f.Add([]byte{0x04, 0, 1, 41, 17, 33, 41, 41})
	fx := newWindowFixture(f, DefaultPolicy())
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		all, pts := windowLayout(fx, script[1:])
		if len(pts) == 0 {
			return
		}
		fx.g.Policy.PktCount = int(script[0] >> 1)
		fx.g.Policy.RequireModuleStride = script[0]&1 == 0
		checkWindowSelectGrowing(t, fx, all, pts, script[1:])
		checkWindowSelect(t, fx, all, pts)
	})
}
