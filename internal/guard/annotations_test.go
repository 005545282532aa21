package guard_test

import (
	"math/rand"
	"reflect"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// TestCheckAnnotationsMatchFreshCheck: the per-record annotations — the
// module class in TIPRecord.Mod, the high-credit hit in TIPRecord.Memo —
// are caches, never inputs. A guard checking a recorded trace chunk by
// chunk is compared with a twin whose annotations are cleared before
// every check, so that each of its checks resolves every record afresh:
// the Result and every Stats counter must agree after every check, and
// every annotation the first guard's records carry must be what it
// caches.
//
// The recordings (nginx, signald, threadd, and vulnd whose benign
// session is followed by a ROP exploit's, a hijacked tail) are fed in
// chunks of 16 B to 4 KiB into the deployed 2×8 KiB ToPA. A burst that
// wraps past the window cache and explicit invalidations make some
// checks fresh rescans. The labels start trained on the first half of
// the benign session; the second half is published later in the stream
// (Observe + RebuildCache), and later still both guards are pinned to the
// untrained artifact, the one change that takes credit away from pairs
// already marked. Each recording runs under the default policy,
// CredMinCount 2 and PathSensitive.
func TestCheckAnnotationsMatchFreshCheck(t *testing.T) {
	vulnd := apps.Vulnd()
	vas, err := vulnd.Load()
	if err != nil {
		t.Fatal(err)
	}
	rop, err := attack.BuildROPWrite(vas)
	if err != nil {
		t.Fatal(err)
	}
	// The labels are trained on the recording of input, which is also
	// the checked stream, followed by the recording of hijack if set.
	recordings := []struct {
		name          string
		app           *apps.App
		input, hijack []byte
	}{
		{"nginx", apps.Nginx(), apps.Nginx().MakeInput(150, 1), nil},
		{"signald", apps.Signald(), apps.Signald().MakeInput(3000, 1), nil},
		{"threadd", apps.Threadd(), apps.Threadd().MakeInput(3000, 1), nil},
		{"vulnd-rop", vulnd, vulnd.MakeInput(150, 1), rop},
	}
	credMin2, pathSens := guard.DefaultPolicy(), guard.DefaultPolicy()
	credMin2.CredMinCount = 2
	pathSens.PathSensitive = true
	policies := []struct {
		name string
		pol  guard.Policy
	}{{"default", guard.DefaultPolicy()}, {"credmin2", credMin2}, {"pathsensitive", pathSens}}

	for _, rec := range recordings {
		a := analyze(t, rec.app)
		as, err := rec.app.Load()
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := a.recordTrace(t, rec.input)
		evs, err := ipt.DecodeFast(raw)
		if err != nil {
			t.Fatal(err)
		}
		tips := ipt.ExtractTIPs(evs)
		if rec.hijack != nil {
			// The exploit's recording opens with a PSB, so it continues
			// the benign stream as a valid trace.
			tail, _ := a.recordTrace(t, rec.hijack)
			raw = append(raw, tail...)
		}
		// Stream offsets of the mid-stream events.
		wrapAt, republishAt, invalidateAt, pinAt := len(raw)*3/10, len(raw)*6/10, len(raw)*7/10, len(raw)*8/10
		for _, pc := range policies {
			t.Run(rec.name+"/"+pc.name, func(t *testing.T) {
				labels := itc.FromCFG(a.ocfg)
				labels.ObserveWindow(tips[:len(tips)/2])
				labels.RebuildCache()
				untrained := itc.FromCFG(a.ocfg).Artifact()
				newGuard := func() *guard.Guard {
					// An unprogrammed tracer: the ToPA holds exactly the
					// bytes the test writes.
					tr := ipt.NewTracer(ipt.NewToPA(guard.DefaultToPARegion, guard.DefaultToPARegion))
					return guard.New(as, a.ocfg, labels, tr, pc.pol)
				}
				annotated, fresh := newGuard(), newGuard()
				both := func(f func(g *guard.Guard)) { f(annotated); f(fresh) }
				rng := rand.New(rand.NewSource(int64(len(raw))))
				var slowAfterPin uint64
				for lo, step := 0, 0; lo < len(raw); step++ {
					n := 16 << (2 * rng.Intn(5)) // 16 B .. 4 KiB
					if lo < wrapAt && lo+n >= wrapAt {
						n = 3 * guard.DefaultToPARegion // wraps past the window cache
					}
					hi := min(lo+n, len(raw))
					both(func(g *guard.Guard) { g.Tracer.Out.Write(raw[lo:hi]) })
					crossed := func(at int) bool { return lo < at && hi >= at }
					if crossed(republishAt) {
						labels.ObserveWindow(tips[len(tips)/2:])
						labels.RebuildCache()
					}
					if crossed(invalidateAt) || step%29 == 28 {
						both((*guard.Guard).InvalidateWindow)
					}
					if crossed(pinAt) {
						both(func(g *guard.Guard) { g.UseArtifact(untrained) })
					}
					pinned := hi >= pinAt
					lo = hi
					guard.ClearAnnotations(fresh)
					got, want := annotated.Check(), fresh.Check()
					if got != want {
						t.Fatalf("check %d (stream offset %d): annotated guard %+v, fresh %+v", step, lo, got, want)
					}
					if gs, ws := annotated.Stats.Fields(), fresh.Stats.Fields(); !reflect.DeepEqual(gs, ws) {
						t.Fatalf("check %d (stream offset %d): stats diverge:\nannotated %v\nfresh     %v", step, lo, gs, ws)
					}
					if err := guard.CheckAnnotations(annotated); err != nil {
						t.Fatalf("check %d (stream offset %d): %v", step, lo, err)
					}
					if pinned && got.UsedSlowPath {
						slowAfterPin++
					}
				}
				st := &annotated.Stats
				if pc.pol.CredMinCount <= 1 && (st.CacheHits == 0 || slowAfterPin == 0) {
					t.Fatalf("%d cache hits, %d slow paths after the labels lost credit: the marks were never exercised", st.CacheHits, slowAfterPin)
				}
				if rec.hijack != nil && st.Violations <= st.FailClosures {
					t.Fatal("the hijacked tail was never flagged")
				}
				t.Logf("%d bytes, %d checks, %d cache hits, %d slow paths (%d after the pin), %d violations",
					len(raw), st.Checks, st.CacheHits, st.SlowChecks, slowAfterPin, st.Violations)
			})
		}
	}
}
