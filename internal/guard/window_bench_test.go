package guard

// White-box benchmark of the amortized window collection: the
// incremental path decodes only the bytes appended since the previous
// check, while the full-rescan path (InvalidateWindow before every
// check) re-collects the window from scratch as the pre-amortization
// code did. `go test -bench BenchmarkIncrementalWindow -benchmem`
// shows both the time and the steady-state allocation gap.

import (
	"testing"

	"flowguard/internal/trace/ipt"
)

func BenchmarkIncrementalWindow(b *testing.B) {
	pol := DefaultPolicy()
	pol.PktCount = 8

	run := func(b *testing.B, invalidate bool) {
		f := newWindowFixture(b, pol)
		// Wrap-around two-region ToPA, as deployed (§5.1).
		f.tr.Out = ipt.NewToPA(32<<10, 32<<10)
		emit := func(n int) {
			for i := 0; i < n; i++ {
				addr := f.exec
				if i%3 == 1 {
					addr = f.lib
				}
				f.emitTIP(addr)
			}
		}
		emit(20000) // fill (and wrap) the buffer before measuring
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emit(16) // branches arriving between endpoint checks
			if invalidate {
				f.g.InvalidateWindow()
			}
			if _, _, _, _, err := f.g.window(&f.g.main); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, false) })
	b.Run("full-rescan", func(b *testing.B) { run(b, true) })
}
