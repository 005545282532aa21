package guard

// Micro-benchmark of the striped slow-path verdict cache (§7.1.1). The
// fast loop consults ApprovedEdge once per low-credit edge, so its
// lookup cost — an RLock on one of 16 stripes plus a map probe — sits
// directly on the hot path whenever training coverage is imperfect.
// Tier-1 in fgperf's regression gate.

import (
	"math/rand"
	"testing"
)

func approvalBenchKeys() (hits, misses []edgeKey) {
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	hits = make([]edgeKey, n)
	misses = make([]edgeKey, n)
	for i := range hits {
		hits[i] = edgeKey{rng.Uint64(), rng.Uint64(), rng.Uint64() & 0xff}
		misses[i] = edgeKey{rng.Uint64(), rng.Uint64(), rng.Uint64() & 0xff}
	}
	return hits, misses
}

func BenchmarkApprovalCache(b *testing.B) {
	hits, misses := approvalBenchKeys()
	c := NewApprovalCache()
	for _, k := range hits {
		c.ApproveEdge(k)
	}

	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		found := 0
		for i := 0; i < b.N; i++ {
			if c.ApprovedEdge(hits[i%len(hits)]) {
				found++
			}
		}
		if found != b.N {
			b.Fatalf("%d/%d approved keys missed", b.N-found, b.N)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c.ApprovedEdge(misses[i%len(misses)]) {
				b.Fatal("unapproved key reported approved")
			}
		}
	})
	// Contended profile: every goroutine reads, and ~1/64 ops record a
	// fresh approval — the shape of pooled checkers sharing one cache
	// (FleetPool) while occasional slow paths write through.
	b.Run("parallel-mixed", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i%64 == 63 {
					c.ApproveEdge(misses[i%len(misses)])
				} else {
					c.ApprovedEdge(hits[i%len(hits)])
				}
				i++
			}
		})
	})
}
