package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Latency distributions are kept in a fixed log-linear histogram rather
// than as raw samples: the fleet workload times millions of calls per
// run, and a sample slice that large would dominate the peak heap the
// benchmark reports. Values below 256 ns are exact; above, each power of
// two is split into 128 buckets (0.8% relative width), and quantiles
// interpolate by rank inside their bucket.
const (
	distSubBits = 7
	distSub     = 1 << distSubBits
	distBuckets = (64 - distSubBits + 1) * distSub
)

type dist struct {
	counts [distBuckets]uint64
	n      uint64
	sum    float64 // nanoseconds
}

func distIndex(v uint64) int {
	e := bits.Len64(v) - (distSubBits + 1)
	if e <= 0 {
		return int(v)
	}
	return e*distSub + int(v>>uint(e))
}

// distBucket returns the lower bound and width of bucket i.
func distBucket(i int) (lo, width float64) {
	if i < 2*distSub {
		return float64(i), 1
	}
	e := i/distSub - 1
	m := i - e*distSub
	return float64(uint64(m) << uint(e)), float64(uint64(1) << uint(e))
}

func (d *dist) add(ns uint64) {
	d.counts[distIndex(ns)]++
	d.n++
	d.sum += float64(ns)
}

func (d *dist) merge(o *dist) {
	for i, c := range o.counts {
		d.counts[i] += c
	}
	d.n += o.n
	d.sum += o.sum
}

func (d *dist) mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// samplesFor returns the smallest sample count at which quantile p has
// minBeyond samples beyond it.
func samplesFor(p float64) uint64 {
	return uint64(math.Ceil(minBeyond/(1-p) - 1e-9))
}

// quantile returns the p-quantile in nanoseconds: the sample of rank
// ceil(p·n). ok is false when fewer than minBeyond samples rank above
// it, in which case the percentile is not reported.
func (d *dist) quantile(p float64) (v float64, ok bool) {
	if d.n == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(p*float64(d.n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	ok = d.n-rank >= minBeyond
	var cum uint64
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, w := distBucket(i)
			return lo + w*(float64(rank-cum)-0.5)/float64(c), ok
		}
		cum += c
	}
	return 0, false
}

// Host-speed calibration. The benchmark shares its cores, caches and
// memory with other tenants, and the speed of the same code drifts by
// ±20% over tens of seconds, and by up to half for seconds at a time: more
// than the changes the benchmark has to resolve. So a fixed,
// allocation-free probe of the benchmark's own (no FlowGuard code, so no
// change under test can speed it up) is timed between operations: a
// table-driven scan of 2 KiB after streaming half a megabyte, the shape of
// emulation followed by packet decoding. Each operation of a kernel
// workload is recorded at the reference speed at which the probe takes
// calRef, by the ratio of calRef to the median of the last calWindow
// probes: its wall, CPU and emulation time and its slow-path checks scale
// with that ratio. Scaling as the run goes, rather than by one median for
// the whole run, follows the host through phase changes within a run.
//
// A blocked endpoint of an emulated process that takes no slow path, a
// few microseconds of cold-cache work between long stretches of
// emulation, slows down far more on a contended host than the probe does:
// over 20 server-mix runs in three host phases it tracked the probe's
// time to the power emulatedBlockedExp, which held the spread of its
// median within 10% in a phase and across phases (the first power left
// 30% between phases). So those endpoints scale with that power of the
// ratio. Slow-path checks, milliseconds of full decoding and flow walking,
// are CPU-bound like the emulation: scaled by the 2.5th power, the
// blocked mean of cold-start, which they dominate, spread from 579 to
// 830 us over three runs of one seed that read 765 to 871 us unscaled.
//
// The fleet's checks are scaled by a probe of their own shape instead,
// interleaved with them (see fleetShadowRef).
const (
	calRef             = 400_000 // ns: the probe's typical time on the 2-CPU host the benchmark was defined on
	emulatedBlockedExp = 2.5
	// calEvery is the least time between two calibrations; the probe
	// streams 16 MiB, so it is not run before every short operation.
	calEvery = 100 * time.Millisecond
	// calWindow is the number of recent calibrations whose median scales
	// an operation: half a second of host time.
	calWindow = 5
)

var (
	calCold  [1 << 21]uint64 // 16 MiB streamed in half-megabyte slices
	calTable [1 << 13]uint64 // 64 KiB
	calScan  [2048]byte
	calOff   int
	calSink  uint64
)

func init() {
	for i := range calTable {
		calTable[i] = uint64(i) * 7919
	}
	for i := range calScan {
		calScan[i] = byte(i * 31)
	}
}

// calibrate returns the probe's time in nanoseconds. Only the
// benchmark's main goroutine calls it.
func calibrate() float64 {
	var total time.Duration
	var cold, st uint64
	for r := 0; r < 32; r++ {
		for i := 0; i < 1<<16; i += 8 {
			cold += calCold[(calOff+i)&(len(calCold)-1)]
		}
		calOff += 1 << 16
		t0 := time.Now()
		for _, c := range calScan {
			st = calTable[(st*31+uint64(c)+cold)&uint64(len(calTable)-1)]
		}
		total += time.Since(t0)
	}
	calSink += cold + st
	return float64(total)
}

// speedScale returns the factor that converts CPU-bound work timed while
// a probe with reference time ref took cal to the reference speed.
func speedScale(cal []float64, ref float64) float64 {
	m := median(cal)
	if m == 0 {
		return 1
	}
	return ref / m
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapBytes returns the live Go heap: the bytes the last garbage
// collection found reachable. The benchmark reads it only right after a
// collection of its own (liveHeap), with the state of the work just done
// still reachable: a collection the runtime starts on its own lands at a
// point its pacer picks from timing, and what it finds live then changed
// cold-start's peak by a third between quiet and busy host phases.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spans keeps the traced run's spans in memory. A record is either one
// span or an aggregate of n leaf spans of one name under one parent
// (the fleet's per-call spans, too many to keep one by one). Only the
// benchmark's main goroutine records.
type spans struct {
	on   bool
	t0   time.Time
	recs []spanRec
}

type spanRec struct {
	name   string
	parent int
	n      int64
	start  time.Duration
	dur    time.Duration
}

const noSpan = -1

func (s *spans) begin(name string, parent int) int {
	if !s.on {
		return noSpan
	}
	s.recs = append(s.recs, spanRec{name: name, parent: parent, n: 1, start: time.Since(s.t0)})
	return len(s.recs) - 1
}

func (s *spans) end(id int) {
	if id == noSpan {
		return
	}
	r := &s.recs[id]
	r.dur = time.Since(s.t0) - r.start
}

// add records a finished span and returns its id.
func (s *spans) add(name string, parent int, start, end time.Time) int {
	if !s.on {
		return noSpan
	}
	s.recs = append(s.recs, spanRec{name: name, parent: parent, n: 1, start: start.Sub(s.t0), dur: end.Sub(start)})
	return len(s.recs) - 1
}

// addAgg records n leaf spans totalling dur.
func (s *spans) addAgg(name string, parent int, n int64, dur time.Duration) {
	if !s.on || n == 0 {
		return
	}
	s.recs = append(s.recs, spanRec{name: name, parent: parent, n: n, dur: dur})
}

// spanSum is one span name's totals: count, duration, and self time (the
// duration not covered by child spans).
type spanSum struct {
	name        string
	n           int64
	total, self time.Duration
}

func (s *spans) summary() []spanSum {
	child := make([]time.Duration, len(s.recs))
	for _, r := range s.recs {
		if r.parent != noSpan {
			child[r.parent] += r.dur
		}
	}
	idx := map[string]int{}
	var out []spanSum
	for i, r := range s.recs {
		j, ok := idx[r.name]
		if !ok {
			j = len(out)
			idx[r.name] = j
			out = append(out, spanSum{name: r.name})
		}
		out[j].n += r.n
		out[j].total += r.dur
		out[j].self += r.dur - child[i]
	}
	return out
}

// total returns the summed duration of every span named name.
func (s *spans) total(name string) time.Duration {
	var d time.Duration
	for _, r := range s.recs {
		if r.name == name {
			d += r.dur
		}
	}
	return d
}
