package main

import (
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/cfg"
	"flowguard/internal/guard"
	"flowguard/internal/harness"
	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// replayCounts accumulates the traced run's layer replays: the bytes the
// guards checked fed again through the public functions of the layer
// that processes them, each timed from outside.
type replayCounts struct {
	scanBytes, scanNs   uint64 // ipt.WindowDecoder.Feed
	lookups, lookupNs   uint64 // itc Graph/Artifact Lookup over the TIP pairs
	demuxBytes, demuxNs uint64 // ipt.Demux.Feed
	fulls, fullNs       uint64 // ipt.DecodeFull over checked windows
}

// replaySession replays one finished session's captured streams.
func (b *bench) replaySession(s *session) {
	for _, c := range s.caps {
		b.replayStream(c.chunks, c.breaks, c.lookup)
	}
	wins := s.fulls
	if len(wins) == 0 && s.last.topa != nil {
		// No slow window in this session: replay the last checked window.
		wins = []fullWindow{{as: s.last.as, buf: s.last.topa.Snapshot()}}
	}
	for _, w := range wins {
		b.replayFull(w)
	}
	if s.cores != nil {
		b.replayDemux(s.cores.chunks, mcCores)
		return
	}
	for _, c := range s.caps {
		cc := make([]coreChunk, len(c.chunks))
		for i, ch := range c.chunks {
			cc[i] = coreChunk{b: ch}
		}
		b.replayDemux(cc, 1)
	}
}

// replayStream feeds one stream through a WindowDecoder chunk by chunk, as
// the guard's incremental window does, then looks every consecutive TIP
// pair up in the labels the guard consulted.
func (b *bench) replayStream(chunks [][]byte, breaks map[int]bool, lookup lookupFn) {
	rep := &b.ph.rep
	dec := ipt.NewWindowDecoder(0)
	var tips []ipt.TIPRecord
	sp := b.sp.begin("replay.ipt.WindowDecoder", noSpan)
	t0 := time.Now()
	off := 0
	for i, ch := range chunks {
		if breaks[i] {
			tips = append(tips, dec.Tips()...)
			dec.Reset(off)
		}
		if err := dec.Feed(ch); err != nil {
			dec.Reset(off + len(ch))
		}
		off += len(ch)
		rep.scanBytes += uint64(len(ch))
	}
	rep.scanNs += uint64(time.Since(t0))
	b.sp.end(sp)
	tips = append(tips, dec.Tips()...)

	sp = b.sp.begin("replay.itc.Lookup", noSpan)
	t0 = time.Now()
	var n uint64
	for i := 0; i+1 < len(tips); i++ {
		if tips[i].Async || tips[i+1].Resync || tips[i+1].Async {
			continue
		}
		lookup(tips[i].IP, tips[i+1].IP, tips[i+1].TNTSig)
		n++
	}
	rep.lookupNs += uint64(time.Since(t0))
	rep.lookups += n
	b.sp.end(sp)
}

// replayFull decodes one checked window at the instruction-flow layer, the
// slow path's decoder.
func (b *bench) replayFull(w fullWindow) {
	if len(w.buf) == 0 {
		return
	}
	win := checkedWindow(w.buf, guard.DefaultPolicy().PktCount)
	if win == nil {
		return
	}
	sp := b.sp.begin("replay.ipt.DecodeFull", noSpan)
	t0 := time.Now()
	_, _ = ipt.DecodeFull(w.as, win, 0)
	b.ph.rep.fullNs += uint64(time.Since(t0))
	b.ph.rep.fulls++
	b.sp.end(sp)
}

// checkedWindow returns the suffix of buf the slow path decodes: from the
// latest sync point that leaves at least pkt TIP records, as the guard's
// window rule picks it (module stride aside).
func checkedWindow(buf []byte, pkt int) []byte {
	pts := ipt.SyncPoints(buf)
	for k := len(pts) - 1; k >= 0; k-- {
		evs, err := ipt.DecodeFast(buf[pts[k]:])
		if err == nil && (len(ipt.ExtractTIPs(evs)) >= pkt || k == 0) {
			return buf[pts[k]:]
		}
	}
	return nil
}

// replayDemux routes recorded per-core chunks through a fresh Demux whose
// sinks accept every process.
func (b *bench) replayDemux(chunks []coreChunk, cores int) {
	if len(chunks) == 0 {
		return
	}
	x := ipt.NewDemux(cores)
	sinks := map[uint64]*ipt.ToPA{}
	sink := func(cr3 uint64) *ipt.ToPA {
		t := sinks[cr3]
		if t == nil {
			t = ipt.NewToPA(256<<10, 256<<10)
			sinks[cr3] = t
		}
		return t
	}
	for _, cr3 := range demuxCR3s(chunks) {
		x.Bind(cr3, sink(cr3))
	}
	sp := b.sp.begin("replay.ipt.Demux", noSpan)
	t0 := time.Now()
	for _, c := range chunks {
		x.Feed(c.core, c.b)
		b.ph.rep.demuxBytes += uint64(len(c.b))
	}
	b.ph.rep.demuxNs += uint64(time.Since(t0))
	b.sp.end(sp)
}

// demuxCR3s lists the CR3 values the chunks' PIP packets carry, so the
// replay binds a sink for each (decoded outside the timed replay).
func demuxCR3s(chunks []coreChunk) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, c := range chunks {
		i := ipt.Sync(c.b, 0)
		if i < 0 {
			continue
		}
		evs, _ := ipt.DecodeFast(c.b[i:])
		for _, e := range evs {
			if e.Kind == ipt.KindPIP && !seen[e.CR3] {
				seen[e.CR3] = true
				out = append(out, e.CR3)
			}
		}
	}
	return out
}

// analyze runs the offline phase for one app through the harness, then —
// in traced runs — replays its two stages to time them separately.
func (b *bench) analyze(r *harness.Runner, a *apps.App) (*harness.Analysis, error) {
	sp := b.sp.begin("harness.Analyze", noSpan)
	an, err := r.Analyze(a)
	b.sp.end(sp)
	if err != nil || !b.sp.on {
		return an, err
	}
	sp = b.sp.begin("replay.cfg.Build", noSpan)
	g, err := cfg.Build(an.OCFG.AS)
	b.sp.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.sp.begin("replay.itc.FromCFG", noSpan)
	itc.FromCFG(g)
	b.sp.end(sp)
	return an, nil
}

// train labels the analysis with the runner's training replays.
func (b *bench) train(r *harness.Runner, an *harness.Analysis) error {
	sp := b.sp.begin("harness.Train", noSpan)
	defer b.sp.end(sp)
	return r.Train(an)
}
