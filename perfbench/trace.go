package main

// Span tracing from outside the program: the benchmark wraps each call it
// makes into a layer's public functions in a span (name, start, end,
// parent). Spans live in memory, one track per goroutine, and are written
// out when the run ends. Tracing is off in the runs that give end-to-end
// metrics; a nil *track records nothing.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"instability/internal/store"
)

// Phases of a run. Per-layer figures come from the timed phase where the
// layer runs there, and from set-up and checks otherwise.
const (
	phaseSetup = iota
	phaseTimed
	phaseCheck
	numPhases
)

var phaseNames = [numPhases]string{"setup", "timed", "check"}

// Span names. The part before the dot is the layer; "bench" spans are the
// workloads' own operations, which parent the layer calls they make.
const (
	spCollectorNext = iota
	spPipelineFeed
	spPipelineEndDay
	spDetectAdd
	spDetectAdvance
	spStoreAppend
	spStoreSeal
	spStoreQuery
	spServeQuery
	spServeAggregate
	spBenchOp
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"collector.next", "pipeline.feed", "pipeline.endday", "detect.add",
	"detect.advance", "store.append", "store.seal", "store.query",
	"serve.query", "serve.aggregate", "bench.op",
}

// maxKeptSpans bounds the raw spans a run keeps for the trace file, first
// come first kept; aggregates cover every span regardless.
const maxKeptSpans = 1 << 17

type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index in the same track, -1 for a root
	name       uint8
	phase      uint8
}

// spanAgg sums one span name's calls in one phase.
type spanAgg struct {
	calls, items int64
	total, self  time.Duration
	max          time.Duration
}

type openSpan struct {
	kept     int32 // index in spans, or -1 when not kept
	name     uint8
	start    int64
	childDur int64
}

// track is one goroutine's spans. Only its goroutine touches it while the
// run is live.
type track struct {
	tr      *tracer
	label   string
	spans   []span
	dropped int64
	stack   []openSpan
	agg     [numPhases][numSpanNames]spanAgg
}

type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	phase  int // written only while every track is idle
	tk     []*track
	counts [numPhases]layerCounts
	aggMu  sync.Mutex   // serialises aggregates, see lockAggregates
	kept   atomic.Int64 // raw spans kept so far
}

// layerCounts are the counts taken at layer boundaries besides spans: the
// store's scan statistics, the serving plane's cache verdicts, and paired
// remote/embedded timings of one query spec.
type layerCounts struct {
	scans                    int64
	scan                     store.ScanStats
	aggCold, aggCached       int64
	aggColdDur, aggCachedDur time.Duration
	cacheHits, cacheMisses   uint64
	pairs                    int64
	pairRemote, pairEmbedded time.Duration
}

func (t *tracer) addScan(s store.ScanStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	c := &t.counts[t.phase]
	c.scans++
	c.scan.BlocksTotal += s.BlocksTotal
	c.scan.BlocksSelected += s.BlocksSelected
	c.scan.BlocksCacheHit += s.BlocksCacheHit
	c.scan.BlocksCacheMiss += s.BlocksCacheMiss
	c.scan.BytesDecompressed += s.BytesDecompressed
	c.scan.RecordsMaterialized += s.RecordsMaterialized
	c.scan.RecordsMatched += s.RecordsMatched
	t.mu.Unlock()
}

// addAggregate books one aggregate as cached when the server counted a hit
// for it and no miss, and as cold otherwise.
func (t *tracer) addAggregate(d time.Duration, hits, misses uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	c := &t.counts[t.phase]
	c.cacheHits += hits
	c.cacheMisses += misses
	if hits > 0 && misses == 0 {
		c.aggCached++
		c.aggCachedDur += d
	} else {
		c.aggCold++
		c.aggColdDur += d
	}
	t.mu.Unlock()
}

// addPair books one query spec asked remotely and embedded.
func (t *tracer) addPair(remote, embedded time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	c := &t.counts[t.phase]
	c.pairs++
	c.pairRemote += remote
	c.pairEmbedded += embedded
	t.mu.Unlock()
}

// lockAggregates serialises aggregate calls in traced runs, so that the
// server's cache counter delta across one call is that call's own. It
// returns the unlock function; untraced runs do not serialise.
func (t *tracer) lockAggregates() func() {
	if t == nil {
		return func() {}
	}
	t.aggMu.Lock()
	return t.aggMu.Unlock
}

// pickCounts returns the timed phase's counts where has reports they hold
// the quantity, else set-up and checks summed, with the phase label.
func (t *tracer) pickCounts(has func(*layerCounts) bool) (layerCounts, string) {
	if c := t.counts[phaseTimed]; has(&c) {
		return c, phaseNames[phaseTimed]
	}
	a, b := t.counts[phaseSetup], t.counts[phaseCheck]
	a.scans += b.scans
	a.scan.BlocksTotal += b.scan.BlocksTotal
	a.scan.BlocksSelected += b.scan.BlocksSelected
	a.scan.BlocksCacheHit += b.scan.BlocksCacheHit
	a.scan.BlocksCacheMiss += b.scan.BlocksCacheMiss
	a.scan.BytesDecompressed += b.scan.BytesDecompressed
	a.scan.RecordsMaterialized += b.scan.RecordsMaterialized
	a.scan.RecordsMatched += b.scan.RecordsMatched
	a.aggCold += b.aggCold
	a.aggCached += b.aggCached
	a.aggColdDur += b.aggColdDur
	a.aggCachedDur += b.aggCachedDur
	a.cacheHits += b.cacheHits
	a.cacheMisses += b.cacheMisses
	a.pairs += b.pairs
	a.pairRemote += b.pairRemote
	a.pairEmbedded += b.pairEmbedded
	if !has(&a) {
		return a, "none"
	}
	return a, "setup+check"
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track returns a new track; nil for a nil tracer, so untraced runs pass
// nil tracks everywhere.
func (t *tracer) track(label string) *track {
	if t == nil {
		return nil
	}
	k := &track{tr: t, label: label}
	t.mu.Lock()
	t.tk = append(t.tk, k)
	t.mu.Unlock()
	return k
}

func (t *tracer) setPhase(p int) {
	if t != nil {
		t.phase = p
	}
}

// begin opens a span; end closes the innermost open one, covering items
// units of work (records, events, queries).
func (k *track) begin(name int) {
	if k == nil {
		return
	}
	now := int64(time.Since(k.tr.epoch))
	o := openSpan{kept: -1, name: uint8(name), start: now}
	if k.tr.kept.Add(1) <= maxKeptSpans {
		parent := int32(-1)
		if n := len(k.stack); n > 0 {
			parent = k.stack[n-1].kept
		}
		o.kept = int32(len(k.spans))
		k.spans = append(k.spans, span{start: now, parent: parent, name: uint8(name), phase: uint8(k.tr.phase)})
	} else {
		k.dropped++
	}
	k.stack = append(k.stack, o)
}

func (k *track) end(items int64) {
	if k == nil {
		return
	}
	now := int64(time.Since(k.tr.epoch))
	o := k.stack[len(k.stack)-1]
	k.stack = k.stack[:len(k.stack)-1]
	dur := now - o.start
	if o.kept >= 0 {
		k.spans[o.kept].end = now
	}
	if n := len(k.stack); n > 0 {
		k.stack[n-1].childDur += dur
	}
	a := &k.agg[k.tr.phase][o.name]
	a.calls++
	a.items += items
	a.total += time.Duration(dur)
	a.self += time.Duration(dur - o.childDur)
	if time.Duration(dur) > a.max {
		a.max = time.Duration(dur)
	}
}

// sum folds every track's aggregate for one span name and phase.
func (t *tracer) sum(phase, name int) spanAgg {
	var s spanAgg
	for _, k := range t.tk {
		a := k.agg[phase][name]
		s.calls += a.calls
		s.items += a.items
		s.total += a.total
		s.self += a.self
		if a.max > s.max {
			s.max = a.max
		}
	}
	return s
}

// pick returns the timed phase's aggregate for name when that phase made
// such calls, else the sum over set-up and checks, with the phase label.
func (t *tracer) pick(name int) (spanAgg, string) {
	if a := t.sum(phaseTimed, name); a.calls > 0 {
		return a, phaseNames[phaseTimed]
	}
	a, b := t.sum(phaseSetup, name), t.sum(phaseCheck, name)
	a.calls += b.calls
	a.items += b.items
	a.total += b.total
	a.self += b.self
	if b.max > a.max {
		a.max = b.max
	}
	switch {
	case a.calls == 0:
		return a, "none"
	case b.calls == 0:
		return a, phaseNames[phaseSetup]
	}
	return a, "setup+check"
}

// selfByLayer sums self time per layer (the span name's prefix) in one
// phase.
func (t *tracer) selfByLayer(phase int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for n := 0; n < numSpanNames; n++ {
		if a := t.sum(phase, n); a.calls > 0 {
			out[layerOf(n)] += a.self
		}
	}
	return out
}

func layerOf(name int) string {
	s := spanNames[name]
	return s[:strings.IndexByte(s, '.')]
}

// write dumps the kept spans as tab-separated lines: track, index, parent,
// name, phase, start and end in ns since the epoch.
func (t *tracer) write(path string) (kept, dropped int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "track\tspan\tparent\tname\tphase\tstart_ns\tend_ns")
	tracks := append([]*track(nil), t.tk...)
	sort.SliceStable(tracks, func(i, j int) bool { return tracks[i].label < tracks[j].label })
	for _, k := range tracks {
		for i, s := range k.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t%d\t%d\n", k.label, i, s.parent,
				spanNames[s.name], phaseNames[s.phase], s.start, s.end)
		}
		kept += int64(len(k.spans))
		dropped += k.dropped
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return kept, dropped, err
	}
	return kept, dropped, f.Close()
}
