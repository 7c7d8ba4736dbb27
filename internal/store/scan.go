package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/obs"
)

// The scan engine. Every segment scan — a serial query, a parallel query, a
// compaction merge — is a segmentStream: it walks the candidate blocks of one
// segment in block order, fetching each in columnar form (through the shared
// block cache when the store has one), filtering it column-wise, and
// materializing only the surviving rows. The merge heap in Reader.Next —
// queries and compaction merges alike — interleaves streams by (timestamp,
// segment seq).
//
// How the fetches run is the only thing that varies. With one worker, or a
// query that selects a single block, a stream fetches inline on the consumer
// goroutine, one block at a time, into one reused record buffer — no
// goroutine, no pool. Otherwise the reader starts a bounded scanPool and each
// stream keeps scanLookahead blocks in flight on it, so ReadAt + inflate +
// decode overlap the merge. Ordering is preserved by construction rather than
// by re-sorting: a stream submits its blocks in block order and keeps a FIFO
// of single-slot result channels, so blocks are consumed in submission order
// no matter which worker finishes first. Either way the record sequence and
// the ScanStats accounting are identical.

// scanLookahead is how many blocks a pooled stream keeps in flight beyond the
// one being consumed. Two is enough to hide decompression latency behind the
// merge without holding many decoded blocks in memory per stream.
const scanLookahead = 2

// blockTask is one block a pooled stream submitted. Workers read only the
// stream's fields fixed at open (seg, f, mm, q, cache); close clears them
// only after receiving every submitted block's result.
type blockTask struct {
	sc  *segmentStream
	bi  int
	out chan<- blockResult // cap 1: workers never block on delivery
}

type blockResult struct {
	bi   int                // block index
	recs []collector.Record // pooled buffer when from a worker; nil-length results still own it
	hit  bool               // block came from the shared cache
	err  error
}

// recBufPool recycles decoded-record buffers across parallel scans: the
// merge consumer returns each fully consumed slice and workers decode the
// next block into a recycled one, so steady-state scanning holds a bounded
// set of live buffers instead of allocating one per block per query.
var recBufPool = sync.Pool{New: func() any { return new([]collector.Record) }}

// recBufsLive is the get/put balance of recBufPool. It returns to zero when
// every code path — including every error path — hands its buffer back; the
// leak-check tests assert exactly that.
var recBufsLive atomic.Int64

func getRecBuf() []collector.Record {
	recBufsLive.Add(1)
	return *recBufPool.Get().(*[]collector.Record)
}

func putRecBuf(b []collector.Record) {
	recBufsLive.Add(-1)
	b = b[:0]
	recBufPool.Put(&b)
}

// scanPool is a fixed set of decompression workers shared by all streams of
// one parallel reader. Each worker owns a blockScanner for its lifetime, so
// buffer reuse needs no per-block pool traffic.
type scanPool struct {
	tasks chan blockTask
	wg    sync.WaitGroup
}

func newScanPool(workers, queue int) *scanPool {
	p := &scanPool{tasks: make(chan blockTask, queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			bs := getBlockScanner()
			defer putBlockScanner(bs)
			for t := range p.tasks {
				sc := t.sc
				cb, hit, err := bs.fetch(sc.seg, sc.f, sc.mm, sc.cache, t.bi)
				if err != nil {
					t.out <- blockResult{bi: t.bi, err: err}
					continue
				}
				// The pooled buffer is taken only on success and travels with
				// the result; the consumer (or the stream's close) returns it.
				t.out <- blockResult{bi: t.bi, recs: cb.appendMatching(sc.q, &bs.sel, getRecBuf()[:0]), hit: hit}
			}
		}()
	}
	return p
}

// shutdown stops accepting tasks and waits for the workers to exit. Every
// stream has drained its results by then: streams close before the pool.
func (p *scanPool) shutdown() {
	close(p.tasks)
	p.wg.Wait()
}

// segmentStream iterates the candidate blocks of one segment. All methods run
// on the merge consumer goroutine; with a pool, only the workers touch the
// segment file.
type segmentStream struct {
	seg   *segment
	f     faults.File
	mm    *segMap     // acquired mapping reference, nil on the ReadAt path
	q     *Query      // predicates the columnar kernels filter by
	cache *blockCache // shared block cache, nil when disabled or compacting
	// quarantine skips corrupt blocks instead of failing the scan. Queries
	// set it; compaction merges leave it off, because silently dropping a
	// block while rewriting segments would turn detectable damage into
	// permanent record loss.
	quarantine bool

	pool    *scanPool     // nil: fetch inline
	bs      *blockScanner // inline fetch scratch, nil with a pool
	blocks  []int
	next    int                // next index into blocks to fetch or submit
	pending []chan blockResult // FIFO of in-flight block results (pooled)
	recs    []collector.Record
	pooled  bool // recs came from recBufPool and must go back
	ri      int
	cur     collector.Record
	ok      bool
	order   uint64

	acc  scanDelta      // accounting since last drain into Reader.stats
	span *obs.TraceSpan // per-segment trace span; nil when untraced
}

// openSegmentStream opens a stream over blocks of g: the segment file is
// opened, a reference on its mapping taken, and — with a pool — the first
// blocks submitted. The caller primes the stream with advance and must close
// it.
func (s *Store) openSegmentStream(g *segment, blocks []int, q *Query, cache *blockCache, pool *scanPool, quarantine bool) (*segmentStream, error) {
	f, err := s.fs.Open(g.path)
	if err != nil {
		return nil, err
	}
	g.mm.acquire()
	sc := &segmentStream{seg: g, f: f, mm: g.mm, q: q, cache: cache, quarantine: quarantine,
		pool: pool, blocks: blocks, order: g.seq}
	if pool == nil {
		sc.bs = getBlockScanner()
	}
	sc.fill()
	return sc, nil
}

// fill tops a pooled stream's in-flight window up to scanLookahead+1
// submitted blocks.
func (sc *segmentStream) fill() {
	if sc.pool == nil {
		return
	}
	for len(sc.pending) <= scanLookahead && sc.next < len(sc.blocks) {
		out := make(chan blockResult, 1)
		sc.pool.tasks <- blockTask{sc: sc, bi: sc.blocks[sc.next], out: out}
		sc.pending = append(sc.pending, out)
		sc.next++
	}
}

// nextBlock returns the next candidate block's result, false when the stream
// has none left. Inline, the block is fetched here, its rows materialized
// into the stream's own (fully consumed) record buffer.
func (sc *segmentStream) nextBlock() (blockResult, bool) {
	if sc.pool == nil {
		if sc.next == len(sc.blocks) {
			return blockResult{}, false
		}
		bi := sc.blocks[sc.next]
		sc.next++
		cb, hit, err := sc.bs.fetch(sc.seg, sc.f, sc.mm, sc.cache, bi)
		if err != nil {
			return blockResult{bi: bi, err: err}, true
		}
		return blockResult{bi: bi, recs: cb.appendMatching(sc.q, &sc.bs.sel, sc.recs[:0]), hit: hit}, true
	}
	if len(sc.pending) == 0 {
		return blockResult{}, false
	}
	t0 := time.Now()
	res := <-sc.pending[0]
	obsScanMergeWait.ObserveSince(t0)
	sc.pending = sc.pending[1:]
	return res, true
}

func (sc *segmentStream) head() (collector.Record, bool) { return sc.cur, sc.ok }

func (sc *segmentStream) advance() error {
	for {
		if sc.ri < len(sc.recs) {
			sc.cur = sc.recs[sc.ri]
			sc.ri++
			sc.ok = true
			return nil
		}
		res, ok := sc.nextBlock()
		if !ok {
			sc.ok = false
			return nil
		}
		if res.err != nil {
			if sc.quarantine && isCorrupt(res.err) {
				quarantineBlock(sc.seg.path, res.bi, res.err)
				sc.acc.quarantined++
				sc.span.AnnotateInt("quarantined_block", int64(res.bi))
				sc.fill()
				continue
			}
			sc.ok = false
			return fmt.Errorf("segment %s: %w", sc.seg.path, res.err)
		}
		sc.acc.noteBlock(sc.seg, res.bi, res.hit, sc.cache != nil, len(res.recs))
		// The previous block's records are all consumed (copied out by
		// value), so a pooled buffer goes back to the workers.
		if sc.pooled {
			putRecBuf(sc.recs)
		}
		sc.recs, sc.ri, sc.pooled = res.recs, 0, sc.pool != nil
		sc.fill()
	}
}

func (sc *segmentStream) key() (int64, uint64) { return sc.cur.Time.UnixNano(), sc.order }

func (sc *segmentStream) drain() scanDelta {
	d := sc.acc
	sc.acc = scanDelta{}
	return d
}

// close releases the stream's file and scratch and reclaims every pooled
// buffer it still owns. In-flight results are received, not abandoned: the
// workers are alive until the reader shuts the pool down (which happens only
// after all streams close), and every submitted task delivers exactly one
// result into its single-slot channel, so this drain never blocks
// indefinitely and no buffer is stranded in an unread channel.
func (sc *segmentStream) close() {
	sc.span.Finish()
	sc.span = nil
	for _, ch := range sc.pending {
		// Successful results own a pooled buffer even when zero rows matched
		// the columnar filter; only error results travel bufferless.
		if res := <-ch; res.err == nil {
			putRecBuf(res.recs)
		}
	}
	sc.pending = nil
	if sc.pooled {
		putRecBuf(sc.recs)
		sc.recs, sc.pooled = nil, false
	}
	if sc.bs != nil {
		putBlockScanner(sc.bs)
		sc.bs = nil
	}
	sc.mm.release()
	sc.mm = nil
	if sc.f != nil {
		sc.f.Close()
		sc.f = nil
	}
}
