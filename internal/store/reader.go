package store

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"log"
	"slices"

	"instability/internal/collector"
	"instability/internal/obs"
)

// ScanStats reports how much work a query actually did, making predicate
// pushdown measurable: a filtered query over a multi-segment store should
// show BlocksScanned (decompressed) well below BlocksTotal.
type ScanStats struct {
	SegmentsTotal     int // sealed segments in the store at query time
	SegmentsScanned   int // segments not skipped by segment-level pruning
	BlocksTotal       int // blocks across all segments
	BlocksSelected    int // blocks the per-block index selected as candidates
	BlocksScanned     int // blocks actually scanned (from disk or cache)
	BlocksCacheHit    int // scanned blocks served from the shared block cache
	BlocksCacheMiss   int // scanned blocks the cache had to load from disk
	BlocksQuarantined int // corrupt blocks skipped instead of failing the scan
	BlocksV1          int // scanned blocks in v1 (inline-attr) format
	BlocksV2          int // scanned blocks in v2 (dictionary) format
	RecordsScanned    int // records the scanned blocks hold
	// RecordsMaterialized counts record structs actually constructed by the
	// columnar kernels — rows that survived the column filters. The gap to
	// RecordsScanned is work the columnar scan skipped.
	RecordsMaterialized int
	RecordsMatched      int   // records that satisfied the full predicate
	MemRecords          int   // unsealed records considered from the memtable
	BytesReadDisk       int64 // compressed bytes read from files or mappings
	BytesDecompressed   int64 // bytes actually inflated by this query
	BytesFromCache      int64 // decompressed bytes served from the block cache
}

// Reader streams the result of a Query in timestamp order. It implements
// collector.RecordReader, so query results plug directly into the
// classifier pipeline and the replay tool.
type Reader struct {
	q       Query
	stats   ScanStats
	streams recHeap
	pool    *scanPool // nil when every stream fetches inline
	err     error     // sticky terminal scan error
	closed  bool
	gen     uint64         // store generation at query time
	workers int            // scan workers (1 = serial)
	span    *obs.TraceSpan // "store_scan" child of the request trace; nil when untraced
}

// Query opens a reader over everything currently in the store — sealed
// segments and the unsealed memtable — that may match q. Results are merged
// in timestamp order (ties broken by segment age, then log order).
func (s *Store) Query(q Query) (*Reader, error) {
	return s.QueryCtx(context.Background(), q)
}

// QueryCtx is Query carrying a request context: when ctx holds an active
// trace span, the scan appears in the trace as a "store_scan" child (one
// grandchild per scanned segment) annotated with the EXPLAIN profile at
// Close. An untraced ctx costs nothing.
func (s *Store) QueryCtx(ctx context.Context, q Query) (*Reader, error) {
	return s.QueryParallelCtx(ctx, q, 1)
}

// QueryParallel is Query with the segment scan fanned across workers. The
// result order and ScanStats accounting are identical to Query; workers <= 1
// (or a scan with at most one candidate block) fetches inline on the calling
// goroutine. The returned Reader must be Closed to release the worker pool.
//
// Failure behavior matches Query: corrupt blocks are quarantined (skipped
// and counted), I/O errors surface as a sticky partial-scan error from Next,
// and an error during setup closes every segment file already opened and
// drains every in-flight worker before returning.
func (s *Store) QueryParallel(q Query, workers int) (*Reader, error) {
	return s.QueryParallelCtx(context.Background(), q, workers)
}

// QueryParallelCtx is QueryParallel carrying a request context; see QueryCtx
// for the tracing contract. It is the one query setup path: candidate
// selection, scan accounting, stream open, and the memtable snapshot.
func (s *Store) QueryParallelCtx(ctx context.Context, q Query, workers int) (*Reader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obsQueries.Inc()
	if workers > 1 {
		obsParallelScans.Inc()
	} else {
		workers = 1
	}
	_, span := obs.StartChild(ctx, "store_scan")
	r := &Reader{q: q, gen: s.Generation(), workers: workers, span: span}
	r.stats.SegmentsTotal = len(s.segs)

	type candidate struct {
		seg    *segment
		blocks []int
	}
	cands := make([]candidate, 0, len(s.segs))
	totalBlocks := 0
	for _, g := range s.segs {
		r.stats.BlocksTotal += len(g.index.blocks)
		blocks, scan := g.candidateBlocks(q)
		if !scan {
			continue
		}
		r.stats.SegmentsScanned++
		if len(blocks) == 0 {
			continue
		}
		r.stats.BlocksSelected += len(blocks)
		cands = append(cands, candidate{seg: g, blocks: blocks})
		totalBlocks += len(blocks)
	}

	// A pool pays off only with blocks to overlap; for a single block it
	// would only add handoff overhead, so the stream fetches inline.
	if workers > 1 && totalBlocks > 1 {
		r.workers = min(workers, totalBlocks)
		obsScanWorkers.SetInt(int64(r.workers))
		r.pool = newScanPool(r.workers, 2*r.workers)
	}
	for _, c := range cands {
		sc, err := s.openSegmentStream(c.seg, c.blocks, &r.q, s.cache, r.pool, true)
		if err != nil {
			// r.Close drains the streams (and their in-flight blocks)
			// already set up, then shuts the pool down.
			r.err = err
			r.Close()
			return nil, err
		}
		sc.span = segmentSpan(span, c.seg, len(c.blocks))
		if err := sc.advance(); err != nil {
			r.retire(sc)
			r.err = err
			r.Close()
			return nil, err
		}
		if sc.ok {
			r.streams = append(r.streams, sc)
		} else {
			r.retire(sc)
		}
	}

	// Snapshot matching memtable records; they sort after sealed segments
	// on timestamp ties (they are strictly newer appends).
	if mem := s.memSnapshotLocked(q, &r.stats); len(mem) > 0 {
		ms := &memStream{recs: mem, order: ^uint64(0)}
		ms.advance()
		r.streams = append(r.streams, ms)
	}
	heap.Init(&r.streams)
	return r, nil
}

// Next returns the next matching record, io.EOF at the end of the result.
//
// A non-corruption I/O failure mid-scan (corrupt blocks are quarantined, not
// errored) ends the result: the error is sticky, every later Next returns
// the same partial-scan error, and the records already returned remain a
// valid prefix of the merged sequence. The Reader must still be Closed.
func (r *Reader) Next() (collector.Record, error) {
	if r.err != nil {
		return collector.Record{}, r.err
	}
	for len(r.streams) > 0 {
		st := r.streams[0]
		rec, ok := st.head()
		if !ok {
			heap.Pop(&r.streams)
			r.retire(st)
			continue
		}
		if err := st.advance(); err != nil {
			r.err = fmt.Errorf("store: partial scan: %w", err)
			return collector.Record{}, r.err
		}
		heap.Fix(&r.streams, 0)
		r.stats.fold(st.drain())
		if !r.q.match(rec) {
			continue
		}
		r.stats.RecordsMatched++
		return rec, nil
	}
	return collector.Record{}, io.EOF
}

// ReadAll drains the reader.
func (r *Reader) ReadAll() ([]collector.Record, error) {
	var out []collector.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Stats returns the scan counters accumulated so far; final after the
// reader returns io.EOF.
func (r *Reader) Stats() ScanStats { return r.stats }

// Close releases the reader's open segment files, publishes the query's
// pushdown accounting to the process metrics, and — when the query runs
// inside a trace — finishes the "store_scan" span with the EXPLAIN profile
// attached.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.release()
	publishScanStats(r.stats)
	if r.span != nil {
		r.Explain().annotate(r.span)
		r.span.SetError(r.err)
		r.span.Finish()
	}
	return nil
}

// release closes every stream still open and shuts the worker pool down.
func (r *Reader) release() {
	r.closed = true
	for _, st := range r.streams {
		r.retire(st)
	}
	r.streams = nil
	if r.pool != nil {
		// Workers deliver into single-slot buffered channels, so they never
		// block on abandoned results and the pool drains without a reader.
		r.pool.shutdown()
		r.pool = nil
	}
}

// retire folds a stream's undrained accounting into the reader's stats and
// closes it, so blocks scanned or quarantined during a stream's final
// advance (or before an early Close) are never under-reported.
func (r *Reader) retire(st stream) {
	r.stats.fold(st.drain())
	st.close()
}

// memSnapshotLocked copies the unsealed records matching q, sorted by time,
// counting every considered record into stats.MemRecords. Unsealed means the
// live memtable plus any windows a background seal has detached but not yet
// published: a record stays query-visible through every stage of the seal
// pipeline, flipping from this overlay to the sealed segment under the same
// lock hold. Detached records precede live ones of the same window, so the
// stable sort reproduces append order on timestamp ties exactly as when both
// halves lived in one memtable slice.
func (s *Store) memSnapshotLocked(q Query, stats *ScanStats) []collector.Record {
	var mem []collector.Record
	if b := s.sealing; b != nil {
		for _, sw := range b.windows[b.published:] {
			for _, rec := range sw.recs {
				stats.MemRecords++
				if q.match(rec) {
					mem = append(mem, rec)
				}
			}
		}
	}
	for _, mw := range s.mem {
		for _, rec := range mw.recs {
			stats.MemRecords++
			if q.match(rec) {
				mem = append(mem, rec)
			}
		}
	}
	slices.SortStableFunc(mem, func(a, b collector.Record) int {
		return a.Time.Compare(b.Time)
	})
	return mem
}

// candidateBlocks applies segment- and block-level pruning. scan=false means
// the whole segment is skipped without touching its file.
func (g *segment) candidateBlocks(q Query) (blocks []int, scan bool) {
	if !q.timeOverlaps(g.minTime, g.maxTime) {
		return nil, false
	}
	if q.hasPrefix() && !g.index.filter.contains(prefixKey(q.Prefix)) {
		return nil, false
	}
	var peerSet, originSet map[int32]bool
	if len(q.PeerAS) > 0 {
		if peerSet = g.index.peers.blockSet(q.PeerAS); peerSet == nil {
			return nil, false
		}
	}
	if len(q.OriginAS) > 0 {
		if originSet = g.index.origins.blockSet(q.OriginAS); originSet == nil {
			return nil, false
		}
		// An origin predicate can only be satisfied by announcements; if
		// the type filter excludes them the query is empty, handled by the
		// record-level match (blocks still pruned by postings here).
	}
	for i, bm := range g.index.blocks {
		if !q.timeOverlaps(bm.minTime, bm.maxTime) {
			continue
		}
		if peerSet != nil && !peerSet[int32(i)] {
			continue
		}
		if originSet != nil && !originSet[int32(i)] {
			continue
		}
		blocks = append(blocks, i)
	}
	return blocks, true
}

// scanDelta is incremental scan accounting drained from a stream into
// Reader.stats: records/blocks scanned, quarantined blocks, disk/cache/
// decompressed bytes, and the format-version split of the scanned blocks.
type scanDelta struct {
	scanned      int
	materialized int
	blocks       int
	hits, misses int
	quarantined  int
	bytesDisk    int64
	bytesOut     int64
	bytesCache   int64
	v1, v2       int
}

// noteBlock accumulates one successfully scanned block. hit reports whether
// the decoded block came out of the shared cache (no disk read, no inflate);
// cached whether a cache was in play at all, so hit/miss counters stay zero
// on cache-off scans. n is the number of records the block's columnar filter
// materialized.
func (d *scanDelta) noteBlock(g *segment, bi int, hit, cached bool, n int) {
	bm := g.index.blocks[bi]
	d.blocks++
	d.scanned += int(bm.count)
	d.materialized += n
	if hit {
		d.hits++
		d.bytesCache += int64(bm.ulen)
	} else {
		if cached {
			d.misses++
		}
		d.bytesDisk += int64(bm.clen)
		d.bytesOut += int64(bm.ulen)
	}
	if g.ver >= segVersionV2 {
		d.v2++
	} else {
		d.v1++
	}
}

// fold adds a drained delta into the query's ScanStats.
func (st *ScanStats) fold(d scanDelta) {
	st.RecordsScanned += d.scanned
	st.RecordsMaterialized += d.materialized
	st.BlocksScanned += d.blocks
	st.BlocksCacheHit += d.hits
	st.BlocksCacheMiss += d.misses
	st.BlocksQuarantined += d.quarantined
	st.BytesReadDisk += d.bytesDisk
	st.BytesDecompressed += d.bytesOut
	st.BytesFromCache += d.bytesCache
	st.BlocksV1 += d.v1
	st.BlocksV2 += d.v2
}

// segmentSpan opens the per-segment trace span under the scan span. Nil in,
// nil out: untraced queries pay nothing.
func segmentSpan(parent *obs.TraceSpan, g *segment, blocks int) *obs.TraceSpan {
	if parent == nil {
		return nil
	}
	sp := parent.StartChild("segment")
	sp.Annotate("path", g.path)
	sp.AnnotateInt("blocks_selected", int64(blocks))
	return sp
}

// stream is one sorted source feeding the merge heap.
type stream interface {
	head() (collector.Record, bool)
	// advance moves to the next record (the head at call time is consumed).
	advance() error
	// less orders streams by current head; ties broken by stream order.
	key() (t int64, order uint64)
	// drain returns and resets the scan accounting accumulated since the
	// last call, for incremental accounting into Reader.stats.
	drain() scanDelta
	close()
}

// quarantineBlock records one corrupt block skipped by a query: the process
// counter moves immediately (so a live scrape sees damage as it is found)
// and the segment is named in the log, since a quarantined block means bad
// media or a torn seal that an operator should know about.
func quarantineBlock(path string, bi int, err error) {
	obsQuarantinedBlocks.Inc()
	log.Printf("store: quarantined corrupt block %d of %s: %v", bi, path, err)
}

// memStream iterates the memtable snapshot.
type memStream struct {
	recs  []collector.Record
	pos   int
	cur   collector.Record
	ok    bool
	order uint64
}

func (ms *memStream) head() (collector.Record, bool) { return ms.cur, ms.ok }

func (ms *memStream) advance() error {
	if ms.pos < len(ms.recs) {
		ms.cur = ms.recs[ms.pos]
		ms.pos++
		ms.ok = true
	} else {
		ms.ok = false
	}
	return nil
}

func (ms *memStream) key() (int64, uint64) { return ms.cur.Time.UnixNano(), ms.order }

func (ms *memStream) drain() scanDelta { return scanDelta{} }

func (ms *memStream) close() {}

// recHeap is a min-heap of streams ordered by (head time, stream order).
type recHeap []stream

func (h recHeap) Len() int { return len(h) }

func (h recHeap) Less(i, j int) bool {
	ti, oi := h[i].key()
	tj, oj := h[j].key()
	// Exhausted streams sort last so Next can retire them.
	_, iok := h[i].head()
	_, jok := h[j].head()
	if iok != jok {
		return iok
	}
	if ti != tj {
		return ti < tj
	}
	return oi < oj
}

func (h recHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *recHeap) Push(x any) { *h = append(*h, x.(stream)) }

func (h *recHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
