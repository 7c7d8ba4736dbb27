package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/store"
)

// The live workload's corpus: a history loaded at set-up whose decoded
// blocks exceed the 32 MiB block cache, then a tail appended during the
// timed part at a fixed rate.
const (
	liveHistoryRecords = 1_200_000
	liveTailRecords    = 350_000
	liveTick           = 5 * time.Millisecond
	liveBatch          = 100 // records per tick: 20,000 records/s
	// liveRecentRecords sizes the newest-records query window.
	liveRecentRecords = 250
)

type liveSet struct {
	c      *corpus
	hist   int // entries in the history
	hdays  int // days in the history
	tail   []collector.Record
	st     *store.Store
	dir    string
	alerts int
	cal    [][]byte // first week of history as MRT, for calibration
}

func (s *liveSet) close() error {
	err := s.st.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func setupLive(e *env, n int) (*liveSet, error) {
	s := &liveSet{dir: filepath.Join(e.dir, fmt.Sprintf("live-%d", n))}
	st, err := store.Open(s.dir, store.Options{AutoSealRecords: 1 << 16, BlockCacheBytes: blockCacheBytes})
	if err != nil {
		return nil, err
	}
	s.st = st
	lp := newLivePath(st, e.tr)
	days, err := corpusDays(e.seed, liveHistoryRecords+liveTailRecords)
	if err != nil {
		s.close()
		return nil, err
	}
	// Days are loaded while the history holds fewer than
	// liveHistoryRecords; the rest of the corpus is the tail.
	loaded := 0
	cfg := corpusConfig(e.seed, days)
	s.c, err = generate(cfg, liveHistoryRecords+liveTailRecords, func(d int, recs []collector.Record) error {
		if loaded >= liveHistoryRecords {
			s.tail = append(s.tail, recs...)
			return nil
		}
		loaded += len(recs)
		s.hdays = d + 1
		mrt, err := encodeMRT(recs)
		if err != nil {
			return err
		}
		if e.tr != nil && d < 7 {
			s.cal = append(s.cal, mrt)
		}
		return lp.feedDay(mrt, core.DateOf(cfg.Start.AddDate(0, 0, d)))
	})
	if err != nil {
		lp.pp.Close()
		s.close()
		return nil, err
	}
	acc, alerts, err := lp.finish()
	if err == nil {
		s.hist = s.c.dayIdx[s.hdays]
		s.alerts = len(alerts)
		// The pipeline saw the history only: check it against the
		// reference restricted to those days.
		hc := *s.c
		hc.days, hc.entries = s.hdays, s.c.entries[:s.hist]
		if err = checkClasses(acc, &hc); err == nil {
			err = checkAlerts(alerts, s.c.truths)
		}
		if err != nil {
			err = checkError{err}
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// liveQuery is one query of the live workload and its answer.
type liveQuery struct {
	f    refFilter
	fp   fingerprint
	lat  float64
	done time.Time
}

// runLive appends the tail open-loop at a fixed rate while a second
// goroutine queries the same store closed-loop: recent windows that
// overlap the memtable and fresh segments, and per-peer histories over
// days. Every query window ends at or before the last acknowledged append,
// so its answer is known exactly.
func runLive(e *env, res *result) error {
	n := 0
	set, setupS, err := setup(e, func() (*liveSet, error) { n++; return setupLive(e, n) },
		func(s *liveSet) { s.close() })
	if err != nil {
		return err
	}
	defer set.close()
	c := set.c
	st0 := set.st.Stats()
	res.notef("corpus: %d history days, %d history records, %d tail records; store %d segments, %d blocks, %d B on disk; block cache budget %d B",
		set.hdays, set.hist, len(set.tail), st0.Segments, st0.Blocks, st0.DiskBytes, st0.BlockCache.BudgetBytes)

	e.tr.setPhase(phaseTimed)
	var (
		acked    atomic.Int64 // tail records acknowledged
		appLat   latencies
		lateness latencies
		appErr   error
		queries  []liveQuery
		qErr     error
		wg       sync.WaitGroup
	)
	runtime.GC()
	a0, _ := memAlloc()
	t0 := time.Now()
	deadline := t0.Add(e.seconds)
	steal := startStealClock(t0, e.seconds, slicesPerRun(e.seconds))
	wg.Add(2)
	go func() {
		defer wg.Done()
		tk := e.tr.track("appender")
		w := set.st.Writer()
		for i := 0; (i+1)*liveBatch <= len(set.tail); i++ {
			due := t0.Add(time.Duration(i) * liveTick)
			if !due.Before(deadline) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			lateness = append(lateness, msSince(due))
			tk.begin(spStoreAppend)
			err := w.AppendBatch(set.tail[i*liveBatch : (i+1)*liveBatch])
			tk.end(liveBatch)
			if err != nil {
				appErr = err
				return
			}
			appLat = append(appLat, msSince(due))
			acked.Store(int64((i + 1) * liveBatch))
		}
	}()
	go func() {
		defer wg.Done()
		tk := e.tr.track("query")
		rng := rand.New(rand.NewSource(e.seed*104729 + 1))
		for i := 0; time.Now().Before(deadline); i++ {
			// Windows end at the last acknowledged record and hold a fixed
			// number of records; peers come in turn.
			last := set.hist + int(acked.Load())
			peer := c.peers[(i/3)%len(c.peers)]
			var f refFilter
			switch i % 3 {
			case 0: // the newest records: memtable and the newest segment
				f = c.window(last-liveRecentRecords, liveRecentRecords)
			case 1: // one peer over the last day's worth of records
				f = c.window(last-dayRecords, dayRecords)
				f.peer = peer
			case 2: // one peer over a week's worth anywhere in the history
				f = c.window(rng.Intn(set.hist-weekRecords), weekRecords)
				f.peer = peer
			}
			f.to = min(f.to, c.entries[last-1].t)
			q, err := f.query()
			if err != nil {
				qErr = err
				return
			}
			qt := time.Now()
			fp, stats, err := scanEmbedded(set.st, q, tk)
			if err != nil {
				qErr = err
				return
			}
			e.tr.addScan(stats)
			queries = append(queries, liveQuery{f: f, fp: fp, lat: msSince(qt), done: time.Now()})
		}
	}()
	wg.Wait()
	elapsed := time.Since(t0)
	a1, _ := memAlloc()
	e.tr.setPhase(phaseCheck)
	if appErr != nil {
		return fmt.Errorf("append: %w", appErr)
	}
	if qErr != nil {
		return fmt.Errorf("query: %w", qErr)
	}

	for _, q := range queries {
		if want := c.expect(q.f); q.fp != want {
			return checkFail("live query %s: %d records (sum %x), reference %d (sum %x)",
				q.f.spec(), q.fp.n, q.fp.sum, want.n, want.sum)
		}
	}
	k := int(acked.Load())
	var want fingerprint
	for _, en := range c.entries[:set.hist+k] {
		want.addHash(en.hash)
	}
	tk := e.tr.track("check")
	if _, err := auditStore(set.st, want, tk, e.tr, res); err != nil {
		return err
	}
	hc := *c
	hc.entries = c.entries[:set.hist+k]
	if err := auditServe(set.st, &hc, tk, e.tr, res); err != nil {
		return err
	}
	st1 := set.st.Stats()

	res.attempted = int64(len(appLat) + len(queries))
	var qLat latencies
	var doneAt []time.Time
	for _, q := range queries {
		qLat = append(qLat, q.lat)
		doneAt = append(doneAt, q.done)
	}
	p99, ok := appLat.pct(0.99)
	if !ok {
		res.notef("live: %d appends are too few for live_append_p99_ms", len(appLat))
	}
	late50, _ := lateness.pct(0.5)
	sort.Float64s(lateness)
	res.notef("live: %d appends of %d records (%.0f records/s achieved, %.0f scheduled); live_append_p99_ms %.4f (n=%d); generator late p50 %.4f ms, max %.4f ms",
		len(appLat), liveBatch, float64(k)/elapsed.Seconds(), float64(liveBatch)/liveTick.Seconds(),
		p99, len(appLat), late50, lateness[len(lateness)-1])
	res.notef("live: %d queries in %.3f s; store now %d segments (%d sealed in the run), %d sealed records, %d in memory; block cache %d hits, %d misses, %d evictions",
		len(queries), elapsed.Seconds(), st1.Segments, st1.Segments-st0.Segments, st1.Records, st1.MemRecords,
		st1.BlockCache.Hits, st1.BlockCache.Misses, st1.BlockCache.Evictions)

	if e.tr != nil {
		cal, err := calibrate(e.dir, set.cal)
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		res.addLayerMetrics(e.tr, layerFacts{cal: cal, alerts: set.alerts, segments: st1.Segments})
		return nil
	}
	res.addE2E("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setups))
	if err := res.addSliced(timeSlices(doneAt, qLat, t0, e.seconds, steal.wait()), "live queries per second"); err != nil {
		return err
	}
	res.addE2E("alloc_bytes_per_op", float64(a1-a0)/float64(res.attempted), "B", "per append batch or query")
	res.addE2E("store_bytes_per_record", float64(st1.DiskBytes)/float64(st1.Records), "B", "sealed, after the run")
	return nil
}
