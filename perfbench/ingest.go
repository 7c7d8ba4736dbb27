package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/store"
)

// Corpus sizes in records. An ingest operation is a run of at least
// ingestOpRecords records, timed from its first decode to the append that
// completes it, with any day barrier on the way: a fixed amount of work,
// whatever the seed's daily volume.
const (
	ingestRecords   = 300_000
	serveRecords    = 400_000
	ingestOpRecords = 2048
)

// mrtCorpus is a corpus with each day's records encoded as MRT bytes.
type mrtCorpus struct {
	c    *corpus
	days [][]byte
}

func buildMRTCorpus(seed int64, records int) (*mrtCorpus, error) {
	days, err := corpusDays(seed, records)
	if err != nil {
		return nil, err
	}
	mc := &mrtCorpus{}
	c, err := generate(corpusConfig(seed, days), records, func(_ int, recs []collector.Record) error {
		b, err := encodeMRT(recs)
		mc.days = append(mc.days, b)
		return err
	})
	mc.c = c
	return mc, err
}

// loadStore runs the whole corpus through the live path into st and checks
// the pipeline's classes and the detector's alerts. It returns the number
// of records and alerts.
func loadStore(st *store.Store, mc *mrtCorpus, tr *tracer) (int, int, error) {
	lp := newLivePath(st, tr)
	for d, mrt := range mc.days {
		if err := lp.feedDay(mrt, core.DateOf(mc.c.dayTime(d))); err != nil {
			lp.pp.Close()
			return 0, 0, err
		}
	}
	acc, alerts, err := lp.finish()
	if err != nil {
		return 0, 0, err
	}
	if err := checkClasses(acc, mc.c); err != nil {
		return 0, 0, checkError{err}
	}
	if err := checkAlerts(alerts, mc.c.truths); err != nil {
		return 0, 0, checkError{err}
	}
	return lp.n, len(alerts), nil
}

// runIngest replays the MRT corpus through the live path into a fresh
// store, pass after pass, until the run length is spent; a pass ends when
// every record is sealed. Between passes, untimed, it checks the pass's
// classes, alerts and store contents against the reference.
func runIngest(e *env, res *result) error {
	tk := e.tr.track("main")
	mc, setupS, err := setup(e, func() (*mrtCorpus, error) { return buildMRTCorpus(e.seed, ingestRecords) }, func(*mrtCorpus) {})
	if err != nil {
		return err
	}
	c := mc.c
	var want fingerprint
	for i := range c.entries {
		want.addHash(c.entries[i].hash)
	}
	var mrtBytes int
	for _, b := range mc.days {
		mrtBytes += len(b)
	}
	res.notef("corpus: %d days, %d records, %d peers, %d MRT bytes, %d labelled episodes",
		c.days, len(c.entries), len(c.peers), mrtBytes, len(c.truths))
	var facts layerFacts
	if e.tr != nil {
		if facts.cal, err = calibrate(e.dir, mc.days[:7]); err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
	}

	var (
		slices   []slice // one per pass
		records  int64
		busy     time.Duration
		allocB   uint64
		passes   int
		diskB    int64
		diskRecs int64
	)
	// Whole passes until the run length is spent, and at least three.
	for busy < e.seconds || len(slices) < 3 {
		dir := filepath.Join(e.dir, fmt.Sprintf("ingest-%d", passes))
		e.tr.setPhase(phaseTimed)
		runtime.GC()
		a0, _ := memAlloc()
		s0 := stealSeconds()
		t0 := time.Now()
		st, err := store.Open(dir, store.Options{AutoSealRecords: 1 << 16})
		if err != nil {
			return err
		}
		lp := newLivePath(st, e.tr)
		lp.opRecords, lp.opStart = ingestOpRecords, t0
		for d, mrt := range mc.days {
			tk.begin(spBenchOp)
			err := lp.feedDay(mrt, core.DateOf(c.dayTime(d)))
			tk.end(1)
			if err != nil {
				lp.pp.Close()
				st.Close()
				return err
			}
		}
		acc, alerts, err := lp.finish()
		pass := time.Since(t0)
		busy += pass
		slices = append(slices, slice{secs: pass.Seconds(), steal: stealSeconds() - s0, work: float64(lp.n), lat: lp.opLat})
		a1, _ := memAlloc()
		if err != nil {
			st.Close()
			return err
		}
		allocB += a1 - a0
		records += int64(lp.n)
		passes++

		e.tr.setPhase(phaseCheck)
		err = checkClasses(acc, c)
		if err == nil {
			err = checkAlerts(alerts, c.truths)
		}
		if err != nil {
			err = checkError{err}
		} else {
			_, err = auditStore(st, want, tk, e.tr, nil)
		}
		if err == nil && busy >= e.seconds && len(slices) >= 3 {
			// The last pass's store also goes through the serving plane.
			err = auditServe(st, c, tk, e.tr, res)
		}
		stats := st.Stats()
		diskB, diskRecs = stats.DiskBytes, stats.Records
		facts.alerts, facts.segments = len(alerts), stats.Segments
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	res.attempted = records
	res.notef("ingest: %d passes, %d records in %.3f s; store %d B on disk for %d records, %d segments",
		passes, records, busy.Seconds(), diskB, diskRecs, facts.segments)

	if e.tr != nil {
		res.addLayerMetrics(e.tr, facts)
		return nil
	}
	res.addE2E("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setups))
	if err := res.addSliced(slices, "ingest_records_per_s, decoded to sealed; a slice is a pass"); err != nil {
		return err
	}
	res.addE2E("alloc_bytes_per_op", float64(allocB)/float64(records), "B", "ingest_alloc_bytes_per_record")
	res.addE2E("store_bytes_per_record", float64(diskB)/float64(diskRecs), "B", "on disk after the last pass")
	return nil
}
