package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"instability"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/detect"
	"instability/internal/serve"
	"instability/internal/store"
)

// appendChunk is how many decoded records the loader hands to
// store.Writer.AppendBatch at once.
const appendChunk = 1024

// livePath carries MRT wire bytes through the program's live path:
// collector decode, the sharded classification pipeline (classifier plus
// RIB mirror) with the anomaly detector on its event and day hooks, and a
// store append. It is the ingest workload's timed loop and the loader that
// builds the serve and live stores.
type livePath struct {
	st    *store.Store
	pp    *instability.ParallelPipeline
	det   *detect.Detector
	tk    *track   // feeder goroutine
	shTk  []*track // one per pipeline shard, for detector spans
	chunk []collector.Record
	n     int

	// opRecords, when set, splits the stream into operations of at least
	// that many records, each ending at the append that completes it; the
	// latency of each, from its first decode, goes to opLat.
	opRecords int
	opN       int
	opStart   time.Time
	opLat     latencies
}

func newLivePath(st *store.Store, tr *tracer) *livePath {
	shards := runtime.GOMAXPROCS(0)
	lp := &livePath{
		st:    st,
		pp:    instability.NewParallelPipeline(instability.ParallelConfig{Shards: shards}),
		det:   detect.New(detect.Config{}),
		tk:    tr.track("feeder"),
		chunk: make([]collector.Record, 0, appendChunk),
	}
	if tr == nil {
		lp.pp.Events = lp.det.Add
	} else {
		for i := 0; i < shards; i++ {
			lp.shTk = append(lp.shTk, tr.track(fmt.Sprintf("shard%d", i)))
		}
		lp.pp.Events = func(ev core.Event) {
			tk := lp.shTk[core.ShardOf(ev.Record, shards)]
			tk.begin(spDetectAdd)
			lp.det.Add(ev)
			tk.end(1)
		}
	}
	lp.pp.DayEnd = func(d core.Date) {
		lp.tk.begin(spDetectAdvance)
		lp.det.Advance(d.Time().AddDate(0, 0, 1))
		lp.tk.end(1)
	}
	return lp
}

// feedDay decodes one UTC day of MRT bytes, classifies and appends every
// record, and closes the day at the pipeline barrier.
func (lp *livePath) feedDay(mrt []byte, date core.Date) error {
	r := collector.NewMRTReader(bytes.NewReader(mrt))
	for {
		lp.tk.begin(spCollectorNext)
		rec, err := r.Next()
		lp.tk.end(1)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if core.DateOf(rec.Time) != date {
			return fmt.Errorf("decode: record at %v outside day %v", rec.Time, date)
		}
		lp.tk.begin(spPipelineFeed)
		lp.pp.Feed(rec)
		lp.tk.end(1)
		lp.chunk = append(lp.chunk, rec)
		if len(lp.chunk) == appendChunk {
			if err := lp.flush(); err != nil {
				return err
			}
		}
	}
	if err := lp.flush(); err != nil {
		return err
	}
	lp.tk.begin(spPipelineEndDay)
	lp.pp.EndDay(date)
	lp.tk.end(1)
	return nil
}

func (lp *livePath) flush() error {
	if len(lp.chunk) == 0 {
		return nil
	}
	lp.tk.begin(spStoreAppend)
	err := lp.st.Writer().AppendBatch(lp.chunk)
	lp.tk.end(int64(len(lp.chunk)))
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	lp.n += len(lp.chunk)
	lp.chunk = lp.chunk[:0]
	if lp.opRecords > 0 && lp.n-lp.opN >= lp.opRecords {
		lp.opLat = append(lp.opLat, msSince(lp.opStart))
		lp.opN, lp.opStart = lp.n, time.Now()
	}
	return nil
}

// finish stops the pipeline, closes the detector's open alerts and seals
// every appended record, returning the merged statistics and alerts.
func (lp *livePath) finish() (*core.Accumulator, []detect.Alert, error) {
	lp.pp.Close()
	alerts := lp.det.Finish()
	lp.tk.begin(spStoreSeal)
	err := lp.st.Writer().Seal()
	lp.tk.end(1)
	if err != nil {
		return nil, nil, fmt.Errorf("seal: %w", err)
	}
	return lp.pp.Acc, alerts, nil
}

// checkClasses compares the pipeline's per-day class counts with the
// reference taxonomy over the whole corpus.
func checkClasses(acc *core.Accumulator, c *corpus) error {
	var got []serve.DayClasses
	for _, d := range acc.Dates() {
		m := make(map[string]int, core.NumClasses)
		for _, cl := range core.Classes() {
			m[cl.String()] = acc.Days[d].Counts[cl]
		}
		got = append(got, serve.DayClasses{Date: d.String(), Classes: m})
	}
	if g, w := fmt.Sprint(got), fmt.Sprint(refDaily(c, refFilter{})); g != w {
		return fmt.Errorf("pipeline day classes %s, reference %s", g, w)
	}
	return nil
}

// checkAlerts requires every labelled episode to overlap an alert.
func checkAlerts(alerts []detect.Alert, truths []detect.Truth) error {
	if len(truths) == 0 {
		return nil
	}
	for _, tr := range truths {
		hit := false
		for _, a := range alerts {
			if a.Start.Before(tr.End) && tr.Start.Before(a.End) {
				hit = true
				break
			}
		}
		if !hit {
			return fmt.Errorf("episode %s [%v, %v) overlaps no alert (%d alerts)", tr.Scenario,
				tr.Start.Format(time.RFC3339), tr.End.Format(time.RFC3339), len(alerts))
		}
	}
	return nil
}
