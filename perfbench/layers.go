package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"instability/internal/collector"
	"instability/internal/store"
)

// calibration holds the allocation figures of the decode and append layers,
// measured alone: runtime allocation counters are process-wide, so they
// are read around a layer only while nothing else runs.
type calibration struct {
	records               int
	decodeAllocs, decodeB float64 // per record
	appendB               float64 // per record, background seals included
}

// calibrate decodes the sample's MRT bytes, then appends the decoded
// records to a scratch store and seals them, reading the allocation
// counters around each step.
func calibrate(dir string, days [][]byte) (calibration, error) {
	var cal calibration
	runtime.GC()
	b0, o0 := memAlloc()
	for _, mrt := range days {
		r := collector.NewMRTReader(bytes.NewReader(mrt))
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return cal, err
			}
			cal.records++
		}
	}
	b1, o1 := memAlloc()
	if cal.records == 0 {
		return cal, fmt.Errorf("calibration sample is empty")
	}
	cal.decodeB = float64(b1-b0) / float64(cal.records)
	cal.decodeAllocs = float64(o1-o0) / float64(cal.records)

	recs := make([]collector.Record, 0, cal.records)
	for _, mrt := range days {
		r := collector.NewMRTReader(bytes.NewReader(mrt))
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return cal, err
			}
			recs = append(recs, rec)
		}
	}
	sdir := filepath.Join(dir, "calibrate")
	defer os.RemoveAll(sdir)
	st, err := store.Open(sdir, store.Options{AutoSealRecords: 1 << 16})
	if err != nil {
		return cal, err
	}
	runtime.GC()
	b0, _ = memAlloc()
	err = appendAll(st, recs)
	b1, _ = memAlloc()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	cal.appendB = float64(b1-b0) / float64(cal.records)
	return cal, err
}

// appendAll appends records in chunks of appendChunk and seals them.
func appendAll(st *store.Store, recs []collector.Record) error {
	for i := 0; i < len(recs); i += appendChunk {
		if err := st.Writer().AppendBatch(recs[i:min(i+appendChunk, len(recs))]); err != nil {
			return err
		}
	}
	return st.Writer().Seal()
}

// layerFacts are the per-layer figures a workload knows besides spans.
type layerFacts struct {
	cal      calibration
	alerts   int // detector alerts of the last live-path run
	segments int // sealed segments of the workload's store at the end
}

// addLayerMetrics derives every per-layer metric of a traced run. Each
// comes from the timed phase where the layer ran there, and otherwise from
// set-up and checks; the note names the phase and the base.
func (r *result) addLayerMetrics(tr *tracer, f layerFacts) {
	nsPerItem := func(metricName string, span int) {
		a, ph := tr.pick(span)
		v, note := ratio(float64(a.total), float64(a.items), "items")
		r.addLayer(metricName, v, "ns", ph+", "+note)
	}
	perCall := func(metricName string, span int, self bool) {
		a, ph := tr.pick(span)
		d := a.total
		if self {
			d = a.self
		}
		v, note := ratio(float64(d)/1e6, float64(a.calls), "calls")
		r.addLayer(metricName, v, "ms", ph+", "+note)
	}
	cal := fmt.Sprintf("calibration, %d records", f.cal.records)

	nsPerItem("collector.decode_ns_per_record", spCollectorNext)
	r.addLayer("collector.decode_allocs_per_record", f.cal.decodeAllocs, "count", cal)
	r.addLayer("collector.decode_bytes_per_record", f.cal.decodeB, "B", cal)

	nsPerItem("pipeline.feed_ns_per_record", spPipelineFeed)
	perCall("pipeline.endday_ms", spPipelineEndDay, true)

	nsPerItem("detect.add_ns_per_event", spDetectAdd)
	perCall("detect.advance_ms_per_day", spDetectAdvance, false)
	r.addLayer("detect.alerts", float64(f.alerts), "count", "last live-path run")

	nsPerItem("store.append_ns_per_record", spStoreAppend)
	a, ph := tr.pick(spStoreAppend)
	r.addLayer("store.append_stall_max_ms", float64(a.max)/1e6, "ms", fmt.Sprintf("%s, max of %d calls", ph, a.calls))
	perCall("store.seal_join_ms", spStoreSeal, false)
	r.addLayer("store.segments", float64(f.segments), "count", "end of run")
	r.addLayer("store.alloc_bytes_per_record", f.cal.appendB, "B", cal)

	perCall("store.query_ms", spStoreQuery, false)
	sc, ph := tr.pickCounts(func(c *layerCounts) bool { return c.scans > 0 })
	v, note := ratio(float64(sc.scan.BlocksSelected), float64(sc.scan.BlocksTotal), "blocks")
	r.addLayer("store.blocks_selected_ratio", v, "ratio", ph+", "+note)
	v, note = ratio(float64(sc.scan.BlocksCacheHit), float64(sc.scan.BlocksCacheHit+sc.scan.BlocksCacheMiss), "blocks scanned")
	r.addLayer("store.block_cache_hit_ratio", v, "ratio", ph+", "+note)
	v, note = ratio(float64(sc.scan.BytesDecompressed), float64(sc.scans), "queries")
	r.addLayer("store.bytes_decompressed_per_query", v, "B", ph+", "+note)
	v, note = ratio(float64(sc.scan.RecordsMaterialized), float64(sc.scan.RecordsMatched), "matched")
	r.addLayer("store.materialized_per_matched", v, "ratio", ph+", "+note)

	pc, ph := tr.pickCounts(func(c *layerCounts) bool { return c.pairs > 0 })
	v, note = ratio(float64(pc.pairRemote-pc.pairEmbedded)/1e6, float64(pc.pairs), "query pairs")
	r.addLayer("serve.records_overhead_ms", v, "ms", ph+", "+note)
	ac, ph := tr.pickCounts(func(c *layerCounts) bool { return c.aggCold > 0 && c.aggCached > 0 })
	v, note = ratio(float64(ac.aggColdDur)/1e6, float64(ac.aggCold), "cold aggregates")
	r.addLayer("serve.aggregate_cold_ms", v, "ms", ph+", "+note)
	v, note = ratio(float64(ac.aggCachedDur)/1e6, float64(ac.aggCached), "cached aggregates")
	r.addLayer("serve.aggregate_cached_ms", v, "ms", ph+", "+note)
	v, note = ratio(float64(ac.cacheHits), float64(ac.cacheHits+ac.cacheMisses), "cache lookups")
	r.addLayer("serve.cache_hit_ratio", v, "ratio", ph+", "+note)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
