package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/detect"
	"instability/internal/netaddr"
	"instability/internal/workload"
)

// corpusConfig is the scenario every workload draws from: the paper-scale
// DefaultConfig topology and rates over days days, with a pathological
// flood and the five labelled adversarial episodes in the first two weeks.
func corpusConfig(seed int64, days int) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.Days = days
	cfg.Incidents = []workload.Incident{
		{Kind: workload.PrefixHijack, Day: 3, Days: 1, Magnitude: 1},
		{Kind: workload.RouteLeak, Day: 5, Days: 1, Magnitude: 1},
		{Kind: workload.PathPoisoning, Day: 7, Days: 1, Magnitude: 1},
		{Kind: workload.PathologicalFlood, Day: 9, Days: 1, Magnitude: 1},
		{Kind: workload.SessionResetStorm, Day: 11, Days: 1, Magnitude: 1},
		{Kind: workload.WormPropagation, Day: 13, Days: 1, Magnitude: 1.5},
	}
	return cfg
}

// corpusDays returns how many days of the seed's scenario hold at least
// records records: its background volume over two weeks without incidents,
// which only add records, gives the days with a tenth to spare. The seed
// draws the topology and the vendor mix, and daily volumes differ more
// than threefold between draws; generate then cuts the corpus at records,
// so store sizes, and what the caches hold of them, stay alike across
// seeds.
func corpusDays(seed int64, records int) (int, error) {
	const probeDays = 14
	cfg := corpusConfig(seed, probeDays)
	cfg.Incidents = nil
	g, err := workload.New(cfg)
	if err != nil {
		return 0, err
	}
	n := 0
	g.Run(func(collector.Record) { n++ }, nil)
	if n == 0 {
		return 0, fmt.Errorf("corpus: seed %d generates no records", seed)
	}
	return min(max(records*probeDays*11/(10*n)+1, probeDays), 366), nil
}

// entry is the compact reference form of one corpus record: what the
// filters, the fingerprint and the taxonomy checks need, without the
// attribute slices.
type entry struct {
	t        int64 // Unix ns
	hash     uint64
	prefix   netaddr.Prefix
	peerAddr netaddr.Addr
	peer     bgp.ASN
	origin   bgp.ASN // 0 when the record has none
	typ      collector.RecType
	class    uint8 // reference taxonomy class over the whole stream
}

func entryOf(rec collector.Record) entry {
	e := entry{
		t: rec.Time.UnixNano(), hash: recordHash(rec), prefix: rec.Prefix,
		peerAddr: rec.PeerAddr, peer: rec.PeerAS, typ: rec.Type,
	}
	e.origin, _ = refOrigin(rec)
	return e
}

// corpus is a generated update stream in reference form. Records are in
// time order; day d holds entries[dayIdx[d]:dayIdx[d+1]].
type corpus struct {
	start   time.Time
	days    int
	entries []entry
	dayIdx  []int
	truths  []detect.Truth
	peers   []bgp.ASN
	origins []bgp.ASN
}

// generate runs the scenario, classifies each record with the reference
// taxonomy and hands every day's records to onDay (which must not keep the
// slice), ending after the day that brings the corpus to at least records
// records. Record times are cut to whole seconds, the resolution of MRT, so
// the corpus survives the wire format unchanged.
func generate(cfg workload.Config, records int, onDay func(day int, recs []collector.Record) error) (*corpus, error) {
	g, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	c := &corpus{start: cfg.Start}
	tax := newRefTaxonomy()
	peers := make(map[bgp.ASN]bool)
	origins := make(map[bgp.ASN]bool)
	var day []collector.Record
	var ferr error
	g.Run(func(rec collector.Record) {
		rec.Time = rec.Time.Truncate(time.Second)
		day = append(day, rec)
	}, func(d int, end time.Time) {
		if len(c.entries) >= records {
			day = day[:0]
			return
		}
		c.days++
		c.dayIdx = append(c.dayIdx, len(c.entries))
		lo, hi := end.Add(-24*time.Hour).UnixNano(), end.UnixNano()
		for _, rec := range day {
			e := entryOf(rec)
			e.class = tax.classify(rec)
			if e.t < lo || e.t >= hi {
				ferr = fmt.Errorf("corpus: record at %v outside day %d", rec.Time, d)
			}
			if e.origin != 0 {
				origins[e.origin] = true
			}
			peers[rec.PeerAS] = true
			c.entries = append(c.entries, e)
		}
		if ferr == nil && onDay != nil {
			ferr = onDay(d, day)
		}
		day = day[:0]
	})
	if ferr != nil {
		return nil, ferr
	}
	c.dayIdx = append(c.dayIdx, len(c.entries))
	for _, t := range g.GroundTruth() {
		if t.Start.Before(c.end()) {
			c.truths = append(c.truths, t)
		}
	}
	c.peers = sortedASNs(peers)
	c.origins = sortedASNs(origins)
	return c, nil
}

func sortedASNs(m map[bgp.ASN]bool) []bgp.ASN {
	out := make([]bgp.ASN, 0, len(m))
	for as := range m {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// encodeMRT writes records as MRT BGP4MP entries.
func encodeMRT(recs []collector.Record) ([]byte, error) {
	var buf bytes.Buffer
	w := collector.NewMRTWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// dayTime is the start of corpus day d.
func (c *corpus) dayTime(d int) time.Time { return c.start.AddDate(0, 0, d) }

// end is the instant after the last corpus day.
func (c *corpus) end() time.Time { return c.dayTime(c.days) }

// window is the filter whose time range starts at entry i and holds about
// n entries (fewer when the corpus ends first or records share the
// boundary second): windows sized by records, not by time, cost the same
// whatever a seed's daily volume.
func (c *corpus) window(i, n int) refFilter {
	f := refFilter{from: c.entries[i].t, to: c.end().UnixNano()}
	if j := i + n; j < len(c.entries) {
		f.to = c.entries[j].t
	}
	return f
}

// span returns the entries in [from, to) (Unix ns), by binary search.
func (c *corpus) span(from, to int64) []entry {
	lo := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].t >= from })
	hi := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].t >= to })
	return c.entries[lo:hi]
}

// matchEntry applies a reference filter to an entry.
func (f refFilter) matchEntry(e *entry) bool {
	if f.from != 0 && e.t < f.from || f.to != 0 && e.t >= f.to {
		return false
	}
	if f.peer != 0 && e.peer != f.peer {
		return false
	}
	if f.origin != 0 && e.origin != f.origin {
		return false
	}
	if f.prefix != (netaddr.Prefix{}) && e.prefix != f.prefix {
		return false
	}
	return true
}

// expect is the reference fingerprint of a filter over the corpus.
func (c *corpus) expect(f refFilter) fingerprint {
	from, to := f.from, f.to
	if to == 0 {
		to = c.end().UnixNano()
	}
	var fp fingerprint
	for i, es := 0, c.span(from, to); i < len(es); i++ {
		if f.matchEntry(&es[i]) {
			fp.addHash(es[i].hash)
		}
	}
	return fp
}

// classCounts tallies reference classes per UTC day over [from, to).
func (c *corpus) classCounts(from, to int64) map[int64]*[numRefClasses]int {
	out := make(map[int64]*[numRefClasses]int)
	for _, e := range c.span(from, to) {
		d := dayOf(e.t)
		if out[d] == nil {
			out[d] = new([numRefClasses]int)
		}
		out[d][e.class]++
	}
	return out
}
