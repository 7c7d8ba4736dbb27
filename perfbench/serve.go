package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
	"instability/internal/serve"
	"instability/internal/store"
)

const serveClients = 2

// serveOp is one client request and what came back.
type serveOp struct {
	kind  string // "records" or an aggregate kind
	panel bool   // a re-polled dashboard panel
	f     refFilter
	lat   float64 // ms
	fp    fingerprint
	agg   *serve.Aggregate
	done  time.Time
}

// panels are the dashboard: fixed windows every client re-polls each
// round. Those not starting at the first corpus day hit the known
// window-dependent aggregate fault.
func panels(c *corpus) []serveOp {
	days := func(a, b int) refFilter {
		return refFilter{from: c.dayTime(a).UnixNano(), to: c.dayTime(b).UnixNano()}
	}
	return []serveOp{
		{kind: serve.KindClasses, f: days(0, 7)},
		{kind: serve.KindDaily, f: days(0, 7)},
		{kind: serve.KindPeerMatrix, f: days(0, 7)},
		{kind: serve.KindTopOrigins, f: days(0, c.days)},
		{kind: serve.KindDaily, f: days(c.days-7, c.days)},
		{kind: serve.KindClasses, f: days(1, 2)},
		{kind: serve.KindPeerMatrix, f: days(c.days-1, c.days)},
	}
}

// serveSet is the serve workload's set-up: a store built through the live
// path, its block cache warmed by a full scan, and a server whose
// aggregate cache holds the dashboard panels.
type serveSet struct {
	mc     *mrtCorpus
	st     *store.Store
	srv    *server
	dir    string
	alerts int
}

func (s *serveSet) close() error {
	err := s.srv.close()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func setupServe(e *env, n int) (*serveSet, error) {
	mc, err := buildMRTCorpus(e.seed, serveRecords)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.dir, fmt.Sprintf("serve-%d", n))
	st, err := store.Open(dir, store.Options{AutoSealRecords: 1 << 16, BlockCacheBytes: blockCacheBytes})
	if err != nil {
		return nil, err
	}
	s := &serveSet{mc: mc, st: st, dir: dir}
	tk := e.tr.track(fmt.Sprintf("setup%d", n))
	if _, s.alerts, err = loadStore(st, mc, e.tr); err == nil {
		_, _, err = scanEmbedded(st, store.Query{}, tk)
	}
	if err == nil {
		s.srv, err = startServer(st)
	}
	for _, p := range panels(mc.c) {
		if err != nil {
			break
		}
		_, err = timedAggregate(s.srv, p.kind, p.f.spec(), tk, e.tr)
	}
	if err != nil {
		if s.srv != nil {
			s.srv.close()
		}
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

// adhocWindows hands out ad-hoc aggregate windows that are never
// repeated within a run.
type adhocWindows struct {
	mu   sync.Mutex
	used map[string]bool
}

func (a *adhocWindows) unique(kind string, f refFilter) refFilter {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.used[fmt.Sprint(kind, f.from, f.to)] {
		f.to += int64(time.Second)
	}
	a.used[fmt.Sprint(kind, f.from, f.to)] = true
	return f
}

// Record-sized windows of the serve mix: a day, a week, and the ad-hoc
// aggregate range, at the corpus's typical daily volume.
const (
	dayRecords  = 16000
	weekRecords = 7 * dayRecords
)

// round draws a client's round n: two record streams of each shape, every
// dashboard panel, and five ad-hoc aggregates, in a seeded order. Windows
// hold a fixed number of records, and peers come in turn: per-peer volumes
// differ by orders of magnitude, and asking each peer equally often over a
// fixed-size window keeps the work per round the same on every seed.
func round(n int, rng *rand.Rand, c *corpus, adhoc *adhocWindows) []serveOp {
	var ops []serveOp
	rec := func(f refFilter) { ops = append(ops, serveOp{kind: "records", f: f}) }
	any := func(size int) int { return rng.Intn(len(c.entries) - size) }
	for i := 0; i < 2; i++ {
		f := c.window(any(dayRecords), dayRecords)
		f.peer = c.peers[(2*n+i)%len(c.peers)]
		rec(f)
		rec(refFilter{prefix: c.entries[rng.Intn(len(c.entries))].prefix})
		f = c.window(any(weekRecords), weekRecords)
		f.origin = c.origins[rng.Intn(len(c.origins))]
		rec(f)
		rec(c.window(any(dayRecords), dayRecords))
	}
	for _, p := range panels(c) {
		p.panel = true
		ops = append(ops, p)
	}
	// Classifier-backed ad-hoc windows start at the first record, where
	// the program's answer is right; top_origins windows start anywhere.
	for _, kind := range []string{serve.KindClasses, serve.KindDaily, serve.KindPeerMatrix} {
		f := c.window(0, dayRecords/4+rng.Intn(dayRecords/2))
		ops = append(ops, serveOp{kind: kind, f: adhoc.unique(kind, f)})
	}
	for i := 0; i < 2; i++ {
		f := c.window(any(dayRecords), dayRecords/4+rng.Intn(dayRecords))
		ops = append(ops, serveOp{kind: serve.KindTopOrigins, f: adhoc.unique(serve.KindTopOrigins, f)})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// runServe drives two closed-loop clients against the serving plane, each
// running whole rounds until the run length is spent, then checks every
// answer against the reference.
func runServe(e *env, res *result) error {
	n := 0
	set, setupS, err := setup(e, func() (*serveSet, error) { n++; return setupServe(e, n) },
		func(s *serveSet) { s.close() })
	if err != nil {
		return err
	}
	defer set.close()
	c := set.mc.c
	stats := set.st.Stats()
	res.notef("corpus: %d days, %d records, %d peers, %d origins; store %d segments, %d blocks, %d B on disk; block cache %d of %d B",
		c.days, len(c.entries), len(c.peers), len(c.origins), stats.Segments, stats.Blocks, stats.DiskBytes,
		stats.BlockCache.UsedBytes, stats.BlockCache.BudgetBytes)

	e.tr.setPhase(phaseTimed)
	runtime.GC()
	adhoc := &adhocWindows{used: make(map[string]bool)}
	results := make([][]serveOp, serveClients)
	errs := make([]error, serveClients)
	a0, _ := memAlloc()
	t0 := time.Now()
	deadline := t0.Add(e.seconds)
	steal := startStealClock(t0, e.seconds, slicesPerRun(e.seconds))
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = serveClient(e, set, i, deadline, adhoc)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	a1, _ := memAlloc()
	e.tr.setPhase(phaseCheck)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var all, recLat, aggLat, panelLat, adhocLat latencies
	var ops []serveOp
	var doneAt []time.Time
	checker := &serveChecker{c: c, memo: make(map[string]string), faults: make(map[string]string)}
	for _, r := range results {
		ops = append(ops, r...)
	}
	for _, op := range ops {
		all = append(all, op.lat)
		doneAt = append(doneAt, op.done)
		if op.kind == "records" {
			recLat = append(recLat, op.lat)
		} else {
			aggLat = append(aggLat, op.lat)
			if op.panel {
				panelLat = append(panelLat, op.lat)
			} else {
				adhocLat = append(adhocLat, op.lat)
			}
		}
		ok, err := checker.check(&op)
		if err != nil {
			return err
		}
		if !ok {
			res.failed++
		}
	}
	res.attempted = int64(len(ops))
	for _, key := range sortedStrings(checker.faults) {
		res.notef("serve: known fault, window-dependent aggregate %s: program %s", key, checker.faults[key])
	}
	var want fingerprint
	for i := range c.entries {
		want.addHash(c.entries[i].hash)
	}
	if _, err := auditStore(set.st, want, e.tr.track("check"), e.tr, res); err != nil {
		return err
	}
	h, m, _, _ := set.srv.srv.CacheCounts()
	res.notef("serve: %d ops (%d record streams, %d aggregates) in %.3f s by %d clients; aggregate cache %d hits, %d misses",
		len(ops), len(recLat), len(aggLat), elapsed.Seconds(), serveClients, h, m)
	for _, l := range []struct {
		name string
		l    latencies
	}{{"records", recLat}, {"aggregate", aggLat}, {"panel", panelLat}, {"adhoc", adhocLat}} {
		p50, _ := l.l.pct(0.5)
		p90, ok := l.l.pct(0.9)
		if ok {
			res.notef("serve: %s_p50_ms %.4f, %s_p90_ms %.4f (n=%d)", l.name, p50, l.name, p90, len(l.l))
		} else {
			res.notef("serve: %s_p50_ms %.4f (n=%d; too few for p90)", l.name, p50, len(l.l))
		}
	}

	if e.tr != nil {
		cal, err := calibrate(e.dir, set.mc.days[:7])
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		res.addLayerMetrics(e.tr, layerFacts{cal: cal, alerts: set.alerts, segments: stats.Segments})
		return nil
	}
	res.addE2E("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setups))
	if err := res.addSliced(timeSlices(doneAt, all, t0, e.seconds, steal.wait()), "serve_ops_per_s"); err != nil {
		return err
	}
	res.addE2E("alloc_bytes_per_op", float64(a1-a0)/float64(len(ops)), "B", "per request, client and server")
	res.addE2E("store_bytes_per_record", float64(stats.DiskBytes)/float64(stats.Records), "B", "served store")
	return nil
}

// serveClient runs whole rounds until the deadline has passed.
func serveClient(e *env, set *serveSet, id int, deadline time.Time, adhoc *adhocWindows) ([]serveOp, error) {
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(id)))
	tk := e.tr.track(fmt.Sprintf("client%d", id))
	cl := set.srv.cl
	var done []serveOp
	for n := id; time.Now().Before(deadline); n += serveClients {
		for _, op := range round(n, rng, set.mc.c, adhoc) {
			t0 := time.Now()
			tk.begin(spBenchOp)
			var err error
			if op.kind == "records" {
				op.fp, err = scanRemote(cl, op.f.spec(), tk)
			} else {
				op.agg, err = timedAggregate(set.srv, op.kind, op.f.spec(), tk, e.tr)
			}
			tk.end(1)
			op.lat = msSince(t0)
			op.done = time.Now()
			if err != nil {
				return nil, fmt.Errorf("client %d %s %s: %w", id, op.kind, op.f.spec(), err)
			}
			if op.kind == "records" && e.tr != nil {
				// The same spec embedded: the store's share of the remote
				// query, and the serving plane's overhead over it.
				q, err := op.f.query()
				if err != nil {
					return nil, err
				}
				t1 := time.Now()
				_, stats, err := scanEmbedded(set.st, q, tk)
				if err != nil {
					return nil, err
				}
				e.tr.addPair(time.Duration(op.lat*1e6), time.Since(t1))
				e.tr.addScan(stats)
			}
			done = append(done, op)
		}
	}
	return done, nil
}

// serveChecker checks answers, computing each distinct reference answer
// once: panels repeat every round.
type serveChecker struct {
	c      *corpus
	memo   map[string]string
	faults map[string]string // first wrong answer per request, for the notes
}

func (k *serveChecker) ref(op *serveOp, compute func() string) string {
	key := fmt.Sprint(op.kind, op.f)
	want, ok := k.memo[key]
	if !ok {
		want = compute()
		k.memo[key] = want
	}
	return want
}

// check checks one answer. A record stream or top_origins answer that
// differs from the reference is a wrong answer and fails the run; a
// classifier-backed aggregate that differs is counted as a failed
// operation (false), the known window-dependent aggregate fault.
func (k *serveChecker) check(op *serveOp) (bool, error) {
	c := k.c
	switch op.kind {
	case "records":
		if want := c.expect(op.f); op.fp != want {
			return false, checkFail("records %s: %d records (sum %x), reference %d (sum %x)",
				op.f.spec(), op.fp.n, op.fp.sum, want.n, want.sum)
		}
		return true, nil
	case serve.KindTopOrigins:
		want := k.ref(op, func() string {
			top, n := refTopOrigins(c, op.f, 10)
			return fmt.Sprint(n, top)
		})
		if got := fmt.Sprint(op.agg.Records, op.agg.TopOrigins); got != want {
			return false, checkFail("top_origins %s: records and ranking %v, reference %v", op.f.spec(), got, want)
		}
		return true, nil
	case serve.KindDaily:
		want := k.ref(op, func() string { return fmt.Sprint(refDaily(c, op.f)) })
		return k.same(op, fmt.Sprint(op.agg.Daily), want), nil
	case serve.KindClasses:
		want := k.ref(op, func() string {
			var sum [numRefClasses]int
			for _, day := range c.classCounts(op.f.from, windowEnd(c, op.f)) {
				for i, v := range day {
					sum[i] += v
				}
			}
			return fmt.Sprint(classMap(&sum))
		})
		return k.same(op, fmt.Sprint(op.agg.Classes), want), nil
	case serve.KindPeerMatrix:
		want := k.ref(op, func() string { return fmt.Sprint(refPeerMatrix(c, op.f)) })
		return k.same(op, fmt.Sprint(op.agg.PeerMatrix), want), nil
	}
	return false, fmt.Errorf("unknown op kind %q", op.kind)
}

// same compares a classifier-backed answer with the reference and keeps
// the first wrong one of each request for the notes.
func (k *serveChecker) same(op *serveOp, got, want string) bool {
	key := fmt.Sprint(op.kind, " ", op.f.spec())
	if got != want && k.faults[key] == "" {
		const max = 160
		k.faults[key] = fmt.Sprintf("%.*s; reference %.*s", max, got, max, want)
	}
	return got == want
}

func classMap(counts *[numRefClasses]int) map[string]int {
	m := make(map[string]int, numRefClasses)
	for i, name := range classNames {
		m[name] = counts[i]
	}
	return m
}

// refDaily is the `daily` answer under the reference taxonomy: each day of
// the window that holds records, in order, with every class.
func refDaily(c *corpus, f refFilter) []serve.DayClasses {
	counts := c.classCounts(f.from, windowEnd(c, f))
	out := make([]serve.DayClasses, 0, len(counts))
	for _, d := range sortedKeys(counts) {
		date := time.Unix(0, d*int64(24*time.Hour)).UTC().Format("2006-01-02")
		out = append(out, serve.DayClasses{Date: date, Classes: classMap(counts[d])})
	}
	return out
}

func sortedStrings(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// refTopOrigins ranks origins by announcements in the window, most first,
// ties by AS number, and returns the top n with the window's record count.
func refTopOrigins(c *corpus, f refFilter, n int) ([]serve.OriginCount, int) {
	counts := make(map[bgp.ASN]int)
	es := c.span(f.from, windowEnd(c, f))
	for i := range es {
		if es[i].origin != 0 {
			counts[es[i].origin]++
		}
	}
	out := make([]serve.OriginCount, 0, len(counts))
	for as, k := range counts {
		out = append(out, serve.OriginCount{AS: uint16(as), Announces: k})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Announces != out[j].Announces {
			return out[i].Announces > out[j].Announces
		}
		return out[i].AS < out[j].AS
	})
	return out[:min(n, len(out))], len(es)
}

// refPeerMatrix is the per-peer class and announce/withdraw table of the
// window under the reference taxonomy of the whole stream.
func refPeerMatrix(c *corpus, f refFilter) []serve.PeerClasses {
	type peerKey struct {
		as   bgp.ASN
		addr netaddr.Addr
	}
	rows := make(map[peerKey]*serve.PeerClasses)
	for _, e := range c.span(f.from, windowEnd(c, f)) {
		k := peerKey{e.peer, e.peerAddr}
		row := rows[k]
		if row == nil {
			row = &serve.PeerClasses{AS: uint16(e.peer), Addr: uint32(e.peerAddr), Classes: make(map[string]int)}
			for _, name := range classNames {
				row.Classes[name] = 0
			}
			rows[k] = row
		}
		row.Classes[classNames[e.class]]++
		switch e.typ {
		case collector.Announce:
			row.Announces++
		case collector.Withdraw:
			row.Withdrawals++
		}
	}
	out := make([]serve.PeerClasses, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AS != out[j].AS {
			return out[i].AS < out[j].AS
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}
