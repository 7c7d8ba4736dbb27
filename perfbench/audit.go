package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strconv"
	"time"

	"instability/internal/serve"
	"instability/internal/store"
)

// Serving-plane defaults of cmd/bgpserve.
const (
	serveCacheBytes = 32 << 20
	blockCacheBytes = 32 << 20
)

// checkError marks a wrong answer from the program, as opposed to a
// failure to run it.
type checkError struct{ err error }

func (c checkError) Error() string { return "check: " + c.err.Error() }
func (c checkError) Unwrap() error { return c.err }

func checkFail(format string, args ...any) error {
	return checkError{fmt.Errorf(format, args...)}
}

func isCheck(err error) bool {
	var ce checkError
	return errors.As(err, &ce)
}

// server is a serving plane on loopback over one store.
type server struct {
	srv  *serve.Server
	cl   *serve.Client
	done chan error
}

func startServer(st *store.Store) (*server, error) {
	srv, err := serve.New(serve.Options{Store: st, CacheBytes: serveCacheBytes})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, cl: &serve.Client{Addr: ln.Addr().String()}, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// scanEmbedded runs q on the store with the parallel scan and returns the
// fingerprint of what it streamed and its scan statistics.
func scanEmbedded(st *store.Store, q store.Query, tk *track) (fingerprint, store.ScanStats, error) {
	var fp fingerprint
	tk.begin(spStoreQuery)
	r, err := st.QueryParallel(q, runtime.GOMAXPROCS(0))
	if err != nil {
		tk.end(0)
		return fp, store.ScanStats{}, err
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.Close()
			tk.end(int64(fp.n))
			return fp, store.ScanStats{}, err
		}
		fp.add(rec)
	}
	stats := r.Stats()
	err = r.Close()
	tk.end(int64(fp.n))
	return fp, stats, err
}

// scanRemote streams spec from the server over the binary protocol.
func scanRemote(cl *serve.Client, spec serve.QuerySpec, tk *track) (fingerprint, error) {
	var fp fingerprint
	tk.begin(spServeQuery)
	defer func() { tk.end(int64(fp.n)) }()
	r, err := cl.Query(spec)
	if err != nil {
		return fp, err
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return fp, nil
		}
		if err != nil {
			return fp, err
		}
		fp.add(rec)
	}
}

// spec renders a reference filter as a query spec.
func (f refFilter) spec() serve.QuerySpec {
	var s serve.QuerySpec
	if f.from != 0 {
		s.From = time.Unix(0, f.from).UTC().Format(time.RFC3339)
	}
	if f.to != 0 {
		s.To = time.Unix(0, f.to).UTC().Format(time.RFC3339)
	}
	if f.peer != 0 {
		s.Peer = strconv.FormatUint(uint64(f.peer), 10)
	}
	if f.origin != 0 {
		s.Origin = strconv.FormatUint(uint64(f.origin), 10)
	}
	if f.prefix.Bits() != 0 {
		s.Prefix = f.prefix.String()
	}
	return s
}

func (f refFilter) query() (store.Query, error) { return f.spec().Parse() }

// auditStore checks that the store holds exactly the expected records,
// by count and fingerprint, with one full parallel scan, and notes the
// scan's cost in res when res is set.
func auditStore(st *store.Store, want fingerprint, tk *track, tr *tracer, res *result) (store.ScanStats, error) {
	t0 := time.Now()
	got, stats, err := scanEmbedded(st, store.Query{}, tk)
	if res != nil {
		res.notef("full scan: %d records from %d blocks, %d decoded bytes (%d from the block cache), in %.1f ms",
			got.n, stats.BlocksScanned, stats.BytesDecompressed+stats.BytesFromCache, stats.BytesFromCache, msSince(t0))
	}
	if err != nil {
		return stats, fmt.Errorf("full scan: %w", err)
	}
	tr.addScan(stats)
	if got != want {
		return stats, checkFail("store holds %d records (sum %x), want %d (sum %x)", got.n, got.sum, want.n, want.sum)
	}
	return stats, nil
}

// auditServe puts a serving plane on the store and checks that a remote
// record stream and a `daily` aggregate, asked cold and then again, match
// the reference and the same query made embedded. Both cover the first
// corpus day, so the window starts where the stream does.
func auditServe(st *store.Store, c *corpus, tk *track, tr *tracer, res *result) error {
	s, err := startServer(st)
	if err != nil {
		return err
	}
	f := refFilter{from: c.start.UnixNano(), to: c.dayTime(1).UnixNano()}
	want := c.expect(f)
	q, err := f.query()
	if err == nil {
		var emb, rem fingerprint
		var stats store.ScanStats
		t0 := time.Now()
		emb, stats, err = scanEmbedded(st, q, tk)
		t1 := time.Now()
		if err == nil {
			rem, err = scanRemote(s.cl, f.spec(), tk)
		}
		tr.addPair(time.Since(t1), t1.Sub(t0))
		tr.addScan(stats)
		switch {
		case err != nil:
		case emb != want:
			err = checkFail("embedded day-0 query: %d records, want %d", emb.n, want.n)
		case rem != want:
			err = checkFail("remote day-0 query: %d records, want %d", rem.n, want.n)
		}
	}
	for i := 0; i < 2 && err == nil; i++ {
		var agg *serve.Aggregate
		t0 := time.Now()
		agg, err = timedAggregate(s, serve.KindDaily, f.spec(), tk, tr)
		if err == nil {
			res.notef("day-0 daily aggregate, %s: %d records in %.2f ms", [2]string{"cold", "cached"}[i], agg.Records, msSince(t0))
			err = checkDaily(agg, c, f)
		}
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

// timedAggregate asks one aggregate and books it as cold or cached by
// whether the server's cache counted a hit or a miss for it. Callers that
// share the server serialise through the tracer when traced, so the
// counter delta is this call's own.
func timedAggregate(s *server, kind string, spec serve.QuerySpec, tk *track, tr *tracer) (*serve.Aggregate, error) {
	unlock := tr.lockAggregates()
	defer unlock()
	var h0, m0 uint64
	if tr != nil {
		h0, m0, _, _ = s.srv.CacheCounts()
	}
	tk.begin(spServeAggregate)
	t0 := time.Now()
	agg, err := s.cl.Aggregate(kind, spec, 0)
	d := time.Since(t0)
	tk.end(1)
	if err != nil {
		return nil, fmt.Errorf("aggregate %s %s: %w", kind, spec, err)
	}
	if tr != nil {
		h1, m1, _, _ := s.srv.CacheCounts()
		tr.addAggregate(d, h1-h0, m1-m0)
	}
	return agg, nil
}

// checkDaily compares a `daily` aggregate with the reference taxonomy of
// the whole stream restricted to the window.
func checkDaily(agg *serve.Aggregate, c *corpus, f refFilter) error {
	if got, want := fmt.Sprint(agg.Daily), fmt.Sprint(refDaily(c, f)); got != want {
		return checkFail("daily %s: %s, reference %s", f.spec(), got, want)
	}
	return nil
}

func windowEnd(c *corpus, f refFilter) int64 {
	if f.to == 0 {
		return c.end().UnixNano()
	}
	return f.to
}

// sortedKeys returns a map's int64 keys in order.
func sortedKeys[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
