package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"instability/internal/lru"
)

func TestParseQuotas(t *testing.T) {
	quotas, def, err := ParseQuotas("dashboards=50:100,batch=2:10,*=5:5")
	if err != nil {
		t.Fatal(err)
	}
	if q := quotas["dashboards"]; q.Rate != 50 || q.Burst != 100 {
		t.Fatalf("dashboards quota = %+v", q)
	}
	if q := quotas["batch"]; q.Rate != 2 || q.Burst != 10 {
		t.Fatalf("batch quota = %+v", q)
	}
	if def.Rate != 5 || def.Burst != 5 {
		t.Fatalf("default quota = %+v", def)
	}
	if _, _, err := ParseQuotas(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	for _, bad := range []string{"x", "x=1", "x=0:5", "x=1:0", "x=a:b", "=1:2"} {
		if _, _, err := ParseQuotas(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestAdmissionQuota drives the token bucket with a fake clock: burst is
// consumable immediately, then requests shed until the refill.
func TestAdmissionQuota(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	a := newAdmission(8, 8, time.Second, map[string]Quota{"t": {Rate: 1, Burst: 2}}, Quota{}, now)
	closed := make(chan struct{})

	for i := 0; i < 2; i++ {
		release, err := a.admit("t", closed)
		if err != nil {
			t.Fatalf("burst request %d shed: %v", i, err)
		}
		release()
	}
	if _, err := a.admit("t", closed); !errors.Is(err, ErrQuota) {
		t.Fatalf("dry bucket admitted (err = %v)", err)
	}
	clock = clock.Add(time.Second) // refill one token
	release, err := a.admit("t", closed)
	if err != nil {
		t.Fatalf("post-refill request shed: %v", err)
	}
	release()

	// Unknown tokens use the (here unlimited) default quota.
	release, err = a.admit("stranger", closed)
	if err != nil {
		t.Fatalf("unlimited tenant shed: %v", err)
	}
	release()
}

// TestAdmissionQueueShed fills the worker pool and the queue: the next
// request is shed immediately, not hung.
func TestAdmissionQueueShed(t *testing.T) {
	a := newAdmission(1, 1, 50*time.Millisecond, nil, Quota{}, nil)
	closed := make(chan struct{})

	release, err := a.admit("", closed)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.active.Load(); got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}

	// One waiter may queue (it will time out); launch it and give it time to
	// enter the queue.
	queuedErr := make(chan error, 1)
	go func() {
		_, err := a.admit("", closed)
		queuedErr <- err
	}()
	waitFor(t, func() bool { return a.queued.Load() == 1 })

	// The queue is full: this request is shed with no waiting.
	t0 := time.Now()
	if _, err := a.admit("", closed); !errors.Is(err, ErrBusy) {
		t.Fatalf("over-queue request not shed (err = %v)", err)
	}
	if d := time.Since(t0); d > 40*time.Millisecond {
		t.Fatalf("queue-full shed took %v, want immediate", d)
	}
	// The queued waiter times out and sheds too.
	if err := <-queuedErr; !errors.Is(err, ErrBusy) {
		t.Fatalf("queued waiter error = %v, want ErrBusy", err)
	}

	// Releasing the slot (idempotently) frees it for the next request.
	release()
	release()
	r2, err := a.admit("", closed)
	if err != nil {
		t.Fatalf("post-release request shed: %v", err)
	}
	r2()
	if got := a.active.Load(); got != 0 {
		t.Fatalf("active = %d after releases, want 0", got)
	}
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// cacheServer is a Server with only its result cache wired: enough to drive
// the cache the way aggregate and generation do.
func cacheServer(budget int64) *Server {
	return &Server{opts: Options{CacheBytes: budget}, cache: newResultCache(budget)}
}

// cachePut caches body under (gen, key) as a completed aggregate would.
func cachePut(s *Server, gen uint64, key string, body []byte) {
	k := aggKey{gen: gen, key: key}
	s.cache.GetOrLoad(k, func() ([]byte, int64, error) { return body, k.cost(body), nil })
}

var errNotCached = errors.New("not cached")

// cacheHit looks (gen, key) up; a miss caches nothing.
func cacheHit(s *Server, gen uint64, key string) bool {
	_, out, _ := s.cache.GetOrLoad(aggKey{gen: gen, key: key}, func() ([]byte, int64, error) {
		return nil, 0, errNotCached
	})
	return out == lru.Hit
}

// TestResultCache pins the LRU budget and the generation sweep.
func TestResultCache(t *testing.T) {
	entry := func(i int) (string, []byte) {
		return fmt.Sprintf("key-%02d", i), make([]byte, 100)
	}
	perEntry := aggKey{gen: 1, key: "key-00"}.cost(make([]byte, 100))
	c := cacheServer(3 * perEntry)

	for i := 0; i < 3; i++ {
		k, b := entry(i)
		cachePut(c, 1, k, b)
	}
	if !cacheHit(c, 1, "key-00") {
		t.Fatal("key-00 missing before budget exceeded")
	}
	// A fourth entry evicts the LRU — key-01, since key-00 was just touched.
	k, b := entry(3)
	cachePut(c, 1, k, b)
	if cacheHit(c, 1, "key-01") {
		t.Fatal("LRU entry survived over-budget put")
	}
	if !cacheHit(c, 1, "key-00") {
		t.Fatal("recently used entry evicted")
	}

	// Oversized bodies are refused, not cached.
	cachePut(c, 1, "huge", make([]byte, 10_000))
	if cacheHit(c, 1, "huge") {
		t.Fatal("over-budget body cached")
	}

	// Generation sweep: entries from other generations vanish.
	cachePut(c, 2, "new-gen", []byte("x"))
	c.dropOldGens(2)
	for _, k := range []string{"key-00", "key-02", "key-03"} {
		if cacheHit(c, 1, k) {
			t.Fatalf("stale-generation entry %q survived sweep", k)
		}
	}
	if !cacheHit(c, 2, "new-gen") {
		t.Fatal("current-generation entry swept")
	}
	hits, misses, evictions, size := c.CacheCounts()
	if hits == 0 || misses == 0 || evictions < 4 || size <= 0 {
		t.Fatalf("counts = hits %d, misses %d, evictions %d, size %d", hits, misses, evictions, size)
	}

	// The disabled cache absorbs everything quietly.
	nc := cacheServer(0)
	cachePut(nc, 1, "k", []byte("v"))
	if cacheHit(nc, 1, "k") {
		t.Fatal("disabled cache returned a hit")
	}
	nc.dropOldGens(1)
	if h, m, e, b := nc.CacheCounts(); h != 0 || m != 0 || e != 0 || b != 0 {
		t.Fatalf("disabled cache counts = %d %d %d %d, want zeros", h, m, e, b)
	}
}
