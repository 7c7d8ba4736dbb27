package lru

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// checkAccounting recomputes the cache's byte accounting from its resident
// entries and checks it against the running total.
func checkAccounting[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*entry[K, V]).cost
	}
	if c.st.Bytes != sum {
		t.Fatalf("bytes = %d, resident entries sum to %d", c.st.Bytes, sum)
	}
	if c.st.Bytes < 0 || c.st.Bytes > c.budget {
		t.Fatalf("bytes %d outside [0, budget %d]", c.st.Bytes, c.budget)
	}
	if len(c.entries) != c.ll.Len() {
		t.Fatalf("entries map has %d keys, LRU has %d elements", len(c.entries), c.ll.Len())
	}
}

// TestGetOrLoadExactlyOnce proves concurrent identical loads coalesce into
// one, for a caching user and for a zero-budget one that only coalesces.
func TestGetOrLoadExactlyOnce(t *testing.T) {
	for _, budget := range []int64{0, 1 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			c := New[string, string](budget, nil)
			var calls int
			started := make(chan struct{})
			proceed := make(chan struct{})

			const waiters = 8
			var wg sync.WaitGroup
			outcomes := make(chan Outcome, waiters+1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, out, err := c.GetOrLoad("k", func() (string, int64, error) {
					calls++
					close(started)
					<-proceed
					return "answer", 16, nil
				})
				if err != nil || v != "answer" {
					t.Errorf("leader: value %q err %v", v, err)
				}
				outcomes <- out
			}()
			<-started
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, out, err := c.GetOrLoad("k", func() (string, int64, error) {
						t.Error("duplicate load ran")
						return "", 0, nil
					})
					if err != nil || v != "answer" {
						t.Errorf("follower: value %q err %v", v, err)
					}
					outcomes <- out
				}()
			}
			// Every follower must be waiting on the flight before it lands.
			waitFor(t, func() bool { return c.Stats().Coalesced == waiters })
			close(proceed)
			wg.Wait()
			close(outcomes)

			if calls != 1 {
				t.Fatalf("load ran %d times, want 1", calls)
			}
			count := map[Outcome]int{}
			for o := range outcomes {
				count[o]++
			}
			if count[Loaded] != 1 || count[Coalesced] != waiters {
				t.Fatalf("outcomes = %v, want 1 loaded and %d coalesced", count, waiters)
			}

			// After the flight the key is resident (or, with no budget,
			// loads again).
			v, out, err := c.GetOrLoad("k", func() (string, int64, error) { return "fresh", 16, nil })
			want, wantOut := "answer", Hit
			if budget == 0 {
				want, wantOut = "fresh", Loaded
			}
			if err != nil || v != want || out != wantOut {
				t.Fatalf("post-flight call: value %q outcome %v err %v", v, out, err)
			}
		})
	}
}

// TestGetOrLoadErrorShared: every waiter of a failed load sees its error,
// and the failure is not cached.
func TestGetOrLoadErrorShared(t *testing.T) {
	c := New[int, int](1<<10, nil)
	boom := errors.New("boom")
	started := make(chan struct{})
	proceed := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, _, err := c.GetOrLoad(1, func() (int, int64, error) {
			close(started)
			<-proceed
			return 0, 0, boom
		})
		errs <- err
	}()
	<-started
	go func() {
		_, _, err := c.GetOrLoad(1, func() (int, int64, error) { return 0, 0, nil })
		errs <- err
	}()
	waitFor(t, func() bool { return c.Stats().Coalesced == 1 })
	close(proceed)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("waiter %d error = %v, want boom", i, err)
		}
	}
	if _, out, err := c.GetOrLoad(1, func() (int, int64, error) { return 7, 8, nil }); err != nil || out != Loaded {
		t.Fatalf("failed load was cached: outcome %v err %v", out, err)
	}
}

// TestLRUEvictionOrder pins the budget and recency order: an insert over
// budget evicts the least recently used entry.
func TestLRUEvictionOrder(t *testing.T) {
	var evicted int
	var bytes int64
	c := New[string, int](300, func(n int, b int64, _ int) { evicted += n; bytes = b })
	load := func(v int) func() (int, int64, error) {
		return func() (int, int64, error) { return v, 100, nil }
	}
	for i := 0; i < 3; i++ {
		c.GetOrLoad(fmt.Sprint(i), load(i))
	}
	if _, out, _ := c.GetOrLoad("0", load(-1)); out != Hit {
		t.Fatal("entry 0 missing before budget exceeded")
	}
	c.GetOrLoad("3", load(3)) // evicts 1, since 0 was just touched
	if _, out, _ := c.GetOrLoad("0", load(-1)); out != Hit {
		t.Fatal("recently used entry evicted")
	}
	if v, out, _ := c.GetOrLoad("1", load(11)); out != Loaded || v != 11 {
		t.Fatal("LRU entry survived over-budget insert")
	}
	st := c.Stats()
	if st.Evictions != 2 || evicted != 2 || st.Bytes != 300 || bytes != 300 || st.Entries != 3 {
		t.Fatalf("stats %+v, hook saw %d evicted / %d bytes", st, evicted, bytes)
	}
	checkAccounting(t, c)
}

// TestOversizedServedNotCached pins the oversized-value contract: a value
// bigger than the whole budget is served to the caller but never enters the
// cache, and serving it leaves the byte accounting untouched.
func TestOversizedServedNotCached(t *testing.T) {
	c := New[int, []byte](100, nil)
	loads := 0
	load := func() ([]byte, int64, error) {
		loads++
		return make([]byte, 150), 150, nil
	}
	for i := 0; i < 2; i++ {
		v, out, err := c.GetOrLoad(1, load)
		if err != nil || len(v) != 150 {
			t.Fatalf("load %d: len %d err %v", i, len(v), err)
		}
		if out != Loaded {
			t.Fatalf("load %d: oversized value reported as %v", i, out)
		}
		checkAccounting(t, c)
	}
	if loads != 2 {
		t.Fatalf("oversized value loaded %d times, want 2 (never cached)", loads)
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("oversized value left residue: %+v", st)
	}
}

// TestDropIfDuringLoad pins the DropIf/single-flight race: when a key is
// dropped while its load is still running, the finished load is served to
// every waiter but not inserted — the caller declared the key unreachable
// (a retired segment, a superseded generation), so the entry would squat on
// budget it can never use.
func TestDropIfDuringLoad(t *testing.T) {
	type key struct{ gen, n int }
	c := New[key, int](1<<20, nil)
	stale := key{gen: 7, n: 3}
	inLoad := make(chan struct{})
	release := make(chan struct{})
	results := make(chan int, 2)
	go func() {
		v, _, err := c.GetOrLoad(stale, func() (int, int64, error) {
			close(inLoad)
			<-release
			return 42, 64, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results <- v
	}()
	<-inLoad
	go func() {
		v, _, err := c.GetOrLoad(stale, func() (int, int64, error) {
			t.Error("duplicate load ran")
			return 0, 0, nil
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		results <- v
	}()
	waitFor(t, func() bool { return c.Stats().Coalesced == 1 })
	c.DropIf(func(k key) bool { return k.gen != 8 })
	close(release)
	for i := 0; i < 2; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("caller %d served %d, want 42", i, v)
		}
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("dropped key's value was cached anyway: %+v", st)
	}
	checkAccounting(t, c)

	// A key DropIf did not match still lands.
	if _, _, err := c.GetOrLoad(key{gen: 8}, func() (int, int64, error) { return 1, 64, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bytes != 64 || st.Entries != 1 {
		t.Fatalf("live key missing: %+v", st)
	}
	// Resident entries are dropped and counted apart from evictions.
	c.GetOrLoad(key{gen: 7, n: 1}, func() (int, int64, error) { return 2, 64, nil })
	if n := c.DropIf(func(k key) bool { return k.gen != 8 }); n != 1 {
		t.Fatalf("DropIf removed %d resident entries, want 1", n)
	}
	if st := c.Stats(); st.Dropped != 1 || st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("stats after drop: %+v", st)
	}
}

// TestAccountingUnderChurn hammers the cache with concurrent loads (some
// oversized), repeated drops, and purges, then checks the byte ledger still
// matches the resident entries exactly.
func TestAccountingUnderChurn(t *testing.T) {
	type key struct {
		seg   uint64
		block int32
	}
	c := New[key, int64](4096, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				seg := uint64(rng.Intn(4))
				k := key{seg: seg, block: int32(rng.Intn(8))}
				size := int64(1 + rng.Intn(96))
				if rng.Intn(20) == 0 {
					size = 8192 // oversized: served, never cached
				}
				if _, _, err := c.GetOrLoad(k, func() (int64, int64, error) {
					return size, size, nil
				}); err != nil {
					t.Errorf("GetOrLoad: %v", err)
					return
				}
				switch {
				case i%251 == 0:
					c.DropIf(func(k key) bool { return k.seg == seg })
				case i%503 == 0:
					c.Purge()
				}
			}
		}(w)
	}
	wg.Wait()
	checkAccounting(t, c)
	var sum int64
	c.Range(func(_ key, cost int64) { sum += cost })
	if st := c.Stats(); sum != st.Bytes || st.Bytes > 4096 {
		t.Fatalf("Range sums %d, stats %+v", sum, st)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
