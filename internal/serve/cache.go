package serve

import (
	"strconv"

	"instability/internal/lru"
)

// resultCache holds serialized aggregate responses under a byte budget. Keys
// carry the store generation they were computed under, so a stale entry can
// never answer a current-generation lookup; when the server observes a
// generation change it also drops the old generations' entries (see
// dropOldGens), so the budget is not squatted by unreachable results. Its
// load coalescing is the request-batching stage in front of the store: a
// dashboard fleet refreshing the same panel costs one QueryParallel, not N.
// A zero budget still coalesces but caches nothing.
type resultCache = lru.Cache[aggKey, []byte]

// aggKey is the identity of one cached aggregate: the generation, and the
// kind, top bound, and canonical query key (aggregateQueryKey).
type aggKey struct {
	gen uint64
	key string
}

// cacheEntryOverhead approximates the bookkeeping bytes per entry (list
// element, map bucket share, entry struct) charged against the budget.
const cacheEntryOverhead = 128

// cost is the budget charge of one cached body: the key in its printed form
// "g<gen>|<key>", the body, and the per-entry overhead.
func (k aggKey) cost(body []byte) int64 {
	return int64(len("g|")+len(strconv.FormatUint(k.gen, 10))+len(k.key)+len(body)) + cacheEntryOverhead
}

func newResultCache(maxBytes int64) *resultCache {
	return lru.New[aggKey, []byte](maxBytes, func(evicted int, bytes int64, _ int) {
		obsCacheEvictions.Add(int64(evicted))
		obsCacheBytes.SetInt(bytes)
	})
}

// dropOldGens drops every cached aggregate not computed under gen, and keeps
// loads of older generations still in flight from inserting. Dropped entries
// count as evictions.
func (s *Server) dropOldGens(gen uint64) {
	obsCacheEvictions.Add(int64(s.cache.DropIf(func(k aggKey) bool { return k.gen != gen })))
}

// CacheCounts snapshots this server's cache counters (per server, unlike the
// process metrics, so tests and /v1/statz see this server alone). A lookup
// that waited on an identical in-flight aggregate is a miss: it was not
// answered from memory. A disabled cache reports nothing.
func (s *Server) CacheCounts() (hits, misses, evictions uint64, bytes int64) {
	if s.opts.CacheBytes <= 0 {
		return 0, 0, 0, 0
	}
	st := s.cache.Stats()
	return st.Hits, st.Loads + st.Coalesced, st.Evictions + st.Dropped, st.Bytes
}
