package store

import "instability/internal/lru"

// blockCache is the store-wide cache of decompressed, columnar-decoded
// segment blocks, shared by every reader — serial scans, parallel scan
// workers, and compaction-adjacent queries all hit the same entries. It is an
// lru.Cache charged each block's decoded size. Segments are immutable, so an
// entry can never be stale: compaction retires a segment's entries
// explicitly (dropSegmentLocked), and a restarted process re-keys naturally
// because fingerprints are content-derived. Loads coalesce, so a thundering
// herd of identical dashboard queries costs one decompression per block, not
// one per reader.
type blockCache = lru.Cache[blockKey, *colBlock]

// blockKey identifies one decoded block. The segment half is the segment's
// content fingerprint (seq, window, sequence range, count), not its path, so
// a recycled file name can never alias a different block.
type blockKey struct {
	seg   uint64
	block int32
}

func newBlockCache(budget int64) *blockCache {
	return lru.New[blockKey, *colBlock](budget, func(evicted int, bytes int64, entries int) {
		obsBlockCacheEvictions.Add(int64(evicted))
		obsBlockCacheBytes.SetInt(bytes)
		obsBlockCacheEntries.SetInt(int64(entries))
	})
}

// BlockCacheStats describes the shared decompressed-block cache, surfaced
// through Store.Stats and the serving plane's /v1/statz.
type BlockCacheStats struct {
	Enabled     bool   `json:"enabled"`
	BudgetBytes int64  `json:"budget_bytes"`
	UsedBytes   int64  `json:"used_bytes"`
	Entries     int    `json:"entries"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
}
