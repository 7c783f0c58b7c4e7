package obs

import (
	"sort"
	"sync"
	"time"
)

// ShardScan is the executor's stage-timing breakdown for one shard's
// portion of a coalesced batch (shard 0 on the unsharded path). The
// executor fills it with a handful of time.Now() calls per batch —
// never per fact — so the scan loop stays untouched.
type ShardScan struct {
	Shard       int           // shard index (0 when unsharded)
	Facts       int           // fact rows scanned by this shard
	FilterMask  time.Duration // per-predicate bitmap fills + composition
	GroupDecode time.Duration // shared group-key column decode
	Accumulate  time.Duration // chunk walk + accumulate
	// Merge is always zero: the executor folds every chunk into one
	// partial per query. It stays while bench/trace.go reads it.
	Merge time.Duration
	Wall  time.Duration // whole shard scan, wall clock
}

// ScanTrace collects per-shard stage timings for one executor batch.
// The scheduler allocates one per traced (or metered) batch and passes
// it down through cube.BatchOptions; shard goroutines add to it
// concurrently. A nil *ScanTrace is a no-op recorder.
type ScanTrace struct {
	mu     sync.Mutex
	shards []ShardScan
	gather time.Duration
}

// AddShard records one shard's breakdown. Safe for concurrent use.
func (t *ScanTrace) AddShard(s ShardScan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shards = append(t.shards, s)
	t.mu.Unlock()
}

// AddGather accumulates merge/finalize time spent after the shard scans
// (cube.MergeFinalize on the sharded path, the finalize loop otherwise).
func (t *ScanTrace) AddGather(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.gather += d
	t.mu.Unlock()
}

// Snapshot returns the recorded shard breakdowns (ordered by shard
// index, then insertion) and the accumulated gather time.
func (t *ScanTrace) Snapshot() ([]ShardScan, time.Duration) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	shards := append([]ShardScan(nil), t.shards...)
	gather := t.gather
	t.mu.Unlock()
	sort.SliceStable(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
	return shards, gather
}
