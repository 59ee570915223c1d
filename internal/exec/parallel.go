// Replicate-sharded parallel execution. MCDB-R represents random tables by
// pseudorandom TS-seeds, and element i of a seed's stream is a pure
// function of (seed, i) — so any Monte Carlo replicate can be regenerated
// independently, on any worker, in any order. This file holds the shard
// layout: the N replicates are split into contiguous per-worker windows,
// and each worker gets a private Workspace over the shared read-only
// Catalog whose Instantiate window covers exactly its shard. The gibbs
// Monte Carlo window driver, which every round of the engine's round
// driver runs, merges shard results back in replicate order. Because stream values, seed allocation order,
// and per-replicate evaluation order are all independent of the shard
// layout, the merged output is bit-for-bit identical to sequential
// execution for every worker count.

package exec

// Shards partitions n replicates into at most workers contiguous,
// near-equal windows. Every replicate belongs to exactly one window and
// windows are returned in replicate order.
func Shards(n, workers int) [][2]int {
	if n < 1 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	out := make([][2]int, 0, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// ShardWorkspace builds the worker-private workspace for replicate window
// [lo, hi): same catalog and master stream as proto (so the deterministic
// pipeline allocates identical TS-seeds with identical SplitMix64-derived
// substreams), fresh seed store and cache, and an Instantiate window
// covering exactly the shard's stream positions.
func ShardWorkspace(proto *Workspace, lo, hi int) *Workspace {
	ws := NewWorkspace(proto.Catalog, proto.Master, hi-lo)
	ws.Base = uint64(lo)
	// Workers share the engine-level deterministic-prefix cache: the first
	// worker to reach a Materialize node computes its subtree, the others
	// wait and share the read-only result instead of re-running it.
	ws.Prefix = proto.Prefix
	// Workers inherit the run's batch size and charge the run's shared
	// memory gauge, so MaxBytes bounds the whole run, not each worker.
	ws.BatchSize = proto.BatchSize
	ws.MaxBytes = proto.MaxBytes
	ws.Slabs = proto.Slabs
	ws.Ctx = proto.Ctx
	ws.DisableKernels = proto.DisableKernels
	ws.adoptGauge(proto.Gauge)
	return ws
}
