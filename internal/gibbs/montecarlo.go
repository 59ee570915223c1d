package gibbs

import (
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

// GroupedRuns is the output of single-pass grouped Monte Carlo: one
// sample vector per (group, aggregate) pair, with groups in ascending
// key order.
type GroupedRuns struct {
	// Keys holds each group's grouping-expression values; a single group
	// with an empty key for ungrouped queries.
	Keys []types.Row
	// Samples[g][a][r] is aggregate a of group g in Monte Carlo
	// repetition r.
	Samples [][][]float64
	// Include[g][r] reports whether group g satisfied the HAVING clause
	// in repetition r; nil when the query has no HAVING.
	Include [][]bool
}

// MonteCarloGroupedParallel evaluates a grouped (and/or multi-aggregate)
// query for n plain Monte Carlo repetitions — the original MCDB
// semantics, where the i-th value of every stream is assigned to the i-th
// repetition. It is the window [0, n) that the engine runs as the single
// round of MonteCarloGroupedAdaptive for a fixed MONTECARLO(n). The
// repetitions are replicate-sharded across up to workers goroutines (see
// monteCarloGroupedWindow); results are bit-for-bit identical for every
// worker count. final is the Gibbs-looper final
// predicate (paper App. A), applied to every tuple before aggregation.
// Ungrouped single-aggregate queries come back as one group with an
// empty key.
func MonteCarloGroupedParallel(ws *exec.Workspace, agg *exec.Aggregate, final expr.Expr, n, workers int) (*GroupedRuns, error) {
	if n < 1 {
		return nil, fmt.Errorf("gibbs: need n >= 1 repetitions, got %d", n)
	}
	return monteCarloGroupedWindow(ws, agg, final, 0, n, workers)
}

// monteCarloGroupedWindow evaluates the replicate window [lo, hi) of the
// prototype workspace's run — the one Monte Carlo driver behind fixed-N
// and adaptive execution. The window is split into up to workers
// contiguous shards; every shard, the single one included, runs in a
// private exec.ShardWorkspace whose Instantiate window covers exactly its
// replicates, re-runs the (deterministic-prefix-cached) plan, discovers
// the identical group partition, and evaluates its replicates in one
// window-major pass. Because stream element i is a pure function of
// (seed, i), the merged output is replicates lo..hi-1 of the sequential
// run for every shard layout. The prototype workspace is never run; it
// only donates its catalog, master stream and run settings.
func monteCarloGroupedWindow(ws *exec.Workspace, agg *exec.Aggregate, final expr.Expr, lo, hi, workers int) (*GroupedRuns, error) {
	if hi <= lo {
		return nil, fmt.Errorf("gibbs: empty replicate window [%d, %d)", lo, hi)
	}
	windows := exec.Shards(hi-lo, workers)
	parts := make([]*GroupedRuns, len(windows))
	errs := forShards(windows, func(i, wlo, whi int) error {
		sub := exec.ShardWorkspace(ws, lo+wlo, lo+whi)
		if err := sub.Cancelled(); err != nil {
			return err
		}
		var err error
		parts[i], err = evalShard(sub, agg, final, whi-wlo)
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeGroupedRuns(parts)
}

// forShards runs fn on every shard [lo, hi) of windows — inline when there
// is one, else one goroutine per shard — and returns the per-shard
// errors. A panic on a worker goroutine would kill the whole process
// regardless of recovery installed by the caller, so every shard, the
// inline one included, contains its own and reports it as an error.
func forShards(windows [][2]int, fn func(i, lo, hi int) error) []error {
	errs := make([]error, len(windows))
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("gibbs: shard %d panicked: %v", i, r)
			}
		}()
		errs[i] = fn(i, windows[i][0], windows[i][1])
	}
	if len(windows) == 1 {
		run(0)
		return errs
	}
	var wg sync.WaitGroup
	for i := range windows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// evalShard runs the plan once in a shard workspace sized to its n
// replicates and evaluates them in a single window-major pass: the plan
// below agg runs once, its tuples are partitioned by their deterministic
// group key once, and AggEval.EvalWindow produces every (group, aggregate,
// replicate) value, plus the HAVING mask when the query has one.
func evalShard(ws *exec.Workspace, agg *exec.Aggregate, final expr.Expr, n int) (*GroupedRuns, error) {
	// Aggregate passes its child's stream through; OpenEval pulls it one
	// batch at a time and partitions tuples by group key as they arrive.
	ev, err := agg.OpenEval(ws, final)
	if err != nil {
		return nil, err
	}
	ws.Seeds.InitAssignAt(ws.Base, n)
	nG, nA := ev.NumGroups(), len(agg.Aggs)
	out := &GroupedRuns{Keys: make([]types.Row, nG), Samples: make([][][]float64, nG)}
	for g := 0; g < nG; g++ {
		out.Keys[g] = ev.Key(g)
		out.Samples[g] = make([][]float64, nA)
		for a := 0; a < nA; a++ {
			out.Samples[g][a] = make([]float64, n)
		}
	}
	if agg.Having != nil {
		out.Include = make([][]bool, nG)
		for g := range out.Include {
			out.Include[g] = make([]bool, n)
		}
	}
	if _, err := ev.EvalWindow(ws, n, out.Samples, out.Include); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeGroupedRuns concatenates per-shard grouped runs in replicate
// order. The group partition is a pure function of the deterministic
// pipeline, so every shard must discover the same keys in the same
// order; a mismatch means the plan is not deterministic and is an error.
func mergeGroupedRuns(parts []*GroupedRuns) (*GroupedRuns, error) {
	first := parts[0]
	if len(parts) == 1 {
		return first, nil
	}
	out := &GroupedRuns{Keys: first.Keys, Samples: make([][][]float64, len(first.Keys))}
	if first.Include != nil {
		out.Include = make([][]bool, len(first.Keys))
	}
	for _, p := range parts[1:] {
		if len(p.Keys) != len(first.Keys) {
			return nil, fmt.Errorf("gibbs: shard discovered %d groups, previously %d; plan is not deterministic", len(p.Keys), len(first.Keys))
		}
		for g := range p.Keys {
			if !p.Keys[g].Equal(first.Keys[g]) {
				return nil, fmt.Errorf("gibbs: shard group %d key %s differs from %s; plan is not deterministic", g, p.Keys[g], first.Keys[g])
			}
		}
	}
	for g := range first.Keys {
		out.Samples[g] = make([][]float64, len(first.Samples[g]))
		for a := range first.Samples[g] {
			var merged []float64
			for _, p := range parts {
				merged = append(merged, p.Samples[g][a]...)
			}
			out.Samples[g][a] = merged
		}
		if out.Include != nil {
			var merged []bool
			for _, p := range parts {
				merged = append(merged, p.Include[g]...)
			}
			out.Include[g] = merged
		}
	}
	return out, nil
}
