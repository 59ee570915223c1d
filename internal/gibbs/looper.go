// Package gibbs implements MCDB-R's GibbsLooper (paper §4, §7, Appendix A):
// the operator that turns a stream of instantiated Gibbs tuples into (1) an
// estimate of an extreme quantile of the query-result distribution and (2)
// a set of DB versions whose query results all lie in the tail beyond it.
//
// The looper executes the paper's Algorithm 3 with the loops inverted as
// described in §7: rather than perturbing DB versions one at a time, it
// iterates over TS-seed handles in increasing order (merging a disk-based
// priority queue of Gibbs tuples with the sorted seed store) and, for each
// seed, updates every DB version via rejection sampling against the current
// cutoff, amortizing data scans.
package gibbs

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/bundle"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/pq"
	"repro/internal/types"
)

// Query describes what the looper aggregates (Appendix A inputs 2–4).
// Aggregate kinds and state live in internal/exec (exec.AggKind,
// exec.AggState) since ISSUE 5 made aggregation a plan/exec operator; the
// looper consumes one exec.AggSpec and delta-maintains its AggState per
// DB version.
type Query struct {
	// Agg is the single aggregate the looper maintains incrementally.
	// Tail sampling conditions on one aggregate; multi-aggregate select
	// lists are a plain-Monte-Carlo feature (see MonteCarloGroupedAdaptive).
	Agg exec.AggSpec
	// FinalPred is the final selection predicate applied to each tuple
	// before inclusion in the aggregate — the place where predicates
	// spanning random attributes of multiple seeds must live (App. A).
	FinalPred expr.Expr
	// LowerTail samples the lower tail (losses below the p-quantile)
	// instead of the upper tail; the looper negates query results
	// internally.
	LowerTail bool
	// GroupBy, when non-empty, restricts the looper to the tuples whose
	// grouping expressions (deterministic, paper App. A) evaluate to
	// GroupKey — the per-group conditioned run of a GROUP BY ... DOMAIN
	// query. The plan still executes once per run over all groups; only
	// the aggregation is restricted.
	GroupBy  []expr.Expr
	GroupKey types.Row
}

// Config sets the sampling parameters of Algorithm 3.
type Config struct {
	// N is the number of DB versions per bootstrapping step (n_i = N).
	N int
	// M is the number of bootstrapping steps.
	M int
	// P is the target upper-tail probability (the quantile is 1-P).
	P float64
	// L is the number of tail samples to return (n_{m+1} = L).
	L int
	// K is the number of Gibbs updating steps per bootstrapping step;
	// the paper finds K=1 suffices. 0 selects 1.
	K int
	// MaxTriesPerUpdate bounds rejection-sampling candidates per
	// (seed, version) update; exceeding it keeps the current value (the
	// heavy-tail regime of Appendix B). 0 selects 100000.
	MaxTriesPerUpdate int
	// DisableDeltaAggregates makes every rejection-sampling candidate
	// recompute the aggregate over ALL tuples instead of only the tuples
	// affected by the updated seed. This is the naive implementation the
	// paper's §4.3 dismisses; it exists solely for the ablation benchmark
	// quantifying the delta-maintenance optimization.
	DisableDeltaAggregates bool
	// PQMemLimit bounds the in-memory entries of the tuple priority
	// queue; 0 selects the pq default.
	PQMemLimit int
	// SpillDir receives priority-queue spill files ("" = os.TempDir()).
	SpillDir string
	// Parallelism is the number of worker goroutines batch state
	// recomputation may use; values <= 1 run it on the looper's own
	// goroutine. Results are bit-for-bit identical for every value:
	// versions are partitioned across workers, each version's aggregate is
	// accumulated in plan tuple order, and replenishing runs execute
	// between batch attempts, never inside a worker.
	Parallelism int
}

func (c *Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("gibbs: need N >= 2 DB versions, got %d", c.N)
	}
	if c.M < 1 {
		return fmt.Errorf("gibbs: need M >= 1 bootstrapping steps, got %d", c.M)
	}
	if c.P <= 0 || c.P >= 1 {
		return fmt.Errorf("gibbs: tail probability P must lie in (0,1), got %g", c.P)
	}
	if c.L < 1 {
		return fmt.Errorf("gibbs: need L >= 1 tail samples, got %d", c.L)
	}
	if c.K == 0 {
		c.K = 1
	}
	if c.K < 0 {
		return fmt.Errorf("gibbs: K must be positive, got %d", c.K)
	}
	if c.MaxTriesPerUpdate <= 0 {
		c.MaxTriesPerUpdate = 100000
	}
	return nil
}

// IterStats records one bootstrapping step for the benchmark harness.
type IterStats struct {
	// Cutoff is the elite threshold after this step's purge (theta_i).
	Cutoff float64
	// CurQuantile is p^{i/m}, the tail probability the cutoff estimates.
	CurQuantile float64
	// Duration is wall-clock time of the step (purge+clone+perturb).
	Duration time.Duration
	// Candidates counts rejection-sampling proposals; Accepts successful
	// updates; GiveUps updates abandoned at MaxTriesPerUpdate.
	Candidates, Accepts, GiveUps int64
	// Replenishments counts §9 query-plan re-runs during the step.
	Replenishments int
}

// Result is the looper's output.
type Result struct {
	// Quantile is the estimate of the (1-P)-quantile (theta_m). For
	// LowerTail queries it estimates the P-quantile.
	Quantile float64
	// TailSamples holds the L query results, all beyond Quantile.
	TailSamples []float64
	// Cutoffs is the trajectory of theta_1..theta_m.
	Cutoffs []float64
	// Iters holds per-step statistics.
	Iters []IterStats
	// Replenishments is the total number of query-plan re-runs.
	Replenishments int
}

// errNeedReplenish signals that rejection sampling ran out of materialized
// stream values (paper §9).
var errNeedReplenish = errors.New("gibbs: stream window exhausted")

// Run executes tail sampling for the plan in the workspace. The plan must
// already include Seed and Instantiate operators; Run executes it (and
// re-executes it on replenishment).
func Run(ws *exec.Workspace, plan exec.Node, q Query, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ws.Window < cfg.N {
		return nil, fmt.Errorf("gibbs: workspace window %d smaller than N=%d initial versions", ws.Window, cfg.N)
	}
	lp := &looper{ws: ws, plan: plan, q: q, cfg: cfg}
	if err := lp.init(); err != nil {
		return nil, err
	}
	return lp.run()
}

type looper struct {
	ws   *exec.Workspace
	plan exec.Node
	q    Query
	cfg  Config

	rand       []*bundle.Tuple // retained tuples with random lineage, in plan order
	seedIDs    [][]uint64      // per rand tuple: distinct seed handles, ascending
	nTotal     int             // total plan-output tuples (after group restriction)
	base       exec.AggState   // contribution of purely deterministic tuples
	states     []exec.AggState // per-version aggregate state
	aggExpr    *expr.Compiled
	finalPred  *expr.Compiled
	groupExprs []*expr.Compiled // compiled Query.GroupBy, nil when ungrouped
	groupSlots []int            // schema slots the grouping expressions read
	keyBuf     types.Row
	buf        types.Row
	sign       float64 // -1 for lower-tail queries
	totalRepl  int
	stats      *IterStats // current step's counters
}

func (lp *looper) init() error {
	schema := lp.plan.Schema()
	if lp.q.Agg.Kind != exec.AggCount {
		if lp.q.Agg.Expr == nil {
			return fmt.Errorf("gibbs: %s requires an aggregate expression", lp.q.Agg.Kind)
		}
		c, err := expr.Compile(lp.q.Agg.Expr, schema)
		if err != nil {
			return fmt.Errorf("gibbs: aggregate expression: %w", err)
		}
		lp.aggExpr = c
	}
	if lp.q.FinalPred != nil {
		c, err := expr.Compile(lp.q.FinalPred, schema)
		if err != nil {
			return fmt.Errorf("gibbs: final predicate: %w", err)
		}
		lp.finalPred = c
	}
	if len(lp.q.GroupBy) > 0 {
		if len(lp.q.GroupKey) != len(lp.q.GroupBy) {
			return fmt.Errorf("gibbs: group key has %d values for %d grouping expressions", len(lp.q.GroupKey), len(lp.q.GroupBy))
		}
		lp.groupExprs = make([]*expr.Compiled, len(lp.q.GroupBy))
		for i, g := range lp.q.GroupBy {
			c, err := expr.Compile(g, schema)
			if err != nil {
				return fmt.Errorf("gibbs: GROUP BY expression %s: %w", g, err)
			}
			lp.groupExprs[i] = c
			for _, name := range expr.Columns(g) {
				lp.groupSlots = append(lp.groupSlots, schema.MustLookup(name))
			}
		}
		lp.keyBuf = make(types.Row, len(lp.groupExprs))
	}
	lp.sign = 1
	if lp.q.LowerTail {
		lp.sign = -1
	}
	lp.buf = make(types.Row, schema.Len())
	if err := lp.loadTuples(false); err != nil {
		return err
	}
	// A sharded workspace materializes [Base, Base+Window); start the
	// version->position mapping at the same offset so version v of this
	// shard is exactly replicate Base+v of the sequential run.
	lp.ws.Seeds.InitAssignAt(lp.ws.Base, lp.cfg.N)
	return nil
}

// loadTuples (re-)streams the query plan through the batch pipeline,
// restricts the stream to the looper's group (when the query is a
// per-group conditioned run), and classifies it on the way past: purely
// deterministic tuples fold into the base aggregate state immediately and
// are dropped, tuples with random lineage are retained (the only part of
// the plan output the looper holds for the whole sampling run).
func (lp *looper) loadTuples(replenishing bool) error {
	if replenishing {
		lp.ws.BeginReplenish()
	}
	it, err := lp.plan.Open(lp.ws)
	if err != nil {
		return err
	}
	defer it.Close()
	schema := lp.plan.Schema()
	rand := lp.rand[:0]
	lp.base = exec.AggState{}
	total := 0
	for {
		b, err := it.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, tu := range b.Tuples {
			if lp.groupExprs != nil {
				// Group keys are deterministic by construction; a grouping
				// expression reading a VG-generated slot is an error.
				for _, slot := range lp.groupSlots {
					for _, r := range tu.Rand {
						if r.Slot == slot {
							return fmt.Errorf("gibbs: GROUP BY reads the VG-generated attribute %q; grouping columns must be deterministic", schema.Col(slot).Name)
						}
					}
				}
				match := true
				for i, ge := range lp.groupExprs {
					lp.keyBuf[i] = ge.Eval(tu.Det)
					if !lp.keyBuf[i].Equal(lp.q.GroupKey[i]) {
						match = false
						break
					}
				}
				if !match {
					continue
				}
			}
			total++
			if tu.IsRandom() {
				rand = append(rand, lp.ws.Retain(tu))
				continue
			}
			s, c, err := lp.contribRow(tu.Det)
			if err != nil {
				return err
			}
			lp.base.Add(s, c)
		}
	}
	if replenishing && total != lp.nTotal {
		return fmt.Errorf("gibbs: replenishing run produced %d tuples, previously %d; plan is not deterministic", total, lp.nTotal)
	}
	lp.nTotal = total
	lp.rand = rand
	// Precompute each random tuple's distinct seed handles once per plan
	// run: the Gibbs pass re-keys tuples in the priority queue constantly,
	// and calling SeedIDs (a map build plus a sort) per re-key dominated
	// its allocation profile.
	if cap(lp.seedIDs) >= len(rand) {
		lp.seedIDs = lp.seedIDs[:len(rand)]
	} else {
		lp.seedIDs = make([][]uint64, len(rand))
	}
	for i, tu := range rand {
		lp.seedIDs[i] = tu.SeedIDs()
	}
	return nil
}

// contrib evaluates one tuple's aggregate contribution under a binding;
// buf is the caller's scratch row (lp.buf on the looper's goroutine, a
// private one on each recompute worker).
func (lp *looper) contrib(tu *bundle.Tuple, b bundle.Binding, buf types.Row) (float64, int64, error) {
	row, present, err := tu.Eval(b, buf)
	if err != nil {
		return 0, 0, err
	}
	if !present {
		return 0, 0, nil
	}
	return lp.contribRow(row)
}

func (lp *looper) contribRow(row types.Row) (float64, int64, error) {
	if lp.finalPred != nil && !lp.finalPred.EvalBool(row) {
		return 0, 0, nil
	}
	return lp.q.Agg.Contribution(lp.aggExpr, row, lp.sign)
}

// recomputeStates rebuilds every version's aggregate state from scratch.
// Version states are independent given the materialized windows, so they
// are split into contiguous shards across cfg.Parallelism workers (a
// single shard runs inline), each with a private scratch row; every state
// accumulates its tuples in plan order, so states are bit-for-bit
// identical for every worker count. Workers only read shared looper
// state. When any version needs a stream position outside the windows,
// the batch is abandoned, one replenishing run executes, and the whole
// batch restarts: replenishment keeps every assigned position and its
// value, so the restart recomputes the same states.
func (lp *looper) recomputeStates(nVersions int) error {
	shards := exec.Shards(nVersions, lp.cfg.Parallelism)
	//mcdbr:hotpath
	for {
		if err := lp.ws.Cancelled(); err != nil {
			return err
		}
		states := make([]exec.AggState, nVersions)
		errs := forShards(shards, func(_, lo, hi int) error {
			buf := make(types.Row, len(lp.buf))
			for v := lo; v < hi; v++ {
				if err := lp.ws.Cancelled(); err != nil {
					return err
				}
				st, err := lp.versionState(bundle.Bind(lp.ws.Seeds, v), buf)
				if err != nil {
					return err
				}
				states[v] = st
			}
			return nil
		})
		needRepl := false
		for _, err := range errs {
			var nm *bundle.ErrNotMaterialized
			if errors.As(err, &nm) {
				needRepl = true
			} else if err != nil {
				return err
			}
		}
		if !needRepl {
			lp.states = states
			return nil
		}
		if err := lp.replenish(); err != nil {
			return err
		}
	}
}

// versionState accumulates one version's aggregate state over every
// retained tuple under binding b, in plan order: the per-version body of
// recomputeStates and the DisableDeltaAggregates ablation's full
// recomputation per candidate.
func (lp *looper) versionState(b bundle.Binding, buf types.Row) (exec.AggState, error) {
	st := lp.base
	for _, tu := range lp.rand {
		s, c, err := lp.contrib(tu, b, buf)
		if err != nil {
			return st, err
		}
		st.Add(s, c)
	}
	return st, nil
}

func (lp *looper) replenish() error {
	lp.totalRepl++
	if lp.stats != nil {
		lp.stats.Replenishments++
	}
	return lp.loadTuples(true)
}

func (lp *looper) run() (*Result, error) {
	cfg := lp.cfg
	if err := lp.recomputeStates(cfg.N); err != nil {
		return nil, err
	}
	// Reject NaN aggregates before sampling: every NaN comparison against
	// the cutoff is false, so rejection sampling would burn its whole
	// MaxTriesPerUpdate budget for every (seed, version) pair and the
	// purge would select garbage elites. Surface the bad input instead.
	for v, st := range lp.states {
		if math.IsNaN(st.Value(lp.q.Agg.Kind)) {
			return nil, fmt.Errorf("gibbs: DB version %d has a NaN query result; a VG function or aggregate expression produced a non-finite value", v)
		}
	}
	res := &Result{}
	pi := math.Pow(cfg.P, 1/float64(cfg.M))
	cutoff := math.Inf(-1)
	//mcdbr:hotpath
	for i := 1; i <= cfg.M; i++ {
		if err := lp.ws.Cancelled(); err != nil {
			return nil, err
		}
		step := IterStats{CurQuantile: math.Pow(cfg.P, float64(i)/float64(cfg.M))}
		lp.stats = &step
		start := time.Now() //mcdbr:nondet ok(per-iteration progress timing; never feeds query values)

		// Purge: keep the top 100*pi% "elite" versions.
		nS := len(lp.states)
		e := int(pi*float64(nS) + 0.5)
		if e < 1 {
			e = 1
		}
		if e > nS {
			e = nS
		}
		elite := lp.eliteVersions(e)
		cutoff = lp.states[elite[len(elite)-1]].Value(lp.q.Agg.Kind)
		step.Cutoff = lp.sign * cutoff

		// Clone elite assignments into the next step's version count.
		next := cfg.N
		if i == cfg.M {
			next = cfg.L
		}
		if err := lp.ws.Seeds.CloneVersions(elite, next); err != nil {
			return nil, err
		}
		if err := lp.recomputeStates(next); err != nil {
			return nil, err
		}

		// Perturb: K systematic Gibbs updating steps.
		for k := 0; k < cfg.K; k++ {
			if err := lp.pass(cutoff); err != nil {
				return nil, err
			}
		}

		step.Duration = time.Since(start) //mcdbr:nondet ok(per-iteration progress timing; never feeds query values)
		res.Iters = append(res.Iters, step)
		res.Cutoffs = append(res.Cutoffs, step.Cutoff)
		lp.stats = nil
	}
	res.Quantile = lp.sign * cutoff
	res.TailSamples = make([]float64, len(lp.states))
	for v, st := range lp.states {
		res.TailSamples[v] = lp.sign * st.Value(lp.q.Agg.Kind)
	}
	res.Replenishments = lp.totalRepl
	return res, nil
}

// eliteVersions returns the indexes of the e versions with the largest
// aggregate values, ordered by descending value (ties by lower index).
func (lp *looper) eliteVersions(e int) []int {
	idx := make([]int, len(lp.states))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort is fine: version counts are small (N, L).
	for i := 0; i < e; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			vj := lp.states[idx[j]].Value(lp.q.Agg.Kind)
			vb := lp.states[idx[best]].Value(lp.q.Agg.Kind)
			if vj > vb {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:e]
}

// pass performs one systematic Gibbs updating step: every TS-seed in
// increasing handle order, every DB version, rejection sampling against
// cutoff (paper §7 and Appendix A.2).
func (lp *looper) pass(cutoff float64) error {
	queue := pq.New(lp.cfg.PQMemLimit, lp.cfg.SpillDir)
	defer queue.Reset()
	for i := range lp.rand {
		ids := lp.seedIDs[i]
		if len(ids) == 0 {
			continue
		}
		if err := queue.Push(pq.Entry{Key: ids[0], Payload: uint64(i)}); err != nil {
			return err
		}
	}
	//mcdbr:hotpath
	for queue.Len() > 0 {
		if err := lp.ws.Cancelled(); err != nil {
			return err
		}
		key, payloads, err := queue.PopAllWithKey()
		if err != nil {
			return err
		}
		if key == pq.MaxKey {
			break // fully processed tuples parked at the tail (App. A.2)
		}
		for v := range lp.states {
			if err := lp.updateSeedVersion(key, payloads, v, cutoff); err != nil {
				return err
			}
		}
		for _, p := range payloads {
			nk, ok := nextSeedAfter(lp.seedIDs[p], key)
			if !ok {
				nk = pq.MaxKey
			}
			if err := queue.Push(pq.Entry{Key: nk, Payload: p}); err != nil {
				return err
			}
		}
	}
	return nil
}

// updateSeedVersion performs the rejection algorithm (paper Algorithm 2 /
// Fig. 1) for one TS-seed and one DB version: propose the next unused
// stream value, accept when the updated query result still meets the
// cutoff.
func (lp *looper) updateSeedVersion(seedID uint64, payloads []uint64, v int, cutoff float64) error {
	seed := lp.ws.Seeds.MustGet(seedID)
	cur := bundle.Bind(lp.ws.Seeds, v)
	oldS, oldC, err := lp.affectedContrib(payloads, cur)
	if err != nil {
		return err
	}
	for tries := 0; tries < lp.cfg.MaxTriesPerUpdate; tries++ {
		pos := seed.MaxUsed + 1
		if !seed.Window.Contains(pos) {
			if err := lp.replenish(); err != nil {
				return err
			}
			// Windows changed; current-assignment contributions must be
			// recomputed against the rebuilt presence vectors.
			oldS, oldC, err = lp.affectedContrib(payloads, cur)
			if err != nil {
				return err
			}
			if !seed.Window.Contains(pos) {
				return fmt.Errorf("gibbs: replenishment did not cover seed %d position %d", seedID, pos)
			}
		}
		if lp.stats != nil {
			lp.stats.Candidates++
		}
		seed.MaxUsed = pos // consumed whether accepted or not (paper §6 item 4)
		cand := cur.WithOverride(seedID, pos)
		var st exec.AggState
		if lp.cfg.DisableDeltaAggregates {
			// Ablation mode: full recomputation per candidate (§4.3's
			// "obviously unacceptable" strategy, minus the plan re-run).
			st, err = lp.versionState(cand, lp.buf)
			if err != nil {
				return err
			}
		} else {
			newS, newC, err := lp.affectedContrib(payloads, cand)
			if err != nil {
				return err
			}
			st = lp.states[v]
			st.Sum += newS - oldS
			st.Count += newC - oldC
		}
		if st.Value(lp.q.Agg.Kind) >= cutoff {
			seed.Assign[v] = pos
			lp.states[v] = st
			if lp.stats != nil {
				lp.stats.Accepts++
			}
			return nil
		}
	}
	// Heavy-tail regime (Appendix B): no acceptable candidate within the
	// try budget; keep the current value.
	if lp.stats != nil {
		lp.stats.GiveUps++
	}
	return nil
}

// nextSeedAfter returns the first handle in ids (sorted ascending)
// strictly greater than key; the allocation-free counterpart of
// bundle.Tuple.NextSeedAfter over the looper's precomputed seed lists.
func nextSeedAfter(ids []uint64, key uint64) (uint64, bool) {
	for _, id := range ids {
		if id > key {
			return id, true
		}
	}
	return 0, false
}

// affectedContrib sums the contributions of the Gibbs tuples associated
// with the seed being updated; only these can change when the seed's
// assignment changes, so the aggregate delta needs no full recomputation.
func (lp *looper) affectedContrib(payloads []uint64, b bundle.Binding) (float64, int64, error) {
	var s float64
	var c int64
	for _, p := range payloads {
		ds, dc, err := lp.contrib(lp.rand[p], b, lp.buf)
		if err != nil {
			var nm *bundle.ErrNotMaterialized
			if errors.As(err, &nm) {
				// A *current* assignment fell outside the window: possible
				// only through bugs, since replenishment preserves assigned
				// positions. Surface loudly.
				return 0, 0, fmt.Errorf("gibbs: assigned position missing: %w", err)
			}
			return 0, 0, err
		}
		s += ds
		c += dc
	}
	return s, c, nil
}
