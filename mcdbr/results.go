package mcdbr

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/gibbs"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tail"
	"repro/internal/types"
)

// Distribution is a Monte Carlo result distribution: the paper's
// RESULTDISTRIBUTION, materialized as samples plus the FREQUENCYTABLE.
type Distribution struct {
	// Samples are the Monte Carlo query results (conditioned to the tail
	// for TailResult).
	Samples []float64
	// FTable is the paper's FTABLE(value, FRAC) relation.
	FTable *stats.FrequencyTable

	// ecdf caches the sorted sample: building the frequency table already
	// sorts a copy of the samples, so Quantile/Min/ECDF reuse it instead
	// of re-sorting per call. nil for zero-constructed Distributions,
	// which fall back to sorting on demand.
	ecdf *stats.ECDF
}

func newDistribution(samples []float64) *Distribution {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return &Distribution{
		Samples: samples,
		FTable:  stats.NewFrequencyTableSorted(sorted),
		ecdf:    stats.NewECDFSorted(sorted),
	}
}

// dist returns the cached ECDF. Distributions built literally rather
// than by the engine have no cache; they sort per call (the pre-cache
// behavior) instead of lazily writing d.ecdf, which would race when one
// Distribution is read from several goroutines.
func (d *Distribution) dist() *stats.ECDF {
	if d.ecdf == nil {
		return stats.NewECDF(d.Samples)
	}
	return d.ecdf
}

// Mean estimates the expected query result.
func (d *Distribution) Mean() float64 { return stats.Summarize(d.Samples).Mean }

// Std estimates the standard deviation of the query result.
func (d *Distribution) Std() float64 { return stats.Summarize(d.Samples).Std }

// Quantile estimates the q-quantile of the (possibly conditioned)
// query-result distribution.
func (d *Distribution) Quantile(q float64) float64 {
	return d.dist().Quantile(q)
}

// CVaR returns the expected shortfall at level q: the conditional mean
// of the query result beyond its q-quantile, E[X | X >= Quantile(q)] —
// the standard risk measure paired with VaR. Computed through
// stats.ConditionalMean over the sample.
func (d *Distribution) CVaR(q float64) float64 {
	return stats.ConditionalMean(d.Samples, d.Quantile(q), false)
}

// CVaRLower is CVaR for the loss-is-small tail: E[X | X <= Quantile(q)].
func (d *Distribution) CVaRLower(q float64) float64 {
	return stats.ConditionalMean(d.Samples, d.Quantile(q), true)
}

// Min returns the smallest sample — for a tail distribution, the paper's
// SELECT MIN(totalLoss) FROM FTABLE tail-boundary estimate.
func (d *Distribution) Min() float64 { return d.dist().Min() }

// ExpectedValue returns SUM(value*FRAC) over the frequency table; on a
// tail distribution this is the expected shortfall.
func (d *Distribution) ExpectedValue() float64 { return d.FTable.WeightedSum() }

// ECDF returns the empirical CDF of the samples.
func (d *Distribution) ECDF() *stats.ECDF { return d.dist() }

// FTableRelation materializes the frequency table as an ordinary relation
// FTABLE(value FLOAT, frac FLOAT) that can be registered and re-queried,
// as in the paper's follow-up queries over FTABLE.
func (d *Distribution) FTableRelation(name string) *storage.Table {
	t := storage.NewTable(name, types.NewSchema(
		types.Column{Name: "value", Kind: types.KindFloat},
		types.Column{Name: "frac", Kind: types.KindFloat},
	))
	for i, v := range d.FTable.Values {
		t.MustAppend(types.Row{types.NewFloat(v), types.NewFloat(d.FTable.Fracs[i])})
	}
	return t
}

// TailResult is the output of MCDB-R tail sampling: a conditioned result
// distribution over the tail plus the extreme-quantile estimate.
type TailResult struct {
	Distribution
	// QuantileEstimate is theta-hat, the estimated (1-P)-quantile (or
	// P-quantile for lower tails).
	QuantileEstimate float64
	// P is the tail probability defining the quantile.
	P float64
	// Lower reports whether this is a lower tail.
	Lower bool
	// ExpectedShortfall is E[result | result in tail] — the CVaR paired
	// with the QuantileEstimate VaR (stats.ConditionalMean over the
	// conditioned sample).
	ExpectedShortfall float64
	// Diag exposes the Gibbs looper's per-iteration statistics.
	Diag *gibbs.Result
}

// GroupedDistribution is the result of a grouped and/or multi-aggregate
// Monte Carlo query: one Distribution per (group, aggregate) pair, with
// groups in ascending key order. Ungrouped multi-aggregate queries have
// exactly one group with an empty key.
type GroupedDistribution struct {
	// GroupCols name the grouping output columns (empty when ungrouped).
	GroupCols []string
	// AggCols name the aggregate output columns, in select-list order.
	AggCols []string
	// Groups holds the per-group results, sorted by key.
	Groups []GroupDistribution
}

// GroupDistribution is one group's result.
type GroupDistribution struct {
	// Key holds the group's grouping-expression values.
	Key types.Row
	// Dists holds one result distribution per aggregate, in select-list
	// order.
	Dists []*Distribution
	// Inclusion is the fraction of Monte Carlo runs in which the group
	// satisfied the HAVING clause (1 when the query has none). Samples
	// from excluded runs do not appear in Dists.
	Inclusion float64
}

// KeyString renders the group key the way the legacy per-group maps are
// keyed: the single value's string form, or comma-joined values for
// multi-column keys.
func (g *GroupDistribution) KeyString() string { return formatGroupKey(g.Key) }

// Group returns the group with the given KeyString, or nil.
func (gd *GroupedDistribution) Group(key string) *GroupDistribution {
	for i := range gd.Groups {
		if gd.Groups[i].KeyString() == key {
			return &gd.Groups[i]
		}
	}
	return nil
}

// GroupedTail is the result of a GROUP BY ... DOMAIN query: one
// conditioned tail distribution per group (paper App. A), produced by one
// Gibbs run per group over a single shared compiled plan.
type GroupedTail struct {
	// GroupCols name the grouping output columns.
	GroupCols []string
	// AggCol names the conditioned aggregate.
	AggCol string
	// Groups holds the per-group tails, sorted by key.
	Groups []GroupTail
}

// GroupTail is one group's conditioned tail result.
type GroupTail struct {
	Key  types.Row
	Tail *TailResult
}

// KeyString renders the group key (see GroupDistribution.KeyString).
func (g *GroupTail) KeyString() string { return formatGroupKey(g.Key) }

func formatGroupKey(key types.Row) string {
	parts := make([]string, len(key))
	for i, v := range key {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

// MonteCarlo runs the query with n plain Monte Carlo repetitions (original
// MCDB semantics) and returns the unconditioned result distribution. The
// repetitions are replicate-sharded across the engine's worker count (see
// WithParallelism); samples are identical for every worker count. The
// query must have a single aggregate and no GROUP BY — use
// MonteCarloGrouped otherwise.
func (q *QueryBuilder) MonteCarlo(n int) (d *Distribution, err error) {
	defer recoverToError("MonteCarlo", &err)
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	if c.grouped() || len(c.agg.Aggs) > 1 {
		return nil, fmt.Errorf("mcdbr: query has GROUP BY or multiple aggregates; use MonteCarloGrouped")
	}
	return q.e.runMonteCarlo(nil, c, n, q.e.seed, q.e.parallelism, q.e.maxQueryBytes)
}

// MonteCarloGrouped runs a grouped and/or multi-aggregate query with n
// plain Monte Carlo repetitions in a single pass: the plan executes once
// per run, tuples are partitioned by their deterministic group key once,
// and every repetition produces the whole per-group aggregate vector in
// one sweep — no per-group re-execution.
func (q *QueryBuilder) MonteCarloGrouped(n int) (gd *GroupedDistribution, err error) {
	defer recoverToError("MonteCarloGrouped", &err)
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	return q.e.runGroupedMonteCarlo(nil, c, n, q.e.seed, q.e.parallelism, q.e.maxQueryBytes)
}

// MonteCarloAdaptive runs the query under the builder's Until stopping
// rule: replicates execute in geometrically growing replicate-sharded
// rounds and stop as soon as every (group, aggregate) estimate's relative
// CI half-width meets the target (or at the rule's MaxSamples). The
// replicates actually run are bit-identical to MonteCarloGrouped of the
// same count, at every worker count. Ungrouped single-aggregate queries
// return one group with an empty key.
func (q *QueryBuilder) MonteCarloAdaptive() (gd *GroupedDistribution, report *AdaptiveReport, err error) {
	defer recoverToError("MonteCarloAdaptive", &err)
	c, err := q.compile()
	if err != nil {
		return nil, nil, err
	}
	if c.stop == nil {
		return nil, nil, fmt.Errorf("mcdbr: MonteCarloAdaptive needs a stopping rule; call Until first")
	}
	res, rule, err := q.e.runAdaptiveRuns(nil, c, stopRuleFromSpec(c.stop), q.e.seed, q.e.parallelism, q.e.maxQueryBytes, nil)
	if err != nil {
		return nil, nil, err
	}
	if gd, err = buildGroupedDistribution(c, res.Runs, res.SamplesUsed); err != nil {
		return nil, nil, err
	}
	return gd, adaptiveReport(c, res, rule), nil
}

// runMonteCarlo executes a compiled single-aggregate ungrouped plan for n
// Monte Carlo repetitions through the grouped single-pass evaluator (one
// group, one aggregate — the per-repetition arithmetic is bit-for-bit
// the pre-ISSUE-5 path). It is the shared execution path of
// QueryBuilder.MonteCarlo and PreparedQuery.Run; seed and workers are
// per-run so prepared queries can override them.
func (e *Engine) runMonteCarlo(ctx context.Context, c *compiled, n int, seed uint64, workers int, maxBytes int64) (*Distribution, error) {
	gr, err := e.runGroupedRuns(ctx, c, n, seed, workers, maxBytes)
	if err != nil {
		return nil, err
	}
	samples := gr.Samples[0][0]
	if err := stats.CheckFinite(samples); err != nil {
		return nil, fmt.Errorf("mcdbr: Monte Carlo produced a non-finite query result (%w); check VG parameters and aggregate expressions", err)
	}
	return newDistribution(samples), nil
}

// runGroupedRuns is the raw single-pass grouped execution shared by the
// Distribution-building paths.
func (e *Engine) runGroupedRuns(ctx context.Context, c *compiled, n int, seed uint64, workers int, maxBytes int64) (*gibbs.GroupedRuns, error) {
	// The prototype workspace is never evaluated itself — every shard runs
	// in a ShardWorkspace whose window is exactly its replicate range — so
	// the window here only sizes the prototype's (unused) default.
	ws := e.newRunWorkspace(seed, n, maxBytes)
	ws.Ctx = ctx
	return gibbs.MonteCarloGroupedParallel(ws, c.agg, c.gq.FinalPred, n, workers)
}

// runGroupedMonteCarlo executes a compiled grouped/multi-aggregate plan
// and builds the per-group result distributions. With a HAVING clause,
// each group keeps only the repetitions in which the predicate held;
// groups that never satisfy it are dropped.
func (e *Engine) runGroupedMonteCarlo(ctx context.Context, c *compiled, n int, seed uint64, workers int, maxBytes int64) (*GroupedDistribution, error) {
	gr, err := e.runGroupedRuns(ctx, c, n, seed, workers, maxBytes)
	if err != nil {
		return nil, err
	}
	return buildGroupedDistribution(c, gr, n)
}

// buildGroupedDistribution turns raw grouped runs into the per-group
// result distributions; n is the replicate count the runs hold (shared by
// the fixed-N and adaptive paths, where n is the replicates actually run).
func buildGroupedDistribution(c *compiled, gr *gibbs.GroupedRuns, n int) (*GroupedDistribution, error) {
	out := &GroupedDistribution{
		GroupCols: c.agg.GroupColNames(),
		AggCols:   c.agg.AggColNames(),
	}
	for g := range gr.Keys {
		kept := n
		samples := gr.Samples[g]
		if gr.Include != nil {
			samples = make([][]float64, len(gr.Samples[g]))
			kept = 0
			for _, inc := range gr.Include[g] {
				if inc {
					kept++
				}
			}
			if kept == 0 {
				continue // the group never satisfied HAVING
			}
			for a := range samples {
				filtered := make([]float64, 0, kept)
				for r, inc := range gr.Include[g] {
					if inc {
						filtered = append(filtered, gr.Samples[g][a][r])
					}
				}
				samples[a] = filtered
			}
		}
		gd := GroupDistribution{
			Key:       gr.Keys[g],
			Dists:     make([]*Distribution, len(samples)),
			Inclusion: float64(kept) / float64(n),
		}
		for a := range samples {
			if err := stats.CheckFinite(samples[a]); err != nil {
				return nil, fmt.Errorf("mcdbr: group %s aggregate %s produced a non-finite query result (%w); check VG parameters and aggregate expressions",
					formatGroupKey(gr.Keys[g]), c.agg.Aggs[a].Name, err)
			}
			gd.Dists[a] = newDistribution(samples[a])
		}
		out.Groups = append(out.Groups, gd)
	}
	return out, nil
}

// TailSampleOptions tunes tail sampling; the zero value uses the Appendix C
// defaults.
type TailSampleOptions struct {
	// TotalSamples is the budget N over all bootstrapping steps (0 =
	// derive from MSRETarget, default target 0.05).
	TotalSamples int
	// MSRETarget selects N when TotalSamples is 0.
	MSRETarget float64
	// K is the number of Gibbs updating steps (default 1).
	K int
	// ForceM overrides the Theorem 1 step count.
	ForceM int
	// MaxTriesPerUpdate bounds rejection sampling per update.
	MaxTriesPerUpdate int
	// Lower samples the lower tail (small-value risk) instead of the upper.
	Lower bool
	// Parallelism overrides the engine's worker count for this query's
	// batch version recomputation (0 = engine default, 1 = sequential).
	Parallelism int
}

// TailSample estimates the (1-p)-quantile of the query-result distribution
// and returns l samples conditioned to lie beyond it — the paper's
//
//	WITH RESULTDISTRIBUTION MONTECARLO(l)
//	DOMAIN result >= QUANTILE(1-p)
//
// clause. For Lower tails the DOMAIN is result <= QUANTILE(p). The query
// must have a single aggregate and no GROUP BY — use TailSampleGrouped
// for per-group tails.
func (q *QueryBuilder) TailSample(p float64, l int, opts TailSampleOptions) (tr *TailResult, err error) {
	defer recoverToError("TailSample", &err)
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	if c.grouped() || len(c.agg.Aggs) > 1 {
		return nil, fmt.Errorf("mcdbr: query has GROUP BY or multiple aggregates; use TailSampleGrouped")
	}
	return q.e.runTail(nil, c, p, l, opts, q.e.seed, q.e.maxQueryBytes)
}

// TailSampleGrouped runs per-group tail sampling for a GROUP BY query:
// the plan is compiled once, the groups are discovered from one plan run,
// and each group gets its own conditioned Gibbs run restricted to its
// tuples (paper App. A treats GROUP BY over g groups as g conditioned
// queries) — without re-parsing, re-planning, or re-filtering per group,
// and with deterministic prefixes shared through the engine's prefix
// cache. The query must have exactly one aggregate and no HAVING.
func (q *QueryBuilder) TailSampleGrouped(p float64, l int, opts TailSampleOptions) (gt *GroupedTail, err error) {
	defer recoverToError("TailSampleGrouped", &err)
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	if !c.grouped() {
		return nil, fmt.Errorf("mcdbr: TailSampleGrouped needs GROUP BY; use TailSample")
	}
	return q.e.runGroupedTail(nil, c, p, l, opts, q.e.seed, q.e.maxQueryBytes)
}

// runTail executes a compiled plan's tail sampling in a fresh per-run
// workspace; the shared execution path of QueryBuilder.TailSample and
// PreparedQuery.Run. The looper query is copied, never mutated, so one
// compiled plan can serve concurrent runs.
func (e *Engine) runTail(ctx context.Context, c *compiled, p float64, l int, opts TailSampleOptions, seed uint64, maxBytes int64) (*TailResult, error) {
	gq := c.gq
	gq.LowerTail = opts.Lower
	return e.runTailWith(ctx, c, gq, p, l, opts, seed, maxBytes)
}

// runTailWith is runTail with an explicit looper query — the per-group
// conditioned runs of runGroupedTail pass a group-restricted copy.
func (e *Engine) runTailWith(ctx context.Context, c *compiled, gq gibbs.Query, p float64, l int, opts TailSampleOptions, seed uint64, maxBytes int64) (*TailResult, error) {
	if len(c.agg.Aggs) > 1 {
		return nil, fmt.Errorf("mcdbr: DOMAIN tail sampling conditions on a single aggregate; the query has %d", len(c.agg.Aggs))
	}
	if c.agg.Having != nil {
		return nil, fmt.Errorf("mcdbr: HAVING is not supported with DOMAIN tail sampling; drop the DOMAIN clause or the HAVING clause")
	}
	parallelism := opts.Parallelism
	if parallelism == 0 {
		parallelism = e.parallelism
	}
	cfg, err := tail.Configure(p, l, tail.Options{
		TotalSamples:      opts.TotalSamples,
		MSRETarget:        opts.MSRETarget,
		K:                 opts.K,
		ForceM:            opts.ForceM,
		MaxTriesPerUpdate: opts.MaxTriesPerUpdate,
		Parallelism:       parallelism,
	})
	if err != nil {
		return nil, err
	}
	window := e.window
	if need := cfg.N + cfg.L; need > window {
		window = need
	}
	ws := e.newRunWorkspace(seed, window, maxBytes)
	ws.Ctx = ctx
	res, err := gibbs.Run(ws, c.agg.Child, gq, cfg)
	if err != nil {
		return nil, err
	}
	if err := stats.CheckFinite(res.TailSamples); err != nil {
		return nil, fmt.Errorf("mcdbr: tail sampling produced a non-finite query result (%w); check VG parameters and aggregate expressions", err)
	}
	return &TailResult{
		Distribution:      *newDistribution(res.TailSamples),
		QuantileEstimate:  res.Quantile,
		P:                 p,
		Lower:             gq.LowerTail,
		ExpectedShortfall: stats.ExpectedShortfall(res.TailSamples),
		Diag:              res,
	}, nil
}

// runGroupedTail runs one conditioned Gibbs chain per group of a compiled
// GROUP BY query. Groups are discovered from a single plan run (shared
// with the per-group runs through the deterministic-prefix cache); each
// group's looper then executes in a fresh workspace restricted to the
// group's tuples, exactly as if the query had been run with a per-group
// selection predicate — samples are bit-identical to that formulation.
func (e *Engine) runGroupedTail(ctx context.Context, c *compiled, p float64, l int, opts TailSampleOptions, seed uint64, maxBytes int64) (*GroupedTail, error) {
	if c.agg.Having != nil {
		return nil, fmt.Errorf("mcdbr: HAVING is not supported with DOMAIN tail sampling; drop the DOMAIN clause or the HAVING clause")
	}
	dws := e.newRunWorkspace(seed, e.window, maxBytes)
	dws.Ctx = ctx
	keys, err := c.agg.StreamGroupKeys(dws)
	if err != nil {
		return nil, err
	}
	out := &GroupedTail{
		GroupCols: c.agg.GroupColNames(),
		AggCol:    c.agg.AggColNames()[0],
	}
	for _, key := range keys {
		gq := c.gq
		gq.LowerTail = opts.Lower
		gq.GroupBy = c.agg.GroupBy
		gq.GroupKey = key
		tr, err := e.runTailWith(ctx, c, gq, p, l, opts, seed, maxBytes)
		if err != nil {
			return nil, fmt.Errorf("mcdbr: group %s: %w", formatGroupKey(key), err)
		}
		out.Groups = append(out.Groups, GroupTail{Key: key, Tail: tr})
	}
	return out, nil
}

// Histogram bins the samples into nBins equal-width buckets; a convenience
// for text plots in examples and the bench harness.
func (d *Distribution) Histogram(nBins int) (edges []float64, counts []int) {
	if nBins < 1 || len(d.Samples) == 0 {
		return nil, nil
	}
	s := stats.Summarize(d.Samples)
	lo, hi := s.Min, s.Max
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(nBins)
	edges = make([]float64, nBins+1)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	counts = make([]int, nBins)
	for _, x := range d.Samples {
		b := int(math.Floor((x - lo) / width))
		if b >= nBins {
			b = nBins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}
