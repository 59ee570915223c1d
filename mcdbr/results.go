package mcdbr

import (
	"context"
	"errors"
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

// KeyString renders the group key: the single value's string form, or
// comma-joined values for multi-column keys (the server's group_tails
// keys and AggregateCI.Group use the same form).
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
	gd, _, err := q.e.runMC(c, nil, q.e.defaultRun(n))
	if err != nil {
		return nil, err
	}
	return gd.Groups[0].Dists[0], nil
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
	gd, _, err = q.e.runMC(c, nil, q.e.defaultRun(n))
	return gd, err
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
	rule := stopRuleFromSpec(c.stop)
	return q.e.runMC(c, &rule, q.e.defaultRun(0))
}

// runMC is the one Monte Carlo driver: every plain (non-DOMAIN)
// run goes through gibbs.MonteCarloGroupedAdaptive. A fixed
// MONTECARLO(n) (rule == nil) is the single window [0, n) with no target,
// exactly the window MonteCarloGroupedParallel runs; with rp.progress set
// the same n replicates run in doubling rounds with convergence disabled,
// so partial estimates stream and the result is unchanged. The report is
// nil for plain fixed-N runs.
func (e *Engine) runMC(c *compiled, rule *gibbs.StopRule, rp runParams) (*GroupedDistribution, *AdaptiveReport, error) {
	var r gibbs.StopRule
	switch {
	case rule != nil:
		r = *rule
	case rp.n < 1:
		// Normalized would turn n <= 0 into a default-sized run; the text
		// is the one the window driver returns for it.
		return nil, nil, fmt.Errorf("gibbs: need n >= 1 repetitions, got %d", rp.n)
	case rp.progress != nil:
		r.MaxSamples = rp.n
	default:
		r = gibbs.StopRule{FirstRound: rp.n, MaxSamples: rp.n}
	}
	r = r.Normalized()
	// The prototype workspace is never evaluated itself — every round
	// window runs in a ShardWorkspace with its own base and window — so
	// the window here only sizes the prototype's (unused) default.
	ws := e.newRunWorkspace(rp.seed, r.FirstRound, rp.maxBytes)
	ws.Ctx = rp.ctx
	var progress func(gibbs.RoundUpdate)
	if rp.progress != nil {
		aggCols := c.agg.AggColNames()
		progress = func(u gibbs.RoundUpdate) {
			rp.progress(ProgressUpdate{
				Round:       u.Round,
				SamplesUsed: u.SamplesUsed,
				Converged:   u.Converged,
				CIs:         snapshotCIs(aggCols, u.Keys, u.CIs),
			})
		}
	}
	res, err := gibbs.MonteCarloGroupedAdaptive(ws, c.agg, c.gq.FinalPred, r, rp.workers, progress)
	if err != nil {
		return nil, nil, err
	}
	gd, err := buildGroupedDistribution(c, res.Runs, res.SamplesUsed)
	if err != nil {
		return nil, nil, err
	}
	if rule == nil && rp.progress == nil {
		return gd, nil, nil
	}
	return gd, adaptiveReport(c, res, r), nil
}

// buildGroupedDistribution turns raw grouped runs into the per-group
// result distributions; n is the replicate count the runs hold. With a
// HAVING clause, each group keeps only the repetitions in which the
// predicate held; groups that never satisfy it are dropped.
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
				what := "Monte Carlo"
				if c.grouped() || len(c.agg.Aggs) > 1 {
					what = fmt.Sprintf("group %s aggregate %s", formatGroupKey(gr.Keys[g]), c.agg.Aggs[a].Name)
				}
				return nil, fmt.Errorf("mcdbr: %s produced a non-finite query result (%w); check VG parameters and aggregate expressions", what, err)
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
	gt, _, err := q.e.runTails(c, p, opts, nil, q.e.defaultRun(l))
	if err != nil {
		return nil, err
	}
	return gt.Groups[0].Tail, nil
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
	gt, _, err = q.e.runTails(c, p, opts, nil, q.e.defaultRun(l))
	return gt, err
}

// checkTail rejects what DOMAIN tail sampling cannot condition on.
func checkTail(c *compiled) error {
	if len(c.agg.Aggs) > 1 {
		return fmt.Errorf("mcdbr: DOMAIN tail sampling conditions on a single aggregate; the query has %d", len(c.agg.Aggs))
	}
	if c.agg.Having != nil {
		return fmt.Errorf("mcdbr: HAVING is not supported with DOMAIN tail sampling; drop the DOMAIN clause or the HAVING clause")
	}
	return nil
}

// runTails is the one tail-sampling driver: one conditioned Gibbs
// chain per group (paper App. A runs GROUP BY over g groups as g
// conditioned queries). An ungrouped query is the single empty-key group,
// so groups are discovered from a plan run only when the query groups;
// that run shares its deterministic prefix with the per-group chains
// through the prefix cache. Each group's chain is restricted to its
// tuples, exactly as if the query had a per-group selection predicate.
//
// Under an adaptive rule each chain doubles its length per attempt — L,
// 2L, 4L, ... up to rule.MaxSamples — and stops once its expected-
// shortfall interval (normal approximation over the conditioned samples)
// meets the target, so a low-variance group settles at a short chain
// while a heavy-tailed one keeps doubling. Every attempt is a complete
// fixed-length run, so a group's result is bit-identical to
// MONTECARLO(L) at its final L. A fixed MONTECARLO(rp.n) (rule == nil) is
// the one-attempt case and carries no report.
//
// With rule.DegradeOnDeadline, a deadline that fires mid-chain keeps that
// group's last completed attempt and stops; one that fires on a group's
// first attempt drops that group, and errors only when no group is done.
func (e *Engine) runTails(c *compiled, p float64, opts TailSampleOptions, rule *gibbs.StopRule, rp runParams) (*GroupedTail, *AdaptiveReport, error) {
	if err := checkTail(c); err != nil {
		return nil, nil, err
	}
	keys := []types.Row{{}}
	if c.grouped() {
		dws := e.newRunWorkspace(rp.seed, e.window, rp.maxBytes)
		dws.Ctx = rp.ctx
		var err error
		if keys, err = c.agg.StreamGroupKeys(dws); err != nil {
			return nil, nil, err
		}
	}
	out := &GroupedTail{
		GroupCols: c.agg.GroupColNames(),
		AggCol:    c.agg.AggColNames()[0],
	}
	first, maxL := rp.n, rp.n
	var report *AdaptiveReport
	if rule != nil {
		r := rule.Normalized()
		rule = &r
		first, maxL = min(r.FirstRound, r.MaxSamples), r.MaxSamples
		report = &AdaptiveReport{
			TargetRelError: r.TargetRelError,
			Confidence:     r.Confidence,
			MaxSamples:     r.MaxSamples,
			Converged:      true,
		}
	}
	gq := c.gq
	gq.LowerTail = opts.Lower
	gq.GroupBy = c.agg.GroupBy
	round := 0
	for _, key := range keys {
		gq.GroupKey = key
		var tr *TailResult
		var ci AggregateCI
		attempts, degraded := 0, false
		for L := first; ; L = min(2*L, maxL) {
			attempts++
			next, err := e.tailAttempt(c, gq, p, L, opts, rp)
			if err != nil {
				if rule != nil && rule.DegradeOnDeadline && errors.Is(err, context.DeadlineExceeded) && (tr != nil || len(out.Groups) > 0) {
					degraded = true
					break
				}
				if c.grouped() {
					err = fmt.Errorf("mcdbr: group %s: %w", formatGroupKey(key), err)
				}
				return nil, nil, err
			}
			tr = next
			if rule == nil {
				break
			}
			var w stats.Welford
			w.AddAll(tr.Samples)
			ci = AggregateCI{
				Group:     formatGroupKey(key),
				Agg:       out.AggCol,
				N:         w.N(),
				Mean:      w.Mean(),
				HalfWidth: w.HalfWidth(rule.Confidence),
				RelError:  w.RelHalfWidth(rule.Confidence),
			}
			ci.Converged = rule.TargetRelError > 0 && ci.RelError <= rule.TargetRelError
			if ci.Converged {
				ci.ConvergedAt = L
			}
			round++
			if rp.progress != nil {
				rp.progress(ProgressUpdate{Round: round, SamplesUsed: L, Converged: ci.Converged, CIs: []AggregateCI{ci}})
			}
			if ci.Converged || L >= maxL {
				break
			}
		}
		if tr != nil {
			out.Groups = append(out.Groups, GroupTail{Key: key, Tail: tr})
			if report != nil {
				report.SamplesUsed += len(tr.Samples)
				report.Rounds += attempts
				report.CIs = append(report.CIs, ci)
				report.Converged = report.Converged && ci.Converged
			}
		}
		if degraded {
			// Later groups would only burn their first attempt against an
			// expired context.
			report.Degraded = true
			report.Converged = false
			break
		}
	}
	return out, report, nil
}

// tailAttempt is one fixed-length conditioned Gibbs run of l tail samples
// in a fresh per-run workspace. gq is the caller's copy of the compiled
// looper query, so one compiled plan can serve concurrent runs.
func (e *Engine) tailAttempt(c *compiled, gq gibbs.Query, p float64, l int, opts TailSampleOptions, rp runParams) (*TailResult, error) {
	parallelism := opts.Parallelism
	if parallelism == 0 {
		parallelism = rp.workers
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
	ws := e.newRunWorkspace(rp.seed, max(e.window, cfg.N+cfg.L), rp.maxBytes)
	ws.Ctx = rp.ctx
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
