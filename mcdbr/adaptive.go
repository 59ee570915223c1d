package mcdbr

// Adaptive Monte Carlo at the public API layer: the stopping rule behind
// MONTECARLO(UNTIL ERROR < eps AT conf%, MAX n) and the
// RunOptions.TargetRelError override, the per-run parameters, and the
// report and progress types. The two drivers (results.go) take the rule:
// plain (non-DOMAIN) queries run through the round-based driver in
// internal/gibbs, which executes replicates in geometrically growing
// replicate-sharded windows and stops once every (group, aggregate)
// confidence interval is relatively tighter than the target; stopping
// after m replicates is bit-identical to a fixed MONTECARLO(m) run at
// every worker count. DOMAIN tail queries instead double the conditioned
// chain length per attempt until the expected-shortfall interval meets
// the target — the final attempt is literally a fixed-length tail run, so
// its samples match MONTECARLO(L) exactly.

import (
	"context"

	"repro/internal/gibbs"
	"repro/internal/plan"
	"repro/internal/types"
)

// AggregateCI is the confidence-interval state of one (group, aggregate)
// estimate when an adaptive run stopped (or, in a ProgressUpdate, after a
// round). The interval is the normal approximation mean ± HalfWidth at the
// rule's confidence level, computed over HAVING-included replicates.
type AggregateCI struct {
	// Group is the formatted group key ("" for ungrouped queries).
	Group string
	// Agg names the aggregate output column.
	Agg string
	// N is the number of replicates folded in.
	N int64
	// Mean is the running point estimate.
	Mean float64
	// HalfWidth is the CI half-width at the rule's confidence level.
	HalfWidth float64
	// RelError is HalfWidth / |Mean| (+Inf when undefined).
	RelError float64
	// Converged reports whether RelError met the target.
	Converged bool
	// ConvergedAt is the cumulative replicate count at which the estimate
	// first converged (0 if it never did).
	ConvergedAt int
}

// AdaptiveReport summarizes how an adaptive run stopped: the effective
// stopping rule, the replicates actually spent, and the final interval per
// (group, aggregate) pair. Attached to the ExecResult of every adaptive
// execution (and of progressive fixed-N runs, where Converged is always
// false because no target is set).
type AdaptiveReport struct {
	// TargetRelError, Confidence, and MaxSamples echo the effective rule
	// (defaults filled in).
	TargetRelError float64
	Confidence     float64
	MaxSamples     int
	// SamplesUsed is the number of Monte Carlo replicates executed (for
	// DOMAIN queries: conditioned tail samples retained, summed over
	// groups).
	SamplesUsed int
	// Rounds is the number of rounds (plain MC) or chain attempts (tails).
	Rounds int
	// Converged reports whether every estimate met the target before
	// MaxSamples.
	Converged bool
	// Degraded reports that the run's deadline fired before the rule was
	// satisfied and the report describes the partial prefix accumulated by
	// then (RunOptions.DegradeOnDeadline). For grouped tails a degraded
	// report may cover only the groups whose chains completed in time.
	Degraded bool
	// CIs holds the final interval per (group, aggregate) pair, groups in
	// key order, aggregates in select-list order.
	CIs []AggregateCI
}

// ProgressUpdate is the progressive-result payload delivered to
// RunOptions.Progress after every adaptive round — the engine-level form
// of the SSE events the serving layer streams. The CIs slice is freshly
// allocated per call and may be retained.
type ProgressUpdate struct {
	// Round counts completed rounds (1-based).
	Round int
	// SamplesUsed is the cumulative replicate count (for tails: the
	// current chain length).
	SamplesUsed int
	// Converged reports whether every estimate has met the target.
	Converged bool
	// CIs snapshots every (group, aggregate) interval.
	CIs []AggregateCI
}

// runParams bundles the per-run execution knobs threaded from the public
// entry points (Exec, PreparedQuery.RunCtx) into runSelectCompiled, so
// adding a knob does not grow every signature on the path.
type runParams struct {
	// ctx carries run cancellation; nil means "never cancelled".
	ctx      context.Context
	seed     uint64
	workers  int
	n        int
	maxBytes int64
	// stop, when non-nil, is the resolved adaptive stopping rule (RunOptions
	// overrides already folded in). nil falls back to the statement's rule.
	stop *gibbs.StopRule
	// degrade opts adaptive runs into graceful deadline degradation
	// (RunOptions.DegradeOnDeadline); fixed-N runs ignore it.
	degrade bool
	// progress, when non-nil, selects progressive execution: the round
	// driver runs even for fixed-N statements (with convergence disabled)
	// and invokes the callback after every round.
	progress func(ProgressUpdate)
}

// defaultRun is the run with the engine's own seed, worker count and
// memory budget: what Exec and the QueryBuilder entry points execute.
func (e *Engine) defaultRun(n int) runParams {
	return runParams{seed: e.seed, workers: e.parallelism, n: n, maxBytes: e.maxQueryBytes}
}

// stopRule resolves the effective stopping rule: the per-run override if
// set, else the statement/builder rule compiled into the plan, else nil
// (fixed-N execution).
func (rp runParams) stopRule(c *compiled) *gibbs.StopRule {
	if rp.stop != nil {
		return rp.stop
	}
	if c.stop != nil {
		r := stopRuleFromSpec(c.stop)
		return &r
	}
	return nil
}

// stopRuleFromSpec converts the plan-layer stopping rule to the executor
// form (defaults still unfilled; Normalized applies them).
func stopRuleFromSpec(s *plan.StopSpec) gibbs.StopRule {
	return gibbs.StopRule{
		TargetRelError: s.TargetRelError,
		Confidence:     s.Confidence,
		MaxSamples:     s.MaxSamples,
	}
}

// snapshotCIs flattens the driver's per-(group, aggregate) snapshots into
// the public shape, labelling each with its group key and aggregate column.
func snapshotCIs(aggCols []string, keys []types.Row, cis [][]gibbs.CISnapshot) []AggregateCI {
	var out []AggregateCI
	for g := range cis {
		group := ""
		if g < len(keys) {
			group = formatGroupKey(keys[g])
		}
		for a := range cis[g] {
			s := cis[g][a]
			name := ""
			if a < len(aggCols) {
				name = aggCols[a]
			}
			out = append(out, AggregateCI{
				Group:       group,
				Agg:         name,
				N:           s.N,
				Mean:        s.Mean,
				HalfWidth:   s.HalfWidth,
				RelError:    s.RelError,
				Converged:   s.Converged,
				ConvergedAt: s.ConvergedAt,
			})
		}
	}
	return out
}

// adaptiveReport builds the public report from the driver's result.
func adaptiveReport(c *compiled, res *gibbs.AdaptiveResult, rule gibbs.StopRule) *AdaptiveReport {
	return &AdaptiveReport{
		TargetRelError: rule.TargetRelError,
		Confidence:     rule.Confidence,
		MaxSamples:     rule.MaxSamples,
		SamplesUsed:    res.SamplesUsed,
		Rounds:         res.Rounds,
		Converged:      res.Converged,
		Degraded:       res.Degraded,
		CIs:            snapshotCIs(c.agg.AggColNames(), res.Runs.Keys, res.CIs),
	}
}
