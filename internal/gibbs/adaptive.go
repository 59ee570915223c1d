// Adaptive Monte Carlo: confidence-interval early stopping over the
// replicate-sharded executor. A fixed MONTECARLO(N) run spends N replicates
// regardless of estimator variance; the round driver here executes
// replicates in geometrically growing rounds over the same replicate-
// sharded windows and stops as soon as every (group, aggregate) pair's
// normal-approximation confidence interval is relatively tighter than the
// user's target. Because stream element i is a pure function of (seed, i),
// the concatenation of rounds [0,32), [32,96), [96,224), ... is exactly the
// prefix of the fixed run's replicate sequence — stopping after m
// replicates yields results bit-identical to MONTECARLO(m) at every worker
// count, so adaptive mode is still fully deterministic given the data.
package gibbs

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

// Default stopping-rule parameters (see StopRule).
const (
	DefaultConfidence = 0.95
	DefaultMaxSamples = 65536
	DefaultFirstRound = 32
)

// StopRule is the UNTIL ERROR < eps AT conf%, MAX n stopping rule. The
// zero value of a field selects its default; TargetRelError <= 0 disables
// convergence checking entirely (the driver runs straight to MaxSamples —
// the shape the progressive-streaming path uses for fixed-N queries).
type StopRule struct {
	// TargetRelError is the relative CI half-width every aggregate of
	// every group must reach: half-width / |mean| <= TargetRelError.
	TargetRelError float64
	// Confidence is the two-sided CI level (0.95 = 95%).
	Confidence float64
	// MaxSamples caps total replicates when convergence never fires.
	MaxSamples int
	// FirstRound is the first round's replicate count; rounds double.
	FirstRound int
	// DegradeOnDeadline selects graceful degradation: when the run's
	// context deadline fires after at least one complete round, the driver
	// returns the rounds accumulated so far (bit-identical to a fixed run
	// of that count) with Degraded set, instead of an error. Cancellation
	// for any other reason — client disconnect, explicit cancel — still
	// errors: there is nobody left to want a partial answer. Fixed-N
	// execution never sets this; its bit-identical contract is strict.
	DegradeOnDeadline bool
}

// Normalized returns the rule with defaults filled in.
func (r StopRule) Normalized() StopRule {
	if r.Confidence <= 0 || r.Confidence >= 1 {
		r.Confidence = DefaultConfidence
	}
	if r.MaxSamples <= 0 {
		r.MaxSamples = DefaultMaxSamples
	}
	if r.FirstRound <= 0 {
		r.FirstRound = DefaultFirstRound
	}
	return r
}

// CISnapshot is the state of one (group, aggregate) estimate after a
// round: the running mean over replicates, its CI half-width at the rule's
// confidence, and whether the pair has met the target.
type CISnapshot struct {
	// N is the number of replicates folded in (HAVING-included only).
	N int64
	// Mean is the running point estimate.
	Mean float64
	// HalfWidth is the CI half-width at the rule's confidence level.
	HalfWidth float64
	// RelError is HalfWidth / |Mean| (+Inf when undefined).
	RelError float64
	// Converged reports whether RelError has met the target.
	Converged bool
	// ConvergedAt is the cumulative replicate count at which the pair
	// first converged; 0 while it has not.
	ConvergedAt int
}

// RoundUpdate is the progress report the driver emits after each round —
// the payload of a progressive (SSE) result event.
type RoundUpdate struct {
	// Round numbers the completed round (1-based).
	Round int
	// SamplesUsed is the cumulative replicate count.
	SamplesUsed int
	// Keys holds the group keys, parallel to CIs.
	Keys []types.Row
	// CIs[g][a] snapshots group g, aggregate a.
	CIs [][]CISnapshot
	// Converged reports whether every pair has met the target.
	Converged bool
}

// AdaptiveResult is the round driver's output.
type AdaptiveResult struct {
	// Runs holds the replicates actually executed — identical to a fixed
	// MONTECARLO(SamplesUsed) run's output.
	Runs *GroupedRuns
	// SamplesUsed is the total replicate count (m).
	SamplesUsed int
	// Rounds is the number of rounds executed.
	Rounds int
	// Converged reports whether the target was met (false: MaxSamples hit).
	Converged bool
	// Degraded reports that the run's deadline fired before convergence
	// and Runs holds the partial prefix accumulated by then (see
	// StopRule.DegradeOnDeadline).
	Degraded bool
	// CIs[g][a] is the final snapshot per (group, aggregate) pair.
	CIs [][]CISnapshot
}

// MonteCarloGroupedAdaptive runs grouped Monte Carlo in geometrically
// growing rounds, stopping once every (group, aggregate) pair's relative
// CI half-width meets rule.TargetRelError or rule.MaxSamples replicates
// have run. Each round's replicate window [lo, hi) runs through the same
// sharded window driver as MonteCarloGroupedParallel, so the accumulated
// sample is bit-identical to MonteCarloGroupedParallel(m) for every
// worker count and round schedule. progress, when non-nil, is
// invoked after every round with the cumulative state (from the driver's
// goroutine; it must not retain the CIs slices across calls).
//
// Convergence is judged on HAVING-included replicates only — the same
// subsample the reported result distributions are built from — so a group
// excluded in every replicate so far contributes an unbounded interval
// and keeps the driver running until MaxSamples.
func MonteCarloGroupedAdaptive(ws *exec.Workspace, agg *exec.Aggregate, final expr.Expr, rule StopRule, workers int, progress func(RoundUpdate)) (*AdaptiveResult, error) {
	rule = rule.Normalized()
	var (
		acc  *GroupedRuns
		wel  [][]stats.Welford
		cis  [][]CISnapshot
		res  = &AdaptiveResult{}
		lo   = 0
		size = rule.FirstRound
	)
	//mcdbr:hotpath
	for lo < rule.MaxSamples {
		if err := ws.Cancelled(); err != nil {
			if degradable(rule, acc, err) {
				res.Degraded = true
				break
			}
			return nil, err
		}
		hi := lo + size
		if hi > rule.MaxSamples {
			hi = rule.MaxSamples
		}
		part, err := monteCarloGroupedWindow(ws, agg, final, lo, hi, workers)
		if err != nil {
			if degradable(rule, acc, err) {
				res.Degraded = true
				break
			}
			return nil, err
		}
		if acc == nil {
			acc = part
			nG, nA := len(part.Keys), 0
			if nG > 0 {
				nA = len(part.Samples[0])
			}
			// One backing array each: a fixed-N run is a single round, and
			// per-group rows would cost it 2*nG allocations.
			welAll, cisAll := make([]stats.Welford, nG*nA), make([]CISnapshot, nG*nA)
			wel = make([][]stats.Welford, nG)
			cis = make([][]CISnapshot, nG)
			for g := 0; g < nG; g++ {
				wel[g] = welAll[g*nA : (g+1)*nA : (g+1)*nA]
				cis[g] = cisAll[g*nA : (g+1)*nA : (g+1)*nA]
			}
		} else {
			var merr error
			if acc, merr = mergeGroupedRuns([]*GroupedRuns{acc, part}); merr != nil {
				return nil, merr
			}
		}
		res.Rounds++
		res.SamplesUsed = hi
		converged := foldRound(wel, cis, part, rule, hi)
		res.Converged = converged
		if progress != nil {
			progress(RoundUpdate{Round: res.Rounds, SamplesUsed: hi, Keys: acc.Keys, CIs: cis, Converged: converged})
		}
		if converged && rule.TargetRelError > 0 {
			break
		}
		lo = hi
		size *= 2
	}
	if acc == nil {
		return nil, fmt.Errorf("gibbs: adaptive run executed no replicates (MaxSamples=%d)", rule.MaxSamples)
	}
	res.Runs = acc
	res.CIs = cis
	return res, nil
}

// degradable reports whether a run error downgrades to a partial result:
// the rule opted in, at least one round completed (so res holds a
// bit-identical fixed-run prefix), and the cause was specifically a
// deadline — an explicit cancel means nobody is waiting for an answer.
func degradable(rule StopRule, acc *GroupedRuns, err error) bool {
	return rule.DegradeOnDeadline && acc != nil && errors.Is(err, context.DeadlineExceeded)
}

// foldRound feeds one round's replicates into the per-pair accumulators
// and refreshes the snapshots; it reports whether every pair has met the
// target. HAVING-excluded replicates are skipped, matching the subsample
// result distributions are built from.
func foldRound(wel [][]stats.Welford, cis [][]CISnapshot, part *GroupedRuns, rule StopRule, total int) bool {
	all := true
	for g := range wel {
		for a := range wel[g] {
			w := &wel[g][a]
			for r, x := range part.Samples[g][a] {
				if part.Include != nil && !part.Include[g][r] {
					continue
				}
				w.Add(x)
			}
			snap := &cis[g][a]
			snap.N = w.N()
			snap.Mean = w.Mean()
			snap.HalfWidth = w.HalfWidth(rule.Confidence)
			snap.RelError = w.RelHalfWidth(rule.Confidence)
			ok := rule.TargetRelError > 0 && snap.RelError <= rule.TargetRelError
			if ok && snap.ConvergedAt == 0 {
				snap.ConvergedAt = total
			}
			snap.Converged = ok
			if !ok {
				all = false
			}
		}
	}
	return all
}
