package mcdbr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/expr"
)

const adaptiveSQL = `SELECT SUM(val) FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.01 AT 95%, MAX 8192)`

func TestExecAdaptiveSQL(t *testing.T) {
	e := lossEngine(t, 20, 7)
	mu, _ := analyticLoss(e)
	res, err := e.Exec(adaptiveSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecDistribution {
		t.Fatalf("kind = %v", res.Kind)
	}
	rep := res.Adaptive
	if rep == nil {
		t.Fatal("adaptive run returned no report")
	}
	if !rep.Converged {
		t.Fatalf("did not converge within MAX: %+v", rep)
	}
	if rep.SamplesUsed >= rep.MaxSamples {
		t.Fatalf("no early stop: used %d of %d", rep.SamplesUsed, rep.MaxSamples)
	}
	if len(res.Dist.Samples) != rep.SamplesUsed {
		t.Fatalf("distribution holds %d samples, report says %d", len(res.Dist.Samples), rep.SamplesUsed)
	}
	if len(rep.CIs) != 1 {
		t.Fatalf("CIs = %+v", rep.CIs)
	}
	ci := rep.CIs[0]
	if ci.RelError > rep.TargetRelError || !ci.Converged {
		t.Fatalf("final CI not converged: %+v", ci)
	}
	// The interval should cover the analytic mean at this tight a target.
	if math.Abs(ci.Mean-mu) > 4*ci.HalfWidth {
		t.Fatalf("CI mean %g implausibly far from analytic %g (hw %g)", ci.Mean, mu, ci.HalfWidth)
	}
}

// TestAdaptiveBitIdentityAcrossWorkers: an adaptive run that stops at m
// replicates is bit-identical to MONTECARLO(m), at every worker count.
func TestAdaptiveBitIdentityAcrossWorkers(t *testing.T) {
	e := lossEngine(t, 12, 3)
	p, err := e.Prepare(adaptiveSQL)
	if err != nil {
		t.Fatal(err)
	}
	var ref *ExecResult
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		res, err := p.Run(RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Adaptive.SamplesUsed != ref.Adaptive.SamplesUsed {
			t.Fatalf("workers=%d used %d samples, want %d", workers, res.Adaptive.SamplesUsed, ref.Adaptive.SamplesUsed)
		}
		for i, s := range res.Dist.Samples {
			if s != ref.Dist.Samples[i] {
				t.Fatalf("workers=%d sample %d = %v, want %v", workers, i, s, ref.Dist.Samples[i])
			}
		}
	}
	// And identical to a fixed run of the same count.
	m := ref.Adaptive.SamplesUsed
	fixed, err := e.Query().From("losses", "").SelectSum(expr.C("val")).MonteCarlo(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range fixed.Samples {
		if s != ref.Dist.Samples[i] {
			t.Fatalf("fixed MONTECARLO(%d) sample %d = %v, adaptive %v", m, i, s, ref.Dist.Samples[i])
		}
	}
}

// TestAdaptiveCoverage: across many independent seeds, the reported 95%
// interval covers the analytic mean at roughly the nominal rate. The test
// is fully deterministic (fixed seed list); the 85% floor leaves room for
// normal-approximation slack at small stopping times.
func TestAdaptiveCoverage(t *testing.T) {
	covered, runs := 0, 40
	for seed := 1; seed <= runs; seed++ {
		e := lossEngine(t, 10, uint64(seed))
		mu, _ := analyticLoss(e)
		gd, rep, err := e.Query().From("losses", "").
			SelectSum(expr.C("val")).
			Until(0.02, 0.95, 8192).
			MonteCarloAdaptive()
		if err != nil {
			t.Fatal(err)
		}
		if len(gd.Groups) != 1 || len(rep.CIs) != 1 {
			t.Fatalf("seed %d: groups %d, CIs %d", seed, len(gd.Groups), len(rep.CIs))
		}
		ci := rep.CIs[0]
		if math.Abs(ci.Mean-mu) <= ci.HalfWidth {
			covered++
		}
	}
	if frac := float64(covered) / float64(runs); frac < 0.85 {
		t.Fatalf("95%% CI covered the true mean in only %d/%d runs (%.0f%%)", covered, runs, 100*frac)
	}
}

func TestRunCtxCancellation(t *testing.T) {
	e := lossEngine(t, 50, 5)
	p, err := e.Prepare(`SELECT SUM(val) FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(2000)`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunCtx(ctx, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Adaptive runs are cancellable too.
	if _, err := p.RunCtx(ctx, RunOptions{TargetRelError: 0.01}); !errors.Is(err, context.Canceled) {
		t.Fatalf("adaptive err = %v, want context.Canceled", err)
	}
	// A live context still runs to completion.
	if _, err := p.RunCtx(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestProgressiveFixedN: a Progress callback on a fixed-N statement streams
// partial estimates while the final result stays bit-identical to a plain
// run.
func TestProgressiveFixedN(t *testing.T) {
	e := lossEngine(t, 15, 9)
	p, err := e.Prepare(`SELECT SUM(val) FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(500)`)
	if err != nil {
		t.Fatal(err)
	}
	var updates []ProgressUpdate
	res, err := p.Run(RunOptions{Progress: func(u ProgressUpdate) { updates = append(updates, u) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no progress updates")
	}
	prev := 0
	for _, u := range updates {
		if u.SamplesUsed <= prev {
			t.Fatalf("samples not increasing: %+v", updates)
		}
		prev = u.SamplesUsed
	}
	if last := updates[len(updates)-1]; last.SamplesUsed != 500 {
		t.Fatalf("final update at %d samples, want 500", last.SamplesUsed)
	}
	if res.Adaptive == nil || res.Adaptive.Converged {
		t.Fatalf("progressive fixed-N report = %+v", res.Adaptive)
	}
	plain, err := p.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Dist.Samples) != len(res.Dist.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(plain.Dist.Samples), len(res.Dist.Samples))
	}
	for i := range plain.Dist.Samples {
		if plain.Dist.Samples[i] != res.Dist.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, plain.Dist.Samples[i], res.Dist.Samples[i])
		}
	}
}

func TestAdaptiveGroupedSQL(t *testing.T) {
	e := lossEngine(t, 8, 11)
	res, err := e.Exec(`SELECT SUM(val) AS s FROM Losses
GROUP BY CID
WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.05, MAX 4096)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecGroupedDistribution || res.Adaptive == nil {
		t.Fatalf("kind = %v, adaptive = %v", res.Kind, res.Adaptive)
	}
	if got := len(res.Grouped.Groups); got != 8 {
		t.Fatalf("groups = %d, want 8", got)
	}
	if got := len(res.Adaptive.CIs); got != 8 {
		t.Fatalf("CIs = %d, want 8 (one per group)", got)
	}
	for _, g := range res.Grouped.Groups {
		if len(g.Dists[0].Samples) != res.Adaptive.SamplesUsed {
			t.Fatalf("group %s has %d samples, report says %d", g.KeyString(), len(g.Dists[0].Samples), res.Adaptive.SamplesUsed)
		}
	}
}

// TestAdaptiveTailSQL: DOMAIN queries stop chain-doubling once the
// expected-shortfall interval meets the target, and the final tail is
// bit-identical to a fixed MONTECARLO(L) DOMAIN run at the stopping L.
func TestAdaptiveTailSQL(t *testing.T) {
	e := lossEngine(t, 10, 2)
	res, err := e.ExecWithOptions(`SELECT SUM(val) AS totalLoss FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.05, MAX 256)
DOMAIN totalLoss >= QUANTILE(0.9)`, TailSampleOptions{TotalSamples: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecTail || res.Adaptive == nil {
		t.Fatalf("kind = %v, adaptive = %v", res.Kind, res.Adaptive)
	}
	L := res.Adaptive.SamplesUsed
	if L != len(res.Tail.Samples) {
		t.Fatalf("report says %d samples, tail holds %d", L, len(res.Tail.Samples))
	}
	fixed, err := e.ExecWithOptions(`SELECT SUM(val) AS totalLoss FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(`+itoa(L)+`)
DOMAIN totalLoss >= QUANTILE(0.9)`, TailSampleOptions{TotalSamples: 400})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range fixed.Tail.Samples {
		if s != res.Tail.Samples[i] {
			t.Fatalf("tail sample %d differs: fixed %v, adaptive %v", i, s, res.Tail.Samples[i])
		}
	}
}

// TestAdaptiveGroupedTailSQL is the grouped counterpart: every group's
// chain stops on its own, and each group's tail is bit-identical to that
// group in a fixed MONTECARLO(L) DOMAIN run at the group's own stopping L.
func TestAdaptiveGroupedTailSQL(t *testing.T) {
	const q = `SELECT SUM(l.val) AS x FROM losses l, grp grp
WHERE l.cid = grp.cid GROUP BY grp.g
WITH RESULTDISTRIBUTION MONTECARLO(%s)
DOMAIN x >= QUANTILE(0.9)`
	opts := TailSampleOptions{TotalSamples: 150}
	e := groupedEngine(t, 8, 2, 0)
	res, err := e.ExecWithOptions(fmt.Sprintf(q, "UNTIL ERROR < 0.01, MAX 256"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecGroupedTail || res.Adaptive == nil || len(res.GroupedTail.Groups) != 2 {
		t.Fatalf("kind = %v, adaptive = %v", res.Kind, res.Adaptive)
	}
	if len(res.Adaptive.CIs) != 2 {
		t.Fatalf("CIs = %+v, want one per group", res.Adaptive.CIs)
	}
	used := 0
	for i, g := range res.GroupedTail.Groups {
		L := len(g.Tail.Samples)
		used += L
		if ci := res.Adaptive.CIs[i]; ci.Group != g.KeyString() || ci.N != int64(L) {
			t.Fatalf("group %s: CI %+v for %d samples", g.KeyString(), ci, L)
		}
		fixed, err := e.ExecWithOptions(fmt.Sprintf(q, itoa(L)), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := fixed.GroupedTail.Groups[i]
		if want.KeyString() != g.KeyString() || len(want.Tail.Samples) != L {
			t.Fatalf("fixed MONTECARLO(%d): group %s with %d samples", L, want.KeyString(), len(want.Tail.Samples))
		}
		if want.Tail.QuantileEstimate != g.Tail.QuantileEstimate {
			t.Fatalf("group %s: quantile %v, fixed %v", g.KeyString(), g.Tail.QuantileEstimate, want.Tail.QuantileEstimate)
		}
		for j, x := range want.Tail.Samples {
			if g.Tail.Samples[j] != x {
				t.Fatalf("group %s tail sample %d: adaptive %v, fixed %v", g.KeyString(), j, g.Tail.Samples[j], x)
			}
		}
	}
	// At this seed and target the groups settle at different lengths, so
	// the per-group stops are really independent.
	if a, b := res.GroupedTail.Groups[0].Tail, res.GroupedTail.Groups[1].Tail; len(a.Samples) == len(b.Samples) {
		t.Fatalf("both groups stopped at L=%d", len(a.Samples))
	}
	if res.Adaptive.SamplesUsed != used {
		t.Fatalf("report says %d samples, groups hold %d", res.Adaptive.SamplesUsed, used)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestUntilChangesFingerprint: the stopping rule is part of the plan's
// identity, so the plan cache never serves an adaptive plan for a fixed
// statement or vice versa.
func TestUntilChangesFingerprint(t *testing.T) {
	e := lossEngine(t, 5, 1)
	p1, err := e.Prepare(adaptiveSQL)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Prepare(`SELECT SUM(val) FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(100)`)
	if err != nil {
		t.Fatal(err)
	}
	if p1.SQL() == p2.SQL() {
		t.Fatal("adaptive and fixed statements share a cache key")
	}
	if p1.c.stop == nil || p2.c.stop != nil {
		t.Fatalf("stop specs: adaptive %+v, fixed %+v", p1.c.stop, p2.c.stop)
	}
}
