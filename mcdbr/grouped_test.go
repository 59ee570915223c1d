package mcdbr

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// groupedEngine builds losses(cid, val) ~ Normal(m, 1) joined to a grp
// table assigning the first half of the customers to group "a" and the
// rest to "b". prefixCache <0 disables the deterministic-prefix cache.
func groupedEngine(t testing.TB, nCustomers, workers, prefixCache int) *Engine {
	t.Helper()
	e := lossEngine(t, nCustomers, 99)
	if workers > 0 {
		eOpts := []Option{WithSeed(99), WithWindow(2048), WithParallelism(workers), WithPrefixCacheSize(prefixCache)}
		e = New(eOpts...)
		tbl := lossEngine(t, nCustomers, 99)
		m, _ := tbl.Table("means")
		e.RegisterTable(m)
		if err := e.DefineRandomTable(RandomTable{
			Name: "losses", ParamTable: "means", VG: "Normal",
			VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
			Columns:  []RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	grp := storage.NewTable("grp", types.NewSchema(
		types.Column{Name: "cid", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindString},
	))
	m, _ := e.Table("means")
	for i, r := range m.Rows() {
		g := "a"
		if i >= nCustomers/2 {
			g = "b"
		}
		grp.MustAppend(types.Row{r[0], types.NewString(g)})
	}
	e.RegisterTable(grp)
	return e
}

// TestGroupedMonteCarloBitIdenticalToPerGroupLoop pins the ISSUE 5
// acceptance criterion: the single-pass grouped pipeline returns, for
// every group, samples bit-identical to the pre-refactor per-group outer
// loop — which ran one full query per group with a group-selection
// predicate appended — at several worker counts, with the prefix cache
// on and off.
func TestGroupedMonteCarloBitIdenticalToPerGroupLoop(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		for _, cache := range []int{0, -1} {
			e := groupedEngine(t, 10, workers, cache)
			res, err := e.Exec(fmt.Sprintf(`SELECT SUM(l.val) AS x FROM losses l, grp grp
WHERE l.cid = grp.cid GROUP BY grp.g
WITH RESULTDISTRIBUTION MONTECARLO(%d)`, n))
			if err != nil {
				t.Fatalf("workers=%d cache=%d: %v", workers, cache, err)
			}
			if res.Kind != ExecGroupedDistribution || len(res.Grouped.Groups) != 2 {
				t.Fatalf("workers=%d: kind=%v groups=%d", workers, res.Kind, len(res.Grouped.Groups))
			}
			for _, g := range []string{"a", "b"} {
				// The old loop's formulation: the same query restricted to one
				// group by a WHERE predicate.
				single, err := e.Exec(fmt.Sprintf(`SELECT SUM(l.val) AS x FROM losses l, grp grp
WHERE l.cid = grp.cid AND grp.g = '%s'
WITH RESULTDISTRIBUTION MONTECARLO(%d)`, g, n))
				if err != nil {
					t.Fatalf("group %s: %v", g, err)
				}
				gd := res.Grouped.Group(g)
				if gd == nil {
					t.Fatalf("group %s missing", g)
				}
				grouped := gd.Dists[0]
				if len(grouped.Samples) != len(single.Dist.Samples) {
					t.Fatalf("group %s: %d vs %d samples", g, len(grouped.Samples), len(single.Dist.Samples))
				}
				for i := range single.Dist.Samples {
					if grouped.Samples[i] != single.Dist.Samples[i] {
						t.Fatalf("workers=%d cache=%d group %s sample %d: grouped %v vs per-group %v",
							workers, cache, g, i, grouped.Samples[i], single.Dist.Samples[i])
					}
				}
			}
		}
	}
}

// TestGroupedTailBitIdenticalToPerGroupLoop is the DOMAIN counterpart:
// each group's conditioned Gibbs run over the shared plan matches the
// query re-run with that group's selection predicate, bit for bit.
func TestGroupedTailBitIdenticalToPerGroupLoop(t *testing.T) {
	opts := TailSampleOptions{TotalSamples: 150}
	e := groupedEngine(t, 8, 2, 0)
	res, err := e.ExecWithOptions(`SELECT SUM(l.val) AS x FROM losses l, grp grp
WHERE l.cid = grp.cid GROUP BY grp.g
WITH RESULTDISTRIBUTION MONTECARLO(20)
DOMAIN x >= QUANTILE(0.9)`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecGroupedTail || len(res.GroupedTail.Groups) != 2 {
		t.Fatalf("kind=%v", res.Kind)
	}
	for _, g := range []string{"a", "b"} {
		single, err := e.ExecWithOptions(fmt.Sprintf(`SELECT SUM(l.val) AS x FROM losses l, grp grp
WHERE l.cid = grp.cid AND grp.g = '%s'
WITH RESULTDISTRIBUTION MONTECARLO(20)
DOMAIN x >= QUANTILE(0.9)`, g), opts)
		if err != nil {
			t.Fatalf("group %s: %v", g, err)
		}
		var gt *TailResult
		for i := range res.GroupedTail.Groups {
			if res.GroupedTail.Groups[i].KeyString() == g {
				gt = res.GroupedTail.Groups[i].Tail
			}
		}
		if gt == nil {
			t.Fatalf("group %s missing", g)
		}
		if gt.QuantileEstimate != single.Tail.QuantileEstimate {
			t.Fatalf("group %s quantile %v vs %v", g, gt.QuantileEstimate, single.Tail.QuantileEstimate)
		}
		for i := range single.Tail.Samples {
			if gt.Samples[i] != single.Tail.Samples[i] {
				t.Fatalf("group %s tail sample %d: %v vs %v", g, i, gt.Samples[i], single.Tail.Samples[i])
			}
		}
	}
}

// TestMultiAggregateSelectList: SELECT SUM(x), AVG(x), COUNT(*) works
// end-to-end through SQL, and the per-run identities SUM = AVG*COUNT
// hold sample by sample — all three aggregates are evaluated in the same
// Monte Carlo world.
func TestMultiAggregateSelectList(t *testing.T) {
	e := lossEngine(t, 8, 31)
	res, err := e.Exec(`SELECT SUM(val) AS s, AVG(val) AS a, COUNT(*) AS c FROM losses
WITH RESULTDISTRIBUTION MONTECARLO(100)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecGroupedDistribution {
		t.Fatalf("kind = %v", res.Kind)
	}
	g := res.Grouped
	if len(g.GroupCols) != 0 || len(g.Groups) != 1 || len(g.AggCols) != 3 {
		t.Fatalf("grouped shape: cols=%v aggs=%v groups=%d", g.GroupCols, g.AggCols, len(g.Groups))
	}
	if g.AggCols[0] != "s" || g.AggCols[1] != "a" || g.AggCols[2] != "c" {
		t.Fatalf("agg cols = %v", g.AggCols)
	}
	sum, avg, count := g.Groups[0].Dists[0], g.Groups[0].Dists[1], g.Groups[0].Dists[2]
	for i := range sum.Samples {
		if count.Samples[i] != 8 {
			t.Fatalf("rep %d: count = %g", i, count.Samples[i])
		}
		if diff := sum.Samples[i] - avg.Samples[i]*count.Samples[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rep %d: SUM %g != AVG*COUNT %g", i, sum.Samples[i], avg.Samples[i]*count.Samples[i])
		}
	}
	// The single-aggregate slice of a multi-aggregate run is bit-identical
	// to running that aggregate alone (same seeds, same worlds).
	alone, err := e.Exec(`SELECT SUM(val) AS s FROM losses WITH RESULTDISTRIBUTION MONTECARLO(100)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := range alone.Dist.Samples {
		if sum.Samples[i] != alone.Dist.Samples[i] {
			t.Fatalf("rep %d: multi-agg SUM %v vs single-agg %v", i, sum.Samples[i], alone.Dist.Samples[i])
		}
	}
	// Multi-aggregate GROUP BY, through the fluent API.
	gd, err := e.Query().From("losses", "l").
		SelectSumAs(expr.C("l.val"), "s").
		SelectCountAs("c").
		GroupBy(expr.C("l.cid")).
		MonteCarloGrouped(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(gd.Groups) != 8 || len(gd.AggCols) != 2 {
		t.Fatalf("groups=%d aggs=%v", len(gd.Groups), gd.AggCols)
	}
	// MonteCarlo on a multi-aggregate or grouped builder is a descriptive
	// error pointing at MonteCarloGrouped.
	_, err = e.Query().From("losses", "l").SelectSum(expr.C("l.val")).
		GroupBy(expr.C("l.cid")).MonteCarlo(10)
	if err == nil || !strings.Contains(err.Error(), "MonteCarloGrouped") {
		t.Fatalf("grouped MonteCarlo: err = %v", err)
	}
}

// TestHavingPerRunSemantics: HAVING is evaluated per group per Monte
// Carlo run over the aggregation output; a group's distribution keeps
// only the runs in which the predicate held, Inclusion records the kept
// fraction, and groups that never qualify are dropped.
func TestHavingPerRunSemantics(t *testing.T) {
	e := lossEngine(t, 6, 41)
	// Per-customer SUM(val) ~ N(m, 1) with m in [2, 8]; a cutoff near the
	// middle keeps some runs of mid groups, all runs of high-mean groups,
	// and (for extreme cutoffs) drops low groups entirely.
	res, err := e.Exec(`SELECT SUM(val) AS x FROM losses GROUP BY cid HAVING x > 5
WITH RESULTDISTRIBUTION MONTECARLO(300)`)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Grouped
	if len(g.Groups) == 0 || len(g.Groups) > 6 {
		t.Fatalf("groups = %d", len(g.Groups))
	}
	for _, grp := range g.Groups {
		if grp.Inclusion <= 0 || grp.Inclusion > 1 {
			t.Fatalf("group %s inclusion = %g", grp.KeyString(), grp.Inclusion)
		}
		d := grp.Dists[0]
		if len(d.Samples) == 0 {
			t.Fatalf("group %s kept no samples", grp.KeyString())
		}
		wantN := int(grp.Inclusion*300 + 0.5)
		if len(d.Samples) != wantN {
			t.Fatalf("group %s: %d samples vs inclusion %g", grp.KeyString(), len(d.Samples), grp.Inclusion)
		}
		for _, s := range d.Samples {
			if s <= 5 {
				t.Fatalf("group %s kept sample %g <= 5 despite HAVING x > 5", grp.KeyString(), s)
			}
		}
	}
	// HAVING with DOMAIN tail sampling is a descriptive error.
	_, err = e.ExecWithOptions(`SELECT SUM(val) AS x FROM losses GROUP BY cid HAVING x > 5
WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN x >= QUANTILE(0.9)`, TailSampleOptions{TotalSamples: 100})
	if err == nil || !strings.Contains(err.Error(), "HAVING is not supported with DOMAIN") {
		t.Fatalf("HAVING+DOMAIN: err = %v", err)
	}
	// HAVING referencing an unknown name errors descriptively.
	_, err = e.Exec(`SELECT SUM(val) AS x FROM losses GROUP BY cid HAVING nope > 5
WITH RESULTDISTRIBUTION MONTECARLO(10)`)
	if err == nil || !strings.Contains(err.Error(), "HAVING") {
		t.Fatalf("bad HAVING column: err = %v", err)
	}
}

// TestScalarGroupByAndMultiAggregate: the deterministic (non-WITH) path
// supports multi-item select lists, GROUP BY, and HAVING, producing an
// ExecTable relation.
func TestScalarGroupByAndMultiAggregate(t *testing.T) {
	e := New()
	tb := storage.NewTable("sales", types.NewSchema(
		types.Column{Name: "region", Kind: types.KindString},
		types.Column{Name: "amt", Kind: types.KindFloat},
	))
	for i, row := range []struct {
		r string
		a float64
	}{{"east", 10}, {"east", 20}, {"west", 5}, {"west", 7}, {"north", 100}} {
		_ = i
		tb.MustAppend(types.Row{types.NewString(row.r), types.NewFloat(row.a)})
	}
	e.RegisterTable(tb)
	res, err := e.Exec(`SELECT SUM(amt) AS total, COUNT(*) AS n, MAX(amt) AS biggest FROM sales GROUP BY region HAVING total > 20`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecTable {
		t.Fatalf("kind = %v", res.Kind)
	}
	rows := res.Table.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Sorted by key: east before north... string compare: east < north.
	if rows[0][0].Str() != "east" || rows[0][1].Float() != 30 || rows[0][2].Float() != 2 || rows[0][3].Float() != 20 {
		t.Fatalf("east row = %v", rows[0])
	}
	if rows[1][0].Str() != "north" || rows[1][1].Float() != 100 {
		t.Fatalf("north row = %v", rows[1])
	}
	// Ungrouped multi-aggregate: one-row table.
	res, err = e.Exec(`SELECT MIN(amt), MAX(amt) FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecTable || len(res.Table.Rows()) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if r := res.Table.Rows()[0]; r[0].Float() != 5 || r[1].Float() != 100 {
		t.Fatalf("min/max row = %v", r)
	}
	// Single ungrouped aggregate keeps the scalar fast path.
	res, err = e.Exec(`SELECT SUM(amt) FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecScalar || res.Scalar != 142 {
		t.Fatalf("scalar = %+v", res)
	}
}

// TestGroupedErrorsAreDescriptive: the plan-time and exec-time guards of
// the grouped pipeline name the offending construct.
func TestGroupedErrorsAreDescriptive(t *testing.T) {
	e := lossEngine(t, 4, 51)
	cases := []struct {
		sql, want string
	}{
		{`SELECT SUM(val) AS x FROM losses GROUP BY val WITH RESULTDISTRIBUTION MONTECARLO(5)`,
			"must be deterministic"},
		{`SELECT SUM(val) AS x, AVG(val) FROM losses WITH RESULTDISTRIBUTION MONTECARLO(5) DOMAIN x >= QUANTILE(0.9)`,
			"single aggregate"},
		{`SELECT SUM(val) AS x, AVG(val) FROM losses WITH RESULTDISTRIBUTION MONTECARLO(5) FREQUENCYTABLE x`,
			"FREQUENCYTABLE"},
	}
	for _, c := range cases {
		_, err := e.ExecWithOptions(c.sql, TailSampleOptions{TotalSamples: 100})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s:\n  err = %v, want substring %q", c.sql, err, c.want)
		}
	}
}

// TestDistributionCVaR: CVaR is the conditional mean beyond the
// q-quantile and exceeds both the quantile and the mean for an upper
// tail.
func TestDistributionCVaR(t *testing.T) {
	d := newDistribution([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	q90 := d.Quantile(0.9)
	cvar := d.CVaR(0.9)
	want := (9.0 + 10.0) / 2
	if q90 != 9 || cvar != want {
		t.Fatalf("q90=%g cvar=%g want %g", q90, cvar, want)
	}
	if lo := d.CVaRLower(0.2); lo != 1.5 {
		t.Fatalf("cvar lower = %g", lo)
	}
	// On a tail result, ExpectedShortfall is the sample mean (threshold
	// -Inf): identical to the FTABLE-weighted expected value.
	e := lossEngine(t, 6, 61)
	res, err := e.ExecWithOptions(`SELECT SUM(val) AS x FROM losses
WITH RESULTDISTRIBUTION MONTECARLO(40) DOMAIN x >= QUANTILE(0.9)`, TailSampleOptions{TotalSamples: 150})
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Tail.ExpectedShortfall - res.Tail.ExpectedValue(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ES %g vs FTABLE mean %g", res.Tail.ExpectedShortfall, res.Tail.ExpectedValue())
	}
}

// TestPrepareRejectsNeverRunnableStatements: statements that compile but
// can never execute fail at Prepare, not on first Run (they must not
// pollute the plan cache).
func TestPrepareRejectsNeverRunnableStatements(t *testing.T) {
	e := lossEngine(t, 4, 71)
	bad := []struct{ sql, want string }{
		{`SELECT SUM(val) AS a, AVG(val) FROM losses WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN a >= QUANTILE(0.9)`,
			"single aggregate"},
		{`SELECT SUM(val) AS x FROM losses GROUP BY cid WITH RESULTDISTRIBUTION MONTECARLO(10) FREQUENCYTABLE x`,
			"FREQUENCYTABLE"},
		{`SELECT SUM(val) AS x FROM losses GROUP BY cid HAVING x > 1 WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN x >= QUANTILE(0.9)`,
			"HAVING is not supported with DOMAIN"},
		{`SELECT SUM(val) AS a FROM losses WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN b >= QUANTILE(0.9)`,
			"DOMAIN references"},
	}
	for _, c := range bad {
		if _, err := e.Prepare(c.sql); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Prepare(%s):\n  err = %v, want substring %q", c.sql, err, c.want)
		}
	}
	if _, _, size := e.PlanCacheStats(); size != 0 {
		t.Fatalf("rejected statements left %d plan-cache entries", size)
	}
}

// TestAggregateOutputNameCollisions: duplicate output names are suffixed
// until genuinely unique, even when a user alias occupies the suffixed
// form.
func TestAggregateOutputNameCollisions(t *testing.T) {
	e := lossEngine(t, 4, 81)
	res, err := e.Exec(`SELECT SUM(val) AS x_2, SUM(val) AS x, AVG(val) AS x FROM losses
WITH RESULTDISTRIBUTION MONTECARLO(10)`)
	if err != nil {
		t.Fatal(err)
	}
	cols := res.Grouped.AggCols
	if len(cols) != 3 {
		t.Fatalf("cols = %v", cols)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[strings.ToLower(c)] {
			t.Fatalf("duplicate output column %q in %v", c, cols)
		}
		seen[strings.ToLower(c)] = true
	}
}
