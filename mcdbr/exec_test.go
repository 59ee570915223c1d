package mcdbr

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// paperEngine sets up the full §2 flow via SQL: means table + CREATE TABLE
// Losses.
func paperEngine(t *testing.T, nCustomers int, seed uint64) *Engine {
	t.Helper()
	e := New(WithSeed(seed), WithWindow(2048))
	e.RegisterTable(workload.LossMeans(nCustomers, 2, 8, 13))
	res, err := e.Exec(`
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecCreated {
		t.Fatalf("kind = %v", res.Kind)
	}
	return e
}

func TestExecPaperSection2Flow(t *testing.T) {
	e := paperEngine(t, 15, 21)
	mu := 0.0
	tbl, _ := e.Table("means")
	for _, r := range tbl.Rows() {
		mu += r[1].Float()
	}
	sigma := math.Sqrt(15)

	// The paper's tail query (smaller MC count for test speed).
	res, err := e.ExecWithOptions(`
SELECT SUM(val) AS totalLoss
FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(100)
DOMAIN totalLoss >= QUANTILE(0.99)
FREQUENCYTABLE totalLoss`, TailSampleOptions{TotalSamples: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecTail || res.Tail == nil {
		t.Fatalf("kind = %v", res.Kind)
	}
	want := stats.NormalQuantile(0.99, mu, sigma)
	if math.Abs(res.Tail.QuantileEstimate-want) > 3 {
		t.Fatalf("quantile = %g, want ≈ %g", res.Tail.QuantileEstimate, want)
	}

	// Follow-up: SELECT MIN(totalLoss) FROM FTABLE estimates the
	// tail boundary.
	minRes, err := e.Exec(`SELECT MIN(totalLoss) FROM FTABLE`)
	if err != nil {
		t.Fatal(err)
	}
	if minRes.Kind != ExecScalar {
		t.Fatalf("kind = %v", minRes.Kind)
	}
	if math.Abs(minRes.Scalar-res.Tail.Min()) > 1e-9 {
		t.Fatalf("MIN(FTABLE) = %g vs %g", minRes.Scalar, res.Tail.Min())
	}

	// Follow-up: expected shortfall via SUM(totalLoss * FRAC).
	esRes, err := e.Exec(`SELECT SUM(totalLoss * frac) FROM FTABLE`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(esRes.Scalar-res.Tail.ExpectedShortfall) > 1e-6 {
		t.Fatalf("SUM(totalLoss*FRAC) = %g vs ES %g", esRes.Scalar, res.Tail.ExpectedShortfall)
	}
}

func TestExecMonteCarloWithoutDomain(t *testing.T) {
	e := paperEngine(t, 10, 22)
	res, err := e.Exec(`
SELECT SUM(val) AS totalLoss FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(500)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecDistribution || len(res.Dist.Samples) != 500 {
		t.Fatalf("res = %+v", res)
	}
}

func TestExecWherePredicate(t *testing.T) {
	e := paperEngine(t, 20, 23)
	res, err := e.Exec(`
SELECT SUM(val) AS x FROM Losses
WHERE CID < 10010
WITH RESULTDISTRIBUTION MONTECARLO(400)`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Table("means")
	mu := 0.0
	for _, r := range tbl.Rows() {
		if r[0].Int() < 10010 {
			mu += r[1].Float()
		}
	}
	if math.Abs(res.Dist.Mean()-mu) > 0.6 {
		t.Fatalf("mean = %g, want %g", res.Dist.Mean(), mu)
	}
}

func TestExecLowerDomain(t *testing.T) {
	e := paperEngine(t, 10, 24)
	res, err := e.ExecWithOptions(`
SELECT SUM(val) AS x FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(40)
DOMAIN x <= QUANTILE(0.05)`, TailSampleOptions{TotalSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecTail || !res.Tail.Lower {
		t.Fatalf("res = %+v", res)
	}
	for _, s := range res.Tail.Samples {
		if s > res.Tail.QuantileEstimate {
			t.Fatalf("lower-tail sample above quantile")
		}
	}
}

func TestExecScalarAggregates(t *testing.T) {
	e := New()
	e.RegisterTable(workload.LossMeans(4, 2, 8, 3)) // means(cid, m)
	cases := map[string]string{
		"count": `SELECT COUNT(*) FROM means`,
		"sum":   `SELECT SUM(m) FROM means`,
		"avg":   `SELECT AVG(m) FROM means`,
		"min":   `SELECT MIN(m) FROM means`,
		"max":   `SELECT MAX(m) FROM means`,
	}
	vals := map[string]float64{}
	for name, sql := range cases {
		res, err := e.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vals[name] = res.Scalar
	}
	if vals["count"] != 4 {
		t.Fatalf("count = %g", vals["count"])
	}
	if math.Abs(vals["avg"]-vals["sum"]/4) > 1e-12 {
		t.Fatalf("avg inconsistent with sum")
	}
	if vals["min"] > vals["avg"] || vals["max"] < vals["avg"] {
		t.Fatalf("min/avg/max ordering violated: %v", vals)
	}
	// WHERE on scalar query.
	res, err := e.Exec(`SELECT COUNT(*) FROM means WHERE cid >= 10002`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar != 2 {
		t.Fatalf("filtered count = %g", res.Scalar)
	}
}

func TestExecErrors(t *testing.T) {
	e := paperEngine(t, 5, 25)
	bad := []string{
		`SELECT SUM(val) FROM Losses`,                                       // random table without WITH
		`SELECT MIN(val) FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(5)`, // MIN not MC-able
		`SELECT SUM(x) FROM nope WITH RESULTDISTRIBUTION MONTECARLO(5)`,
		`SELECT SUM(m) FROM means, means WITH RESULTDISTRIBUTION MONTECARLO(5)`, // dup alias
		`SELECT SUM(val) AS a FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(5) DOMAIN b >= QUANTILE(0.9)`,
		`CREATE TABLE l2 (a, b) AS FOR EACH x IN means WITH v AS NoSuchVG(VALUES(1)) SELECT a, v.*`,
		`CREATE TABLE l2 (a) AS FOR EACH x IN means WITH v AS Normal(VALUES(m, 1)) SELECT other.* FROM v`,
	}
	for _, sql := range bad {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

// TestExecCreateValueNOutOfRange: a myVal.valueN select item referencing
// a VG output the function does not produce must be a descriptive error,
// not a silent fallback to output 0.
func TestExecCreateValueNOutOfRange(t *testing.T) {
	e := New()
	e.RegisterTable(workload.LossMeans(5, 2, 8, 3))
	// Normal has exactly one output; value3 is out of range.
	_, err := e.Exec(`
CREATE TABLE bad (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.value3 FROM myVal`)
	if err == nil {
		t.Fatal("out-of-range valueN must error")
	}
	if !strings.Contains(err.Error(), "output 3") || !strings.Contains(err.Error(), "1 output") {
		t.Fatalf("error must name the bad output and the VG arity, got: %v", err)
	}
	// value0 is below range (outputs are 1-based).
	if _, err := e.Exec(`
CREATE TABLE bad (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.value0 FROM myVal`); err == nil {
		t.Fatal("valueN below range must error")
	}
	// A typo'd VG-alias reference must error, not silently bind output 0.
	if _, err := e.Exec(`
CREATE TABLE bad (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.vaule1 FROM myVal`); err == nil {
		t.Fatal("unknown VG output reference must error")
	}
	// Trailing garbage after valueN must error too.
	if _, err := e.Exec(`
CREATE TABLE bad (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.value1x FROM myVal`); err == nil {
		t.Fatal("malformed valueN must error")
	}
	// In-range valueN still works: MultiNormal2 has two outputs.
	if _, err := e.Exec(`
CREATE TABLE ok (CID, y) AS
FOR EACH CID IN means
WITH v AS MultiNormal2(VALUES(1, 2, 1, 1, 0.5))
SELECT CID, v.value2 FROM v`); err != nil {
		t.Fatalf("in-range valueN must work: %v", err)
	}
	rt, ok := e.RandomTableDef("ok")
	if !ok || rt.Columns[1].VGOut != 1 {
		t.Fatalf("value2 must map to VG output index 1, got %+v", rt)
	}
}

func TestExecCreateDefinitionVisible(t *testing.T) {
	e := paperEngine(t, 5, 26)
	rt, ok := e.RandomTableDef("losses")
	if !ok {
		t.Fatal("definition missing")
	}
	if rt.ParamTable != "means" || rt.VG != "Normal" || len(rt.Columns) != 2 {
		t.Fatalf("rt = %+v", rt)
	}
	if rt.Columns[0].FromParam == "" || rt.Columns[1].FromParam != "" {
		t.Fatalf("columns = %+v", rt.Columns)
	}
}

func TestExecGroupBy(t *testing.T) {
	e := paperEngine(t, 8, 27)
	// Group customers by parity via a registered dept table... simplest:
	// group by the parameter-derived cid itself is too fine; use a region
	// table joined in.
	res, err := e.ExecWithOptions(`
SELECT SUM(val) AS x FROM Losses
GROUP BY CID
WITH RESULTDISTRIBUTION MONTECARLO(20)
DOMAIN x >= QUANTILE(0.9)`, TailSampleOptions{TotalSamples: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecGroupedTail || len(res.GroupedTail.Groups) != 8 {
		t.Fatalf("kind=%v", res.Kind)
	}
	for _, g := range res.GroupedTail.Groups {
		tr := g.Tail
		if len(tr.Samples) != 20 {
			t.Fatalf("group %s samples = %d", g.KeyString(), len(tr.Samples))
		}
		// Each group is a single N(m,1) customer; quantile ≈ m + 1.28.
		if tr.QuantileEstimate < 2 || tr.QuantileEstimate > 11 {
			t.Fatalf("group %s quantile = %g", g.KeyString(), tr.QuantileEstimate)
		}
	}

	// GROUP BY without DOMAIN: one distribution per group.
	res, err = e.Exec(`
SELECT SUM(val) AS x FROM Losses
GROUP BY CID
WITH RESULTDISTRIBUTION MONTECARLO(200)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ExecGroupedDistribution || len(res.Grouped.Groups) != 8 {
		t.Fatalf("kind=%v", res.Kind)
	}
}

func TestExecGroupByErrors(t *testing.T) {
	e := paperEngine(t, 4, 28)
	bad := []string{
		`SELECT SUM(val) AS x FROM Losses GROUP BY val WITH RESULTDISTRIBUTION MONTECARLO(5)`,    // VG column
		`SELECT SUM(val) AS x FROM Losses GROUP BY nope WITH RESULTDISTRIBUTION MONTECARLO(5)`,   // unknown col
		`SELECT SUM(val) AS x FROM Losses GROUP BY zz.cid WITH RESULTDISTRIBUTION MONTECARLO(5)`, // unknown alias
	}
	for _, sql := range bad {
		if _, err := e.ExecWithOptions(sql, TailSampleOptions{TotalSamples: 100}); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}
