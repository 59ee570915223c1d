package sqlish

import (
	"strings"
	"testing"

	"repro/internal/expr"
)

const paperCreate = `
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`

const paperQuery = `
SELECT SUM(val) AS totalLoss
FROM Losses
WHERE CID < 10010
WITH RESULTDISTRIBUTION MONTECARLO(100)
DOMAIN totalLoss >= QUANTILE(0.99)
FREQUENCYTABLE totalLoss`

func TestParsePaperCreate(t *testing.T) {
	s, err := Parse(paperCreate)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s.(*CreateRandomTable)
	if !ok {
		t.Fatalf("statement type %T", s)
	}
	if c.Name != "Losses" || len(c.Cols) != 2 || c.Cols[0] != "CID" || c.Cols[1] != "val" {
		t.Fatalf("create = %+v", c)
	}
	if c.LoopVar != "CID" || c.ParamTable != "means" {
		t.Fatalf("FOR EACH = %q IN %q", c.LoopVar, c.ParamTable)
	}
	if c.VGAlias != "myVal" || c.VGName != "Normal" || len(c.VGParams) != 2 {
		t.Fatalf("VG = %+v", c)
	}
	if len(c.SelectItems) != 2 || c.SelectItems[0] != "CID" || c.SelectItems[1] != "myVal.*" {
		t.Fatalf("select items = %v", c.SelectItems)
	}
}

func TestParsePaperQuery(t *testing.T) {
	s, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := s.(*SelectStmt)
	if !ok {
		t.Fatalf("statement type %T", s)
	}
	if len(q.Items) != 1 || q.Items[0].Agg != "SUM" || q.Items[0].Alias != "totalLoss" {
		t.Fatalf("items = %+v", q.Items)
	}
	if len(q.Froms) != 1 || q.Froms[0].Table != "Losses" {
		t.Fatalf("froms = %+v", q.Froms)
	}
	if q.Where == nil || !strings.Contains(q.Where.String(), "<") {
		t.Fatalf("where = %v", q.Where)
	}
	if !q.With || q.MCReps != 100 {
		t.Fatalf("MC = %v %d", q.With, q.MCReps)
	}
	if q.Domain == nil || q.Domain.Lower || q.Domain.Quantile != 0.99 || q.Domain.Name != "totalLoss" {
		t.Fatalf("domain = %+v", q.Domain)
	}
	if q.FreqTable != "totalLoss" {
		t.Fatalf("freq table = %q", q.FreqTable)
	}
}

func TestParseSalaryInversionQuery(t *testing.T) {
	src := `
SELECT SUM(emp2.sal - emp1.sal)
FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND emp1.sal < 90000
  AND sup.peon = emp2.eid AND emp2.sal > 25000
  AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(3)
DOMAIN x >= QUANTILE(0.999)`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q := s.(*SelectStmt)
	if len(q.Froms) != 3 || q.Froms[0].Alias != "emp1" || q.Froms[1].Alias != "emp2" || q.Froms[2].Alias != "sup" {
		t.Fatalf("froms = %+v", q.Froms)
	}
	conjs := expr.SplitConjuncts(q.Where)
	if len(conjs) != 5 {
		t.Fatalf("conjuncts = %d", len(conjs))
	}
}

func TestParseLowerDomain(t *testing.T) {
	s, err := Parse(`SELECT AVG(v) FROM t WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN x <= QUANTILE(0.01)`)
	if err != nil {
		t.Fatal(err)
	}
	q := s.(*SelectStmt)
	if q.Domain == nil || !q.Domain.Lower || q.Domain.Quantile != 0.01 {
		t.Fatalf("domain = %+v", q.Domain)
	}
}

func TestParseDeterministicAggregate(t *testing.T) {
	s, err := Parse(`SELECT MIN(totalLoss) FROM FTABLE`)
	if err != nil {
		t.Fatal(err)
	}
	q := s.(*SelectStmt)
	if len(q.Items) != 1 || q.Items[0].Agg != "MIN" || q.With {
		t.Fatalf("q = %+v", q)
	}
	s, err = Parse(`SELECT SUM(totalLoss * FRAC) FROM FTABLE;`)
	if err != nil {
		t.Fatal(err)
	}
	q = s.(*SelectStmt)
	if len(q.Items) != 1 || q.Items[0].Agg != "SUM" || q.Items[0].Expr == nil {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseCountStar(t *testing.T) {
	s, err := Parse(`SELECT COUNT(*) FROM t WHERE a = 'x' OR b >= 2`)
	if err != nil {
		t.Fatal(err)
	}
	q := s.(*SelectStmt)
	if len(q.Items) != 1 || q.Items[0].Agg != "COUNT" || q.Items[0].Expr != nil {
		t.Fatalf("q = %+v", q)
	}
	if _, err := Parse(`SELECT SUM(*) FROM t`); err == nil {
		t.Fatal("SUM(*) must fail")
	}
}

func TestParseExprPrecedence(t *testing.T) {
	s, err := Parse(`SELECT SUM(a + b * c - -d) FROM t WHERE NOT a > 1 AND b < 2 OR c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	q := s.(*SelectStmt)
	if got := q.Items[0].Expr.String(); got != "((a + (b * c)) - -d)" {
		t.Fatalf("agg expr = %s", got)
	}
	if got := q.Where.String(); got != "((NOT (a > 1) AND (b < 2)) OR (c = 3))" {
		t.Fatalf("where = %s", got)
	}
}

func TestParseComments(t *testing.T) {
	src := "SELECT SUM(v) FROM t -- trailing comment\nWHERE v > 0"
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DROP TABLE x",
		"SELECT FROM t",
		"SELECT MEDIAN(x) FROM t",
		"SELECT SUM(x FROM t",
		"SELECT SUM(x) t",            // missing FROM
		"SELECT SUM(x) FROM t WHERE", // dangling WHERE
		"SELECT SUM(x) FROM t WITH MONTECARLO(5)", // missing RESULTDISTRIBUTION
		"SELECT SUM(x) FROM t WITH RESULTDISTRIBUTION MONTECARLO(0)",
		"SELECT SUM(x) FROM t WITH RESULTDISTRIBUTION MONTECARLO(5) DOMAIN x >= QUANTILE(2)",
		"SELECT SUM(x) FROM t WITH RESULTDISTRIBUTION MONTECARLO(5) DOMAIN x = QUANTILE(0.5)",
		"CREATE TABLE t (a) AS FOR EACH a IN p WITH v AS VG(VALUES(1)) SELECT a, b, c",
		"SELECT SUM(x) FROM t extra garbage (",
		"SELECT SUM('unterminated) FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := lex("1 2.5 1e-3 0.99 10010")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", "1e-3", "0.99", "10010"}
	for i, w := range want {
		if toks[i].kind != tokNumber || toks[i].text != w {
			t.Fatalf("token %d = %+v, want %q", i, toks[i], w)
		}
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	if _, err := lex("a @ b"); err == nil {
		t.Fatal("@ must be rejected")
	}
}

func TestParseGroupBy(t *testing.T) {
	s, err := Parse(`SELECT SUM(v) AS x FROM t WHERE v > 0 GROUP BY t.region WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN x >= QUANTILE(0.9)`)
	if err != nil {
		t.Fatal(err)
	}
	q := s.(*SelectStmt)
	if len(q.GroupBy) != 1 || q.GroupBy[0].String() != "t.region" {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
	if q.Domain == nil {
		t.Fatal("domain lost after GROUP BY")
	}
	if _, err := Parse(`SELECT SUM(v) FROM t GROUP BY`); err == nil {
		t.Fatal("dangling GROUP BY must error")
	}
	if _, err := Parse(`SELECT SUM(v) FROM t GROUP ORDER`); err == nil {
		t.Fatal("GROUP without BY must error")
	}
	// Multiple grouping expressions, including computed ones.
	s, err = Parse(`SELECT SUM(v) FROM t GROUP BY t.region, t.cid / 10 WITH RESULTDISTRIBUTION MONTECARLO(5)`)
	if err != nil {
		t.Fatal(err)
	}
	q = s.(*SelectStmt)
	if len(q.GroupBy) != 2 || q.GroupBy[1].String() != "(t.cid / 10)" {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
}

func TestParseMultiAggregateSelectList(t *testing.T) {
	s, err := Parse(`SELECT SUM(a.x) AS loss, AVG(b.y), COUNT(*) FROM a, b WHERE a.k = b.k WITH RESULTDISTRIBUTION MONTECARLO(10)`)
	if err != nil {
		t.Fatal(err)
	}
	q := s.(*SelectStmt)
	if len(q.Items) != 3 {
		t.Fatalf("items = %+v", q.Items)
	}
	if q.Items[0].Agg != "SUM" || q.Items[0].Alias != "loss" {
		t.Fatalf("item 0 = %+v", q.Items[0])
	}
	if q.Items[1].Agg != "AVG" || q.Items[1].Alias != "" || q.Items[1].Expr.String() != "b.y" {
		t.Fatalf("item 1 = %+v", q.Items[1])
	}
	if q.Items[2].Agg != "COUNT" || q.Items[2].Expr != nil {
		t.Fatalf("item 2 = %+v", q.Items[2])
	}
	if len(q.Froms) != 2 {
		t.Fatalf("froms = %+v", q.Froms)
	}
	// A dangling comma must error.
	if _, err := Parse(`SELECT SUM(x), FROM t`); err == nil {
		t.Fatal("dangling select-list comma must error")
	}
}

func TestParseHaving(t *testing.T) {
	s, err := Parse(`SELECT SUM(v) AS x FROM t GROUP BY t.g HAVING x > 100 WITH RESULTDISTRIBUTION MONTECARLO(10)`)
	if err != nil {
		t.Fatal(err)
	}
	q := s.(*SelectStmt)
	if q.Having == nil || q.Having.String() != "(x > 100)" {
		t.Fatalf("Having = %v", q.Having)
	}
	// HAVING without GROUP BY is rejected with a descriptive error.
	_, err = Parse(`SELECT SUM(v) AS x FROM t HAVING x > 100`)
	if err == nil || !strings.Contains(err.Error(), "HAVING requires a GROUP BY") {
		t.Fatalf("HAVING without GROUP BY: err = %v", err)
	}
	// Dangling HAVING.
	if _, err := Parse(`SELECT SUM(v) FROM t GROUP BY g HAVING`); err == nil {
		t.Fatal("dangling HAVING must error")
	}
}

func TestParseExplain(t *testing.T) {
	s, err := Parse(`EXPLAIN SELECT SUM(val) AS t FROM Losses WHERE CID < 5 WITH RESULTDISTRIBUTION MONTECARLO(10);`)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := s.(*ExplainStmt)
	if !ok {
		t.Fatalf("statement = %T, want *ExplainStmt", s)
	}
	if ex.Stmt.Items[0].Agg != "SUM" || !ex.Stmt.With || ex.Stmt.MCReps != 10 {
		t.Fatalf("inner select = %+v", ex.Stmt)
	}
	// EXPLAIN of a deterministic aggregate parses too.
	s, err = Parse(`EXPLAIN SELECT COUNT(*) FROM ftable`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*ExplainStmt); !ok {
		t.Fatalf("statement = %T", s)
	}
	// EXPLAIN CREATE is rejected.
	if _, err := Parse(`EXPLAIN CREATE TABLE x (a) AS FOR EACH a IN p WITH v AS Normal(VALUES(1,1)) SELECT v.*`); err == nil {
		t.Fatal("EXPLAIN CREATE must be a parse error")
	}
}

func TestParseAdaptiveMonteCarlo(t *testing.T) {
	cases := []struct {
		src  string
		want AdaptiveSpec
	}{
		{`SELECT SUM(val) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.01 AT 95%, MAX 10000)`,
			AdaptiveSpec{TargetRelError: 0.01, Confidence: 0.95, MaxSamples: 10000}},
		{`SELECT SUM(val) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.05 AT 0.99)`,
			AdaptiveSpec{TargetRelError: 0.05, Confidence: 0.99}},
		{`SELECT SUM(val) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.02)`,
			AdaptiveSpec{TargetRelError: 0.02}},
		{`SELECT SUM(val) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.02, MAX 500)`,
			AdaptiveSpec{TargetRelError: 0.02, MaxSamples: 500}},
	}
	for _, tc := range cases {
		s, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		q := s.(*SelectStmt)
		if !q.With || q.MCReps != 0 {
			t.Fatalf("%s: With=%v MCReps=%d, want adaptive", tc.src, q.With, q.MCReps)
		}
		if q.Adaptive == nil || *q.Adaptive != tc.want {
			t.Fatalf("%s: Adaptive = %+v, want %+v", tc.src, q.Adaptive, tc.want)
		}
	}
	// Adaptive composes with GROUP BY and keeps fixed-count statements
	// untouched.
	s, err := Parse(`SELECT SUM(v) AS x FROM t GROUP BY t.g WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.1 AT 90%)`)
	if err != nil {
		t.Fatal(err)
	}
	if q := s.(*SelectStmt); q.Adaptive == nil || len(q.GroupBy) != 1 {
		t.Fatalf("grouped adaptive: %+v", s)
	}
	bad := []string{
		`SELECT SUM(v) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 2)`,
		`SELECT SUM(v) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0)`,
		`SELECT SUM(v) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR 0.01)`,
		`SELECT SUM(v) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.01 AT 101%)`,
		`SELECT SUM(v) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.01 AT 1.5)`,
		`SELECT SUM(v) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.01, MAX 0)`,
		`SELECT SUM(v) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.01, MAX)`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted bad statement: %s", src)
		}
	}
}

// TestParseNestingLimit: expression nesting through "(", NOT and unary "-"
// is bounded, so a hostile statement fails fast with an error instead of
// recursing once per level; nesting up to the bound still parses.
func TestParseNestingLimit(t *testing.T) {
	deep := func(open, close string, n int) string {
		return "SELECT SUM(" + strings.Repeat(open, n) + "v" + strings.Repeat(close, n) + ") FROM t"
	}
	for _, ok := range []string{
		deep("(", ")", maxNesting),
		deep("- ", "", maxNesting),
		"SELECT COUNT(*) FROM t WHERE " + strings.Repeat("NOT ", maxNesting) + "v > 1",
	} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("nesting at the bound rejected: %v", err)
		}
	}
	for name, bad := range map[string]string{
		"parens 400k": deep("(", ")", 400000),
		"minus":       deep("- ", "", maxNesting+1),
		"not":         "SELECT COUNT(*) FROM t WHERE " + strings.Repeat("NOT ", maxNesting+1) + "v > 1",
		"mixed":       deep("NOT -(", ")", maxNesting/3+1),
	} {
		_, err := Parse(bad)
		if err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s: err = %v, want the nesting error", name, err)
		}
	}
}
