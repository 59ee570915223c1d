package sqlish

import (
	"strings"
	"testing"
)

// fuzzSeeds is the parser fuzz corpus: every statement shape the test
// corpus and the documentation exercise — CREATE TABLE ... FOR EACH,
// single- and multi-aggregate select lists, GROUP BY expression lists,
// HAVING, the MCDB-R result-distribution clauses, EXPLAIN, and a few
// known-bad inputs so the fuzzer starts near the error paths too.
var fuzzSeeds = []string{
	paperCreate,
	paperQuery,
	`SELECT SUM(val) AS totalLoss FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(1000)`,
	`SELECT SUM(emp2.sal - emp1.sal) FROM emp AS emp1, emp AS emp2, sup
WHERE sup.boss = emp1.eid AND emp1.sal < 90000 AND sup.peon = emp2.eid AND emp2.sal > emp1.sal
WITH RESULTDISTRIBUTION MONTECARLO(3) DOMAIN x >= QUANTILE(0.999)`,
	`SELECT AVG(v) FROM t WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN x <= QUANTILE(0.01)`,
	`SELECT MIN(totalLoss) FROM FTABLE`,
	`SELECT SUM(totalLoss * FRAC) FROM FTABLE;`,
	`SELECT COUNT(*) FROM t WHERE a = 'x' OR b >= 2`,
	`SELECT SUM(a + b * c - -d) FROM t WHERE NOT a > 1 AND b < 2 OR c = 3`,
	`SELECT SUM(v) AS x FROM t WHERE v > 0 GROUP BY t.region WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN x >= QUANTILE(0.9)`,
	`SELECT SUM(v) FROM t GROUP BY t.region, t.cid / 10 WITH RESULTDISTRIBUTION MONTECARLO(5)`,
	`SELECT SUM(a.x) AS loss, AVG(b.y), COUNT(*) FROM a, b WHERE a.k = b.k WITH RESULTDISTRIBUTION MONTECARLO(10)`,
	`SELECT SUM(v) AS x FROM t GROUP BY t.g HAVING x > 100 WITH RESULTDISTRIBUTION MONTECARLO(10)`,
	`SELECT SUM(val) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.01 AT 95%, MAX 10000)`,
	`SELECT SUM(val) FROM t WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.05)`,
	`SELECT SUM(val) AS x FROM Losses GROUP BY CID WITH RESULTDISTRIBUTION MONTECARLO(20) DOMAIN x >= QUANTILE(0.9) FREQUENCYTABLE x`,
	`EXPLAIN SELECT SUM(val) AS t FROM Losses WHERE CID < 5 WITH RESULTDISTRIBUTION MONTECARLO(10);`,
	`EXPLAIN SELECT COUNT(*) FROM ftable`,
	"SELECT SUM(v) FROM t -- trailing comment\nWHERE v > 0",
	`CREATE TABLE ok (CID, y) AS FOR EACH CID IN means WITH v AS MultiNormal2(VALUES(1, 2, 1, 1, 0.5)) SELECT CID, v.value2 FROM v`,
	// Known-bad shapes: the fuzzer mutates from the edge of each error.
	``,
	`DROP TABLE x`,
	`SELECT SUM(x FROM t`,
	`SELECT SUM('unterminated) FROM t`,
	`SELECT SUM(x) FROM t WITH RESULTDISTRIBUTION MONTECARLO(0)`,
	`SELECT SUM(v) FROM t GROUP BY`,
	`SELECT SUM(v) AS x FROM t HAVING x > 100`,
	// Nesting at and just beyond maxNesting.
	`SELECT SUM(` + strings.Repeat("(", maxNesting) + "v" + strings.Repeat(")", maxNesting) + `) FROM t`,
	`SELECT COUNT(*) FROM t WHERE ` + strings.Repeat("NOT -(", maxNesting/2) + "v" + strings.Repeat(")", maxNesting/2),
}

// FuzzParse asserts the parser's crash-freedom contract: for arbitrary
// input, Parse either returns a statement or an error — it never panics,
// and a successfully parsed statement round-trips through one more
// invariant (select statements carry at least one item; create
// statements a table name).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			if stmt != nil {
				t.Fatalf("Parse returned both a statement and an error: %v", err)
			}
			return
		}
		switch s := stmt.(type) {
		case *SelectStmt:
			if len(s.Items) == 0 {
				t.Fatalf("parsed SELECT with no select items from %q", src)
			}
		case *ExplainStmt:
			if s.Stmt == nil || len(s.Stmt.Items) == 0 {
				t.Fatalf("parsed EXPLAIN with no inner select from %q", src)
			}
		case *CreateRandomTable:
			if s.Name == "" {
				t.Fatalf("parsed CREATE with no table name from %q", src)
			}
		default:
			t.Fatalf("Parse returned unknown statement type %T", stmt)
		}
		// SplitStatements must also be panic-free on anything Parse accepts.
		if got := SplitStatements(src); len(got) == 0 && strings.TrimSpace(src) != "" {
			t.Fatalf("SplitStatements dropped parseable input %q", src)
		}
	})
}
