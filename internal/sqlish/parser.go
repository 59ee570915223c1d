package sqlish

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/types"
)

// Statement is a parsed SQL-ish statement.
type Statement interface{ stmt() }

// CreateRandomTable is the paper's §2 uncertain-table definition:
//
//	CREATE TABLE Losses (CID, val) AS
//	FOR EACH CID IN means
//	WITH myVal AS Normal(VALUES(m, 1.0))
//	SELECT CID, myVal.* FROM myVal
type CreateRandomTable struct {
	Name       string
	Cols       []string
	LoopVar    string
	ParamTable string
	VGAlias    string
	VGName     string
	VGParams   []expr.Expr
	// SelectItems map output columns to sources: "col" (parameter column)
	// or "alias.*" / "alias.col" (VG outputs).
	SelectItems []string
}

func (*CreateRandomTable) stmt() {}

// FromItem is one entry of a FROM clause.
type FromItem struct {
	Table string
	Alias string
}

// Domain is the conditioning clause DOMAIN name >= QUANTILE(q) (upper
// tail) or DOMAIN name <= QUANTILE(q) (lower tail).
type Domain struct {
	Name     string
	Lower    bool
	Quantile float64
}

// SelectItem is one item of an aggregation select list:
// SUM(a.x) AS loss, AVG(b.y), COUNT(*), ...
type SelectItem struct {
	Agg   string    // SUM, COUNT, AVG, MIN, MAX (upper-cased)
	Expr  expr.Expr // nil for COUNT(*)
	Alias string
}

// String renders the item in SQL-ish syntax.
func (it SelectItem) String() string {
	body := "*"
	if it.Expr != nil {
		body = it.Expr.String()
	}
	out := fmt.Sprintf("%s(%s)", it.Agg, body)
	if it.Alias != "" {
		out += " AS " + it.Alias
	}
	return out
}

// SelectStmt is an aggregation query — a multi-item aggregate select
// list, optional GROUP BY over deterministic expressions and HAVING over
// the aggregation output, and optionally the MCDB-R result-distribution
// clauses. When With is false the statement is an ordinary deterministic
// aggregate (used for follow-up queries over FTABLE).
type SelectStmt struct {
	// Items is the aggregate select list; at least one item.
	Items []SelectItem
	Froms []FromItem
	Where expr.Expr
	// GroupBy, when non-empty, holds the (deterministic) grouping
	// expressions: the query produces one result per distinct key, in a
	// single pass (paper App. A).
	GroupBy []expr.Expr
	// Having is a predicate over grouping columns and aggregate aliases.
	Having expr.Expr

	With   bool
	MCReps int
	// Adaptive, when non-nil, replaces the fixed repetition count with the
	// UNTIL ERROR stopping rule: MONTECARLO(UNTIL ERROR < 0.01 AT 95%,
	// MAX 10000). MCReps is 0 for adaptive statements.
	Adaptive  *AdaptiveSpec
	Domain    *Domain
	FreqTable string
}

// AdaptiveSpec is the parsed UNTIL ERROR stopping rule of an adaptive
// MONTECARLO clause.
type AdaptiveSpec struct {
	// TargetRelError is the relative CI half-width target (UNTIL ERROR < x).
	TargetRelError float64
	// Confidence is the CI level in (0,1); AT 95% and AT 0.95 both yield
	// 0.95. Zero when the statement omitted AT (callers apply the default).
	Confidence float64
	// MaxSamples caps total replicates; zero when MAX was omitted (callers
	// apply the default).
	MaxSamples int
}

func (*SelectStmt) stmt() {}

// ExplainStmt wraps a SELECT statement for plan display: EXPLAIN <query>
// compiles the query and reports the logical plan, the rewrite rules that
// fired, and the physical operator tree instead of executing it.
type ExplainStmt struct {
	Stmt *SelectStmt
}

func (*ExplainStmt) stmt() {}

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var s Statement
	switch {
	case p.peekKeyword("CREATE"):
		s, err = p.parseCreate()
	case p.peekKeyword("SELECT"):
		s, err = p.parseSelect()
	case p.peekKeyword("EXPLAIN"):
		p.next()
		if !p.peekKeyword("SELECT") {
			return nil, fmt.Errorf("sqlish: EXPLAIN supports SELECT statements, got %s", p.peek())
		}
		var sel *SelectStmt
		sel, err = p.parseSelect()
		s = &ExplainStmt{Stmt: sel}
	default:
		return nil, fmt.Errorf("sqlish: expected CREATE, SELECT, or EXPLAIN, got %s", p.peek())
	}
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlish: trailing input at %s", p.peek())
	}
	return s, nil
}

// maxNesting bounds expression nesting through "(", NOT and unary "-".
// The parser recurses once per level, so an unbounded depth lets a few
// hundred kilobytes of "(((..." cost seconds of CPU and a deep stack
// before any admission or planning check sees the statement.
const maxNesting = 1000

type parser struct {
	toks  []token
	i     int
	depth int // current nesting of "(", NOT and unary "-"
}

// nest enters one nesting level; the caller leaves it with p.depth--.
func (p *parser) nest() error {
	p.depth++
	if p.depth > maxNesting {
		return fmt.Errorf("sqlish: expression nested deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlish: expected %s, got %s", kw, p.peek())
	}
	return nil
}

func (p *parser) accept(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(sym string) error {
	if !p.accept(sym) {
		return fmt.Errorf("sqlish: expected %q, got %s", sym, p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqlish: expected identifier, got %s", t)
	}
	p.next()
	return t.text, nil
}

// qualifiedName parses ident[.ident] or ident.*; the star form returns
// "name.*".
func (p *parser) qualifiedName() (string, error) {
	first, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.accept(".") {
		if p.accept("*") {
			return first + ".*", nil
		}
		second, err := p.ident()
		if err != nil {
			return "", err
		}
		return first + "." + second, nil
	}
	return first, nil
}

func (p *parser) parseCreate() (*CreateRandomTable, error) {
	p.next() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	out := &CreateRandomTable{Name: name}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		out.Cols = append(out.Cols, c)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FOR"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("EACH"); err != nil {
		return nil, err
	}
	if out.LoopVar, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("IN"); err != nil {
		return nil, err
	}
	if out.ParamTable, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("WITH"); err != nil {
		return nil, err
	}
	if out.VGAlias, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if out.VGName, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out.VGParams = append(out.VGParams, e)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	for {
		item, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		out.SelectItems = append(out.SelectItems, item)
		if !p.accept(",") {
			break
		}
	}
	// Optional trailing "FROM myVal" as in the paper; parsed and ignored.
	if p.acceptKeyword("FROM") {
		if _, err := p.ident(); err != nil {
			return nil, err
		}
	}
	if len(out.SelectItems) != len(out.Cols) && !hasStar(out.SelectItems) {
		return nil, fmt.Errorf("sqlish: CREATE TABLE %s declares %d columns but selects %d items",
			out.Name, len(out.Cols), len(out.SelectItems))
	}
	return out, nil
}

func hasStar(items []string) bool {
	for _, it := range items {
		if strings.HasSuffix(it, ".*") {
			return true
		}
	}
	return false
}

// parseSelectItem parses one aggregate of the select list.
func (p *parser) parseSelectItem() (SelectItem, error) {
	var out SelectItem
	agg, err := p.ident()
	if err != nil {
		return out, err
	}
	out.Agg = strings.ToUpper(agg)
	switch out.Agg {
	case "SUM", "COUNT", "AVG", "MIN", "MAX":
	default:
		return out, fmt.Errorf("sqlish: unsupported aggregate %q", agg)
	}
	if err := p.expect("("); err != nil {
		return out, err
	}
	if p.accept("*") {
		if out.Agg != "COUNT" {
			return out, fmt.Errorf("sqlish: %s(*) is not valid", out.Agg)
		}
	} else {
		if out.Expr, err = p.parseExpr(); err != nil {
			return out, err
		}
	}
	if err := p.expect(")"); err != nil {
		return out, err
	}
	if p.acceptKeyword("AS") {
		if out.Alias, err = p.ident(); err != nil {
			return out, err
		}
	}
	return out, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.next() // SELECT
	out := &SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		out.Items = append(out.Items, item)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	var err error
	for {
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		item := FromItem{Table: tbl, Alias: tbl}
		if p.acceptKeyword("AS") {
			if item.Alias, err = p.ident(); err != nil {
				return nil, err
			}
		} else if t := p.peek(); t.kind == tokIdent && !isClauseKeyword(t.text) {
			item.Alias = t.text
			p.next()
		}
		out.Froms = append(out.Froms, item)
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		if out.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out.GroupBy = append(out.GroupBy, g)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		if len(out.GroupBy) == 0 {
			return nil, fmt.Errorf("sqlish: HAVING requires a GROUP BY clause")
		}
		if out.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("WITH") {
		out.With = true
		if err := p.expectKeyword("RESULTDISTRIBUTION"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("MONTECARLO"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if p.acceptKeyword("UNTIL") {
			if out.Adaptive, err = p.parseUntil(); err != nil {
				return nil, err
			}
		} else {
			nTok := p.next()
			if nTok.kind != tokNumber {
				return nil, fmt.Errorf("sqlish: MONTECARLO needs a repetition count or UNTIL clause, got %s", nTok)
			}
			n, err := strconv.Atoi(nTok.text)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("sqlish: bad MONTECARLO count %q", nTok.text)
			}
			out.MCReps = n
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if p.acceptKeyword("DOMAIN") {
			d := &Domain{}
			if d.Name, err = p.ident(); err != nil {
				return nil, err
			}
			opTok := p.next()
			switch opTok.text {
			case ">=", ">":
				d.Lower = false
			case "<=", "<":
				d.Lower = true
			default:
				return nil, fmt.Errorf("sqlish: DOMAIN needs >= or <=, got %s", opTok)
			}
			if err := p.expectKeyword("QUANTILE"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			qTok := p.next()
			if qTok.kind != tokNumber {
				return nil, fmt.Errorf("sqlish: QUANTILE needs a number, got %s", qTok)
			}
			q, err := strconv.ParseFloat(qTok.text, 64)
			if err != nil || q <= 0 || q >= 1 {
				return nil, fmt.Errorf("sqlish: QUANTILE must lie in (0,1), got %q", qTok.text)
			}
			d.Quantile = q
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			out.Domain = d
		}
		if p.acceptKeyword("FREQUENCYTABLE") {
			if out.FreqTable, err = p.ident(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// parseUntil parses the adaptive stopping rule after UNTIL has been
// consumed: ERROR < eps [AT conf[%]] [, MAX n]. The closing paren stays
// with the caller.
func (p *parser) parseUntil() (*AdaptiveSpec, error) {
	if err := p.expectKeyword("ERROR"); err != nil {
		return nil, err
	}
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	tok := p.next()
	if tok.kind != tokNumber {
		return nil, fmt.Errorf("sqlish: UNTIL ERROR needs a numeric target, got %s", tok)
	}
	eps, err := strconv.ParseFloat(tok.text, 64)
	if err != nil || eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("sqlish: UNTIL ERROR target must lie in (0,1), got %q", tok.text)
	}
	spec := &AdaptiveSpec{TargetRelError: eps}
	if p.acceptKeyword("AT") {
		ct := p.next()
		if ct.kind != tokNumber {
			return nil, fmt.Errorf("sqlish: AT needs a confidence level, got %s", ct)
		}
		conf, err := strconv.ParseFloat(ct.text, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlish: bad confidence level %q", ct.text)
		}
		if p.accept("%") {
			conf /= 100
		}
		if conf <= 0 || conf >= 1 {
			return nil, fmt.Errorf("sqlish: confidence level must lie in (0,1), or (0,100) with %%; got %q", ct.text)
		}
		spec.Confidence = conf
	}
	if p.accept(",") {
		if err := p.expectKeyword("MAX"); err != nil {
			return nil, err
		}
		mt := p.next()
		if mt.kind != tokNumber {
			return nil, fmt.Errorf("sqlish: MAX needs a sample cap, got %s", mt)
		}
		m, err := strconv.Atoi(mt.text)
		if err != nil || m < 1 {
			return nil, fmt.Errorf("sqlish: bad MAX sample cap %q", mt.text)
		}
		spec.MaxSamples = m
	}
	return spec, nil
}

func isClauseKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "WHERE", "WITH", "FROM", "AS", "DOMAIN", "FREQUENCYTABLE", "GROUP", "HAVING", "ORDER":
		return true
	}
	return false
}

// Expression grammar: or -> and -> not -> cmp -> add -> mul -> unary ->
// primary.
func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.B(expr.OpOr, left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = expr.B(expr.OpAnd, left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		p.depth--
		if err != nil {
			return nil, err
		}
		return &expr.Not{Inner: inner}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (expr.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		var op expr.BinOp
		ok := true
		switch t.text {
		case "=":
			op = expr.OpEq
		case "<>", "!=":
			op = expr.OpNe
		case "<":
			op = expr.OpLt
		case "<=":
			op = expr.OpLe
		case ">":
			op = expr.OpGt
		case ">=":
			op = expr.OpGe
		default:
			ok = false
		}
		if ok {
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return expr.B(op, left, right), nil
		}
	}
	return left, nil
}

func (p *parser) parseAdd() (expr.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.next()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		if t.text == "+" {
			left = expr.B(expr.OpAdd, left, right)
		} else {
			left = expr.B(expr.OpSub, left, right)
		}
	}
}

func (p *parser) parseMul() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/") {
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.text == "*" {
			left = expr.B(expr.OpMul, left, right)
		} else {
			left = expr.B(expr.OpDiv, left, right)
		}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.accept("-") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		p.depth--
		if err != nil {
			return nil, err
		}
		return &expr.Neg{Inner: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlish: bad number %q", t.text)
			}
			return &expr.Const{Val: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlish: bad number %q", t.text)
		}
		return &expr.Const{Val: types.NewInt(i)}, nil
	case tokString:
		p.next()
		return &expr.Const{Val: types.NewString(t.text)}, nil
	case tokIdent:
		switch strings.ToUpper(t.text) {
		case "TRUE":
			p.next()
			return &expr.Const{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &expr.Const{Val: types.NewBool(false)}, nil
		}
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, ".*") {
			return nil, fmt.Errorf("sqlish: %s is not valid in an expression", name)
		}
		return expr.C(name), nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			if err := p.nest(); err != nil {
				return nil, err
			}
			inner, err := p.parseExpr()
			p.depth--
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, fmt.Errorf("sqlish: unexpected %s in expression", t)
}
