package main

// The traced run calls each layer through its exported entry point,
// exactly as mcdbr composes them, so that a span can sit around every
// call without adding tracing inside the program:
//
//	sqlish.Parse -> plan.Build -> plan.Lower            (compile)
//	(*exec.Aggregate).OpenEval -> (*exec.AggEval).EvalWindow   (1 worker)
//	gibbs.MonteCarloGroupedParallel                     (nproc workers)
//	tail.Sample                                         (DOMAIN queries)
//	(*seeds.TSSeed).Materialize                         (VG draws)
//	stats.NewECDF / Quantile / ConditionalMean          (finalize)
//
// Only entry points the engine keeps as its single Monte Carlo path are
// probed; the version-major and ungrouped drivers are never called.

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/gibbs"
	"repro/internal/plan"
	"repro/internal/prng"
	"repro/internal/seeds"
	"repro/internal/sqlish"
	"repro/internal/stats"
	"repro/internal/tail"
	"repro/internal/types"
	"repro/internal/vg"
	"repro/mcdbr"
)

// Span names of the traced run; the per-layer metrics are read from them.
const (
	spanOp       = "op"
	spanParse    = "sqlish.Parse"
	spanPlan     = "plan.BuildLower"
	spanOpenEval = "exec.OpenEval"
	spanEvalWin  = "exec.EvalWindow"
	spanMCGP     = "gibbs.MonteCarloGroupedParallel"
	spanTail     = "tail.Sample"
	spanFinalize = "stats.finalize"
	spanMaterial = "seeds.Materialize"
	spanSerial   = "probe.serial"
	spanHandler  = "server.Handler"
	spanRequest  = "client.request"
)

// engineCatalog adapts an engine to plan.Catalog through the engine's
// exported accessors.
type engineCatalog struct {
	e   *mcdbr.Engine
	vgs *vg.Registry
}

func (c engineCatalog) TableRows(name string) (int, bool) {
	if t, ok := c.e.Table(name); ok {
		return t.NumRows(), true
	}
	if rt, ok := c.e.RandomTableDef(name); ok {
		if pt, ok := c.e.Table(rt.ParamTable); ok {
			return pt.NumRows(), true
		}
	}
	return 0, false
}

func (c engineCatalog) TableColumns(name string) ([]string, bool) {
	t, ok := c.e.Table(name)
	if !ok {
		return nil, false
	}
	var names []string
	for _, col := range t.Schema().Columns() {
		names = append(names, col.Name)
	}
	return names, true
}

func (c engineCatalog) Random(name string) (*plan.RandomMeta, bool) {
	rt, ok := c.e.RandomTableDef(name)
	if !ok {
		return nil, false
	}
	gen, ok := c.vgs.Lookup(rt.VG)
	if !ok {
		return nil, false
	}
	meta := &plan.RandomMeta{ParamTable: rt.ParamTable, VG: rt.VG, VGParams: rt.VGParams, NumOuts: len(gen.OutKinds())}
	for _, col := range rt.Columns {
		meta.Columns = append(meta.Columns, plan.RandomColMeta{Name: col.Name, FromParam: col.FromParam, VGOut: col.VGOut})
	}
	return meta, true
}

// compiledStmt is one SELECT planned through the layer entry points.
type compiledStmt struct {
	sql   string
	stmt  *sqlish.SelectStmt
	agg   *exec.Aggregate
	final expr.Expr
}

// compileStmt parses, plans and lowers sql, with a span around the parse
// and one around plan.Build + plan.Lower.
func compileStmt(tr *tracer, parent, op int64, e *mcdbr.Engine, vgs *vg.Registry, sql string) (*compiledStmt, error) {
	var parsed sqlish.Statement
	if err := tr.do(spanParse, parent, op, func(int64) (err error) {
		parsed, err = sqlish.Parse(sql)
		return err
	}); err != nil {
		return nil, err
	}
	s, ok := parsed.(*sqlish.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("compile: %T is not a SELECT", parsed)
	}
	q := plan.Query{GroupBy: s.GroupBy, Having: s.Having}
	for _, f := range s.Froms {
		q.Froms = append(q.Froms, plan.From{Table: f.Table, Alias: f.Alias})
	}
	if s.Where != nil {
		q.Where = expr.SplitConjuncts(s.Where)
	}
	for _, it := range s.Items {
		item := plan.AggItem{Expr: it.Expr, Alias: it.Alias}
		switch it.Agg {
		case "SUM":
			item.Kind = exec.AggSum
		case "AVG":
			item.Kind = exec.AggAvg
		case "COUNT":
			item.Kind, item.Expr = exec.AggCount, nil
		default:
			return nil, fmt.Errorf("compile: aggregate %s", it.Agg)
		}
		q.Aggs = append(q.Aggs, item)
	}
	if a := s.Adaptive; a != nil {
		q.Stop = &plan.StopSpec{TargetRelError: a.TargetRelError, Confidence: a.Confidence, MaxSamples: a.MaxSamples}
	}
	c := &compiledStmt{sql: sql, stmt: s}
	err := tr.do(spanPlan, parent, op, func(int64) error {
		lp, err := plan.Build(engineCatalog{e, vgs}, q)
		if err != nil {
			return err
		}
		node, err := plan.Lower(lp.Root, e.Catalog(), vgs)
		if err != nil {
			return err
		}
		agg, ok := node.(*exec.Aggregate)
		if !ok {
			return fmt.Errorf("compile: lowered root is %T", node)
		}
		c.agg = agg
		if len(lp.Final) > 0 {
			c.final = expr.And(lp.Final...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// workspace is a fresh per-run workspace like the engine builds one.
func workspace(e *mcdbr.Engine, prefix *exec.PrefixCache, seed uint64, window int) *exec.Workspace {
	ws := exec.NewWorkspace(e.Catalog(), prng.NewStream(seed), window)
	if prefix != nil {
		ws.Prefix = prefix.Handle(0)
	}
	return ws
}

// serialEval runs the single-worker window-major pass with a span around
// OpenEval and one around EvalWindow. ok is EvalWindow's verdict: false
// means the engine would take its version-major fallback.
func (c *compiledStmt) serialEval(tr *tracer, parent, op int64, e *mcdbr.Engine, prefix *exec.PrefixCache, seed uint64, n int) (out [][][]float64, ok bool, err error) {
	ws := workspace(e, prefix, seed, n)
	var ev *exec.AggEval
	if err := tr.do(spanOpenEval, parent, op, func(int64) (err error) {
		ev, err = c.agg.OpenEval(ws, c.final)
		return err
	}); err != nil {
		return nil, false, err
	}
	ws.Seeds.InitAssignAt(ws.Base, n)
	out = make([][][]float64, ev.NumGroups())
	for g := range out {
		out[g] = make([][]float64, len(c.agg.Aggs))
		for a := range out[g] {
			out[g][a] = make([]float64, n)
		}
	}
	err = tr.do(spanEvalWin, parent, op, func(int64) (err error) {
		ok, err = ev.EvalWindow(ws, n, out)
		return err
	})
	return out, ok, err
}

// parallelRuns is gibbs.MonteCarloGroupedParallel under a span.
func (c *compiledStmt) parallelRuns(tr *tracer, parent, op int64, e *mcdbr.Engine, prefix *exec.PrefixCache, seed uint64, n, workers int) (*gibbs.GroupedRuns, error) {
	var gr *gibbs.GroupedRuns
	err := tr.do(spanMCGP, parent, op, func(int64) (err error) {
		gr, err = gibbs.MonteCarloGroupedParallel(workspace(e, prefix, seed, n), c.agg, c.final, n, workers)
		return err
	})
	return gr, err
}

// tailSample is tail.Sample under a span, with the workspace window the
// engine would size for it (at least N+l, never below engineWindow).
func (c *compiledStmt) tailSample(tr *tracer, parent, op int64, e *mcdbr.Engine, prefix *exec.PrefixCache, seed uint64, p float64, l, engineWindow int, opts tail.Options) (*gibbs.Result, error) {
	cfg, err := tail.Configure(p, l, opts)
	if err != nil {
		return nil, err
	}
	window := max(engineWindow, cfg.N+cfg.L)
	q := gibbs.Query{Agg: c.agg.Aggs[0], FinalPred: c.final}
	var res *gibbs.Result
	err = tr.do(spanTail, parent, op, func(int64) (err error) {
		res, err = tail.Sample(workspace(e, prefix, seed, window), c.agg.Child, q, p, l, opts)
		return err
	})
	return res, err
}

// distSummary is what a user reads off a result distribution; the
// serving layer sends the same fields, so a response decodes into it.
type distSummary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q50    float64 `json:"q50"`
	Q90    float64 `json:"q90"`
	Q99    float64 `json:"q99"`
	CVaR95 float64 `json:"cvar95"`
	CVaR99 float64 `json:"cvar99"`
}

// finalize computes the ECDF, quantiles and CVaR of one result with the
// serving layer's formulas, so it equals a response bit for bit.
func finalize(samples []float64) distSummary {
	ecdf := stats.NewECDF(samples)
	sm := stats.Summarize(samples)
	q95, q99 := ecdf.Quantile(0.95), ecdf.Quantile(0.99)
	return distSummary{
		N: len(samples), Mean: sm.Mean, Std: sm.Std, Min: ecdf.Min(), Max: ecdf.Max(),
		Q50: ecdf.Quantile(0.5), Q90: ecdf.Quantile(0.9), Q99: q99,
		CVaR95: stats.ConditionalMean(samples, q95, false),
		CVaR99: stats.ConditionalMean(samples, q99, false),
	}
}

// finalizeAll finalizes every result vector under one span.
func finalizeAll(tr *tracer, parent, op int64, results [][]float64) []distSummary {
	out := make([]distSummary, len(results))
	_ = tr.do(spanFinalize, parent, op, func(int64) error {
		for i, s := range results {
			out[i] = finalize(s)
		}
		return nil
	})
	return out
}

// materializeProbe fills one TS-seed window per parameter row, timing only
// the Materialize calls, and returns ns and heap bytes per VG draw.
func materializeProbe(tr *tracer, op int64, vgs *vg.Registry, vgName string, params [][]types.Value, window int, master prng.Stream) (nsPerDraw, bytesPerDraw float64, err error) {
	gen, ok := vgs.Lookup(vgName)
	if !ok {
		return 0, 0, fmt.Errorf("materialize probe: VG %q not registered", vgName)
	}
	st := seeds.NewStore()
	all := make([]*seeds.TSSeed, len(params))
	for i, p := range params {
		all[i] = st.Alloc(master, gen, p)
	}
	a0 := totalAlloc()
	start := time.Now()
	for _, s := range all {
		if err := s.Materialize(0, window, nil); err != nil {
			return 0, 0, err
		}
	}
	end := time.Now()
	bytes := totalAlloc() - a0
	tr.record(spanMaterial, 0, op, start, end)
	draws := float64(len(all) * window)
	return float64(end.Sub(start).Nanoseconds()) / draws, float64(bytes) / draws, nil
}

// paramRows evaluates a random table's VG parameter expressions over its
// parameter table, giving the rows Materialize is invoked with.
func paramRows(e *mcdbr.Engine, randomTable string, limit int) ([][]types.Value, string, error) {
	rt, ok := e.RandomTableDef(randomTable)
	if !ok {
		return nil, "", fmt.Errorf("random table %q not defined", randomTable)
	}
	pt, ok := e.Table(rt.ParamTable)
	if !ok {
		return nil, "", fmt.Errorf("parameter table %q not registered", rt.ParamTable)
	}
	comp := make([]*expr.Compiled, len(rt.VGParams))
	for i, pe := range rt.VGParams {
		c, err := expr.Compile(pe, pt.Schema())
		if err != nil {
			return nil, "", err
		}
		comp[i] = c
	}
	var rows [][]types.Value
	for _, r := range pt.Rows() {
		if len(rows) == limit {
			break
		}
		vals := make([]types.Value, len(comp))
		for i, c := range comp {
			vals[i] = c.Eval(r)
		}
		rows = append(rows, vals)
	}
	return rows, rt.VG, nil
}

// layerStats accumulates the per-layer counters of a traced run.
type layerStats struct {
	windowCalls, windowHits int
	serialMS, parallelMS    []float64 // per op, for parallel efficiency
	candidates, accepts     int64
	giveups, replenish      int64
	tailOps                 int
	tailMS                  []float64
	naiveMSPerRep           float64
	tailP                   float64
	tailL                   int
	nsPerDraw, bytesPerDraw []float64
	tracedOpMS, plainOpMS   []float64
}

// addOpTime files an op's latency under traced or untraced.
func (ls *layerStats) addOpTime(tr *tracer, d time.Duration) {
	if tr != nil {
		ls.tracedOpMS = append(ls.tracedOpMS, ms(d))
	} else {
		ls.plainOpMS = append(ls.plainOpMS, ms(d))
	}
}

// traceOdd returns tr for odd ops and nil for even ones.
func traceOdd(tr *tracer, i int) *tracer {
	if i%2 == 1 {
		return tr
	}
	return nil
}

func (ls *layerStats) addTail(res *gibbs.Result, d time.Duration) {
	ls.tailOps++
	ls.tailMS = append(ls.tailMS, ms(d))
	for _, it := range res.Iters {
		ls.candidates += it.Candidates
		ls.accepts += it.Accepts
		ls.giveups += it.GiveUps
	}
	ls.replenish += int64(res.Replenishments)
}

// spanMedian is the median duration of the named spans in unit µs, ms.
func spanMedian(tr *tracer, name string, toMS bool) float64 {
	d := median(tr.durations(name))
	if toMS {
		return d / 1000
	}
	return d
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles every per-layer metric common to the workloads
// from the tracer, the counters and the engine's cache statistics.
func layerMetrics(tr *tracer, ls *layerStats, e *mcdbr.Engine, workers int, gcFrac float64, srv serveLayer) map[string]metric {
	ph, pm, _ := e.PlanCacheStats()
	xh, xm, _ := e.PrefixCacheStats()
	eff := 0.0
	if len(ls.parallelMS) > 0 {
		eff = median(ls.serialMS) / (float64(workers) * median(ls.parallelMS))
	}
	naiveNeeded := float64(ls.tailL) / ls.tailP
	speedup := ratio(ls.naiveMSPerRep*naiveNeeded, median(ls.tailMS))
	overhead := 0.0
	if len(ls.plainOpMS) > 0 && len(ls.tracedOpMS) > 0 {
		overhead = median(ls.tracedOpMS)/median(ls.plainOpMS) - 1
	}
	return map[string]metric{
		"sqlish.parse_us":              {spanMedian(tr, spanParse, false), "us"},
		"plan.build_lower_us":          {spanMedian(tr, spanPlan, false), "us"},
		"mcdbr.plan_cache_hit_ratio":   {ratio(float64(ph), float64(ph+pm)), "ratio"},
		"mcdbr.prefix_cache_hit_ratio": {ratio(float64(xh), float64(xh+xm)), "ratio"},
		"exec.open_eval_ms":            {spanMedian(tr, spanOpenEval, true), "ms"},
		"exec.eval_window_ms":          {spanMedian(tr, spanEvalWin, true), "ms"},
		"exec.window_path_ratio":       {ratio(float64(ls.windowHits), float64(ls.windowCalls)), "ratio"},
		"seeds.ns_per_draw":            {median(ls.nsPerDraw), "ns"},
		"seeds.bytes_per_draw":         {median(ls.bytesPerDraw), "B"},
		"gibbs.parallel_efficiency":    {eff, "ratio"},
		"gibbs.tail_sample_ms":         {median(ls.tailMS), "ms"},
		"gibbs.accept_ratio":           {ratio(float64(ls.accepts), float64(ls.candidates)), "ratio"},
		"gibbs.giveups_per_op":         {ratio(float64(ls.giveups), float64(ls.tailOps)), "count"},
		"gibbs.replenish_per_op":       {ratio(float64(ls.replenish), float64(ls.tailOps)), "count"},
		"gibbs.speedup_vs_naive":       {speedup, "x"},
		"stats.finalize_us":            {spanMedian(tr, spanFinalize, false), "us"},
		"server.handler_ms_p50":        {srv.handlerMS, "ms"},
		"server.exec_ms_p50":           {srv.execMS, "ms"},
		"server.transport_ms_p50":      {srv.transportMS, "ms"},
		"admit.queue_wait_ms_p95":      {srv.queueWaitMS, "ms"},
		"admit.shed_frac":              {srv.shedFrac, "ratio"},
		"go.gc_cpu_frac":               {gcFrac, "ratio"},
		"loadgen.lateness_ms_p90":      {srv.latenessMS, "ms"},
		"trace.overhead_frac":          {overhead, "ratio"},
	}
}

// checkMean reports whether an estimated mean lies within z standard
// errors of the analytic value.
func checkMean(est, want, se, z float64) bool {
	return math.Abs(est-want) <= z*se
}

// groupName renders a group key the way the engine prints it.
func groupName(key types.Row) string {
	parts := make([]string, len(key))
	for i, v := range key {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

// probeTail runs a few tail samplings of c, whose first aggregate is
// conditioned on its upper p tail, for the Gibbs per-layer metrics of a
// workload whose own path has no DOMAIN query.
func probeTail(cfg config, tr *tracer, ls *layerStats, e *mcdbr.Engine, prefix *exec.PrefixCache, c *compiledStmt, p float64, l, total, window int) error {
	ls.tailP, ls.tailL = p, l
	reps := 3
	if cfg.short {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		op := int64(-(r + 1))
		t0 := time.Now()
		res, err := c.tailSample(tr, 0, op, e, prefix, opSeed(cfg.seed^0x7a11, r), p, l, window, tail.Options{TotalSamples: total, Parallelism: cfg.workers})
		if err != nil {
			return fmt.Errorf("tail probe: %w", err)
		}
		ls.addTail(res, time.Since(t0))
	}
	return nil
}

// probeMC runs c as plain Monte Carlo through the 1-worker window path
// and the nproc sharded driver, for the exec and parallel-efficiency
// metrics of a workload whose own path does not run them. The sharded
// time per replicate is the cost of naive MCDB behind the speedup.
func probeMC(cfg config, tr *tracer, ls *layerStats, e *mcdbr.Engine, prefix *exec.PrefixCache, c *compiledStmt, n int) error {
	reps := 5
	if cfg.short {
		reps = 2
	}
	var naive []float64
	for r := 0; r < reps; r++ {
		op := int64(-(r + 1))
		seed := opSeed(cfg.seed^0x3c, r)
		serial := tr.reserve(spanSerial, 0, op)
		s0 := time.Now()
		out, ok, err := c.serialEval(tr, serial, op, e, prefix, seed, n)
		tr.finish(serial, s0, time.Now())
		serialMS := ms(time.Since(s0))
		if err != nil {
			return err
		}
		p0 := time.Now()
		gr, err := c.parallelRuns(tr, 0, op, e, prefix, seed, n, cfg.workers)
		if err != nil {
			return err
		}
		parallelMS := ms(time.Since(p0))
		naive = append(naive, parallelMS)
		ls.windowCalls++
		if ok {
			ls.windowHits++
			ls.serialMS = append(ls.serialMS, serialMS)
			ls.parallelMS = append(ls.parallelMS, parallelMS)
			if !sameBits(out[0][0], gr.Samples[0][0]) {
				return fmt.Errorf("probe: EvalWindow at 1 worker differs from %d workers", cfg.workers)
			}
		}
	}
	ls.naiveMSPerRep = median(naive) / float64(n)
	return nil
}
