package main

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/gibbs"
	"repro/internal/prng"
	"repro/internal/types"
	"repro/internal/vg"
	"repro/mcdbr"
)

// mc-grouped sizing: a few thousand Normal losses joined to the
// deterministic accounts ⋈ regions prefix, fixed-N Monte Carlo per op.
const (
	mcAccounts = 2000
	mcRegions  = 8
	mcReps     = 100
	// mcLimit is the on-time latency limit of one op.
	mcLimit = 250 * time.Millisecond
	// mcZ is how many standard errors a group mean may stray from the
	// analytic sum of Normal means.
	mcZ = 6.0
	// identityEvery spaces the ops re-run at 1 worker for the
	// bit-identity check.
	identityEvery = 8
)

// mcStatements are the three rotating statement forms: GROUP BY with SUM
// and AVG, the same with HAVING (version-major fallback today), and an
// ungrouped SUM with a WHERE.
func mcStatements(n int) []string {
	const from = `FROM Losses L, accounts A, regions R WHERE L.acct = A.a_id AND A.a_region = R.r_id GROUP BY R.r_name`
	return []string{
		fmt.Sprintf(`SELECT SUM(L.val) AS total, AVG(L.val) AS avg_loss %s WITH RESULTDISTRIBUTION MONTECARLO(%d)`, from, n),
		fmt.Sprintf(`SELECT SUM(L.val) AS total, AVG(L.val) AS avg_loss %s HAVING total > 0 WITH RESULTDISTRIBUTION MONTECARLO(%d)`, from, n),
		fmt.Sprintf(`SELECT SUM(L.val) AS total FROM Losses L, accounts A WHERE L.acct = A.a_id AND A.a_active = 1 WITH RESULTDISTRIBUTION MONTECARLO(%d)`, n),
	}
}

// groupResult is one group of a Monte Carlo result in a form shared by
// the library and the traced pipeline.
type groupResult struct {
	key       string
	aggs      [][]float64
	inclusion float64
}

// fromExec normalizes a library result.
func fromExec(res *mcdbr.ExecResult) []groupResult {
	switch {
	case res.Grouped != nil:
		out := make([]groupResult, len(res.Grouped.Groups))
		for i, g := range res.Grouped.Groups {
			out[i] = groupResult{key: groupName(g.Key), inclusion: g.Inclusion}
			for _, d := range g.Dists {
				out[i].aggs = append(out[i].aggs, d.Samples)
			}
		}
		return out
	case res.Dist != nil:
		return []groupResult{{aggs: [][]float64{res.Dist.Samples}, inclusion: 1}}
	}
	return nil
}

// fromRuns normalizes raw grouped runs, dropping replicates that failed
// HAVING exactly as the engine does.
func fromRuns(gr *gibbs.GroupedRuns) []groupResult {
	out := make([]groupResult, 0, len(gr.Keys))
	for g, key := range gr.Keys {
		r := groupResult{key: groupName(key), aggs: gr.Samples[g], inclusion: 1}
		if gr.Include != nil {
			kept := 0
			for _, inc := range gr.Include[g] {
				if inc {
					kept++
				}
			}
			r.inclusion = float64(kept) / float64(len(gr.Include[g]))
			r.aggs = make([][]float64, len(gr.Samples[g]))
			for a, s := range gr.Samples[g] {
				for v, inc := range gr.Include[g] {
					if inc {
						r.aggs[a] = append(r.aggs[a], s[v])
					}
				}
			}
		}
		out = append(out, r)
	}
	return out
}

func vectors(groups []groupResult) [][]float64 {
	var out [][]float64
	for _, g := range groups {
		out = append(out, g.aggs...)
	}
	return out
}

func sameResults(a, b []groupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || len(a[i].aggs) != len(b[i].aggs) || a[i].inclusion != b[i].inclusion {
			return false
		}
		for j := range a[i].aggs {
			if !sameBits(a[i].aggs[j], b[i].aggs[j]) {
				return false
			}
		}
	}
	return true
}

// mcWorkload is one built mc-grouped set-up.
type mcWorkload struct {
	e        *mcdbr.Engine
	db       *lossDB
	vgs      *vg.Registry
	prefix   *exec.PrefixCache
	sqls     []string
	prepared []*mcdbr.PreparedQuery
	compiled []*compiledStmt // traced run only
	want     []map[string]moments
}

func setupMC(cfg config, tr *tracer) (*mcWorkload, error) {
	w := &mcWorkload{
		e:      mcdbr.New(mcdbr.WithSeed(cfg.seed), mcdbr.WithParallelism(cfg.workers)),
		db:     newLossDB(cfg.seed, mcAccounts, mcRegions),
		vgs:    vg.NewRegistry(),
		prefix: exec.NewPrefixCache(0),
		sqls:   mcStatements(mcReps),
	}
	if err := w.db.register(w.e); err != nil {
		return nil, err
	}
	for _, sql := range w.sqls {
		p, err := w.e.Prepare(sql)
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		w.prepared = append(w.prepared, p)
		if tr != nil {
			c, err := compileStmt(tr, 0, 0, w.e, w.vgs, sql)
			if err != nil {
				return nil, err
			}
			w.compiled = append(w.compiled, c)
		}
	}
	byRegion := w.db.byRegion()
	active := map[string]moments{"": w.db.where(func(i int) bool { return w.db.active[i] })}
	w.want = []map[string]moments{byRegion, byRegion, active}
	return w, nil
}

// check compares one op's result with the analytic moments of statement
// k; it returns "" when the result is correct.
func (w *mcWorkload) check(k int, groups []groupResult, n int) string {
	want := w.want[k]
	if len(groups) != len(want) {
		return fmt.Sprintf("statement %d: %d groups, want %d", k, len(groups), len(want))
	}
	for _, g := range groups {
		m, ok := want[g.key]
		if !ok {
			return fmt.Sprintf("statement %d: unexpected group %q", k, g.key)
		}
		if g.inclusion != 1 {
			return fmt.Sprintf("statement %d group %q: HAVING inclusion %v, want 1", k, g.key, g.inclusion)
		}
		if len(g.aggs[0]) != n {
			return fmt.Sprintf("statement %d group %q: %d samples, want %d", k, g.key, len(g.aggs[0]), n)
		}
		if est := meanOf(g.aggs[0]); !checkMean(est, m.mean, m.se(n), mcZ) {
			return fmt.Sprintf("statement %d group %q: SUM mean %.6g, analytic %.6g ± %.3g", k, g.key, est, m.mean, mcZ*m.se(n))
		}
		if len(g.aggs) > 1 {
			c := float64(m.count)
			if est := meanOf(g.aggs[1]); !checkMean(est, m.mean/c, m.se(n)/c, mcZ) {
				return fmt.Sprintf("statement %d group %q: AVG mean %.6g, analytic %.6g", k, g.key, est, m.mean/c)
			}
		}
	}
	return ""
}

func runMCGrouped(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	w, setup, err := repeatSetup(cfg, func() (*mcWorkload, error) { return setupMC(cfg, tr) })
	if err != nil {
		return nil, err
	}
	var st loopStats
	ls := &layerStats{}
	cpu0 := readCPU()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// At least one traced op and its untraced twin, however short the run.
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		k := i % len(w.sqls)
		seed := opSeed(cfg.seed, i)
		if tr != nil {
			// Odd ops are traced, even ops are their untraced twins; the
			// gap between the two is the tracing overhead.
			w.decomposedOp(cfg, traceOdd(tr, i), ls, &st, i, k, seed)
			continue
		}
		a0 := totalAlloc()
		t0 := time.Now()
		res, err := w.prepared[k].Run(mcdbr.RunOptions{Seed: seed})
		var groups []groupResult
		if err == nil {
			groups = fromExec(res)
			for _, v := range vectors(groups) {
				finalize(v)
			}
		}
		d := time.Since(t0)
		alloc := totalAlloc() - a0
		msg := ""
		if err != nil {
			msg = err.Error()
		} else {
			msg = w.check(k, groups, mcReps)
		}
		if msg == "" && i%identityEvery == 0 {
			one, err := w.prepared[k].Run(mcdbr.RunOptions{Seed: seed, Workers: 1})
			if err != nil {
				msg = err.Error()
			} else if !sameResults(fromExec(one), groups) {
				msg = fmt.Sprintf("statement %d seed %d: 1-worker result differs from %d workers", k, seed, cfg.workers)
			}
		}
		if msg != "" {
			st.mismatch(msg)
		}
		st.addOp(d, alloc, mcReps, msg == "", mcLimit)
	}
	if tr == nil {
		return st.outcome(st.endToEnd(setup)), nil
	}
	gcFrac := gcFracSince(cpu0)
	// Tail sampling does not run on this workload's path; probe it on the
	// ungrouped statement so the Gibbs layer is still measured here.
	if err := probeTail(cfg, tr, ls, w.e, w.prefix, w.compiled[2], 0.1, 20, 200, 1024); err != nil {
		return nil, err
	}
	srv, err := serveProbe(cfg, tr, w.e, w.sqls)
	if err != nil {
		return nil, err
	}
	if err := tr.writeFile(cfg.traceOut); err != nil {
		return nil, err
	}
	return st.outcome(layerMetrics(tr, ls, w.e, cfg.workers, gcFrac, srv)), nil
}

// decomposedOp runs statement k through the layer entry points: the
// nproc grouped Monte Carlo and finalize under one op span, then the
// 1-worker OpenEval + EvalWindow pass under a separate probe span, which
// also checks 1-worker against nproc bit-identity. Every fourth pair is
// compared with the library result and probes VG materialization. tr is
// nil for the untraced twin of a traced op.
func (w *mcWorkload) decomposedOp(cfg config, tr *tracer, ls *layerStats, st *loopStats, i, k int, seed uint64) {
	op := int64(i + 1)
	c := w.compiled[k]
	a0 := totalAlloc()
	t0 := time.Now()
	root := tr.reserve(spanOp, 0, op)
	gr, err := c.parallelRuns(tr, root, op, w.e, w.prefix, seed, mcReps, cfg.workers)
	parallel := time.Since(t0)
	var groups []groupResult
	if err == nil {
		groups = fromRuns(gr)
		finalizeAll(tr, root, op, vectors(groups))
	}
	end := time.Now()
	tr.finish(root, t0, end)
	alloc := totalAlloc() - a0
	msg := ""
	if err != nil {
		msg = err.Error()
	} else {
		msg = w.check(k, groups, mcReps)
	}
	if msg == "" {
		serial := tr.reserve(spanSerial, 0, op)
		s0 := time.Now()
		out, ok, err := c.serialEval(tr, serial, op, w.e, w.prefix, seed, mcReps)
		tr.finish(serial, s0, time.Now())
		ls.windowCalls++
		switch {
		case err != nil:
			msg = err.Error()
		case ok:
			ls.windowHits++
			ls.serialMS = append(ls.serialMS, ms(time.Since(s0)))
			ls.parallelMS = append(ls.parallelMS, ms(parallel))
			if !sameResults(fromRuns(&gibbs.GroupedRuns{Keys: gr.Keys, Samples: out}), groups) {
				msg = fmt.Sprintf("statement %d seed %d: EvalWindow at 1 worker differs from %d workers", k, seed, cfg.workers)
			}
		}
		if k == 2 {
			ls.naiveMSPerRep = ms(parallel) / mcReps // the ungrouped statement, as naive MCDB
		}
	}
	if msg == "" && i%8 < 2 {
		// The layer calls must compute exactly what the library returns.
		lib, err := w.prepared[k].Run(mcdbr.RunOptions{Seed: seed})
		if err == nil && !sameResults(fromExec(lib), groups) {
			err = fmt.Errorf("statement %d seed %d: layer entry points differ from PreparedQuery.Run", k, seed)
		}
		var rows [][]types.Value
		var vgName string
		if err == nil {
			rows, vgName, err = paramRows(w.e, "Losses", 500)
		}
		if err == nil {
			var ns, b float64
			ns, b, err = materializeProbe(tr, op, w.vgs, vgName, rows, mcReps, prng.NewStream(seed))
			ls.nsPerDraw = append(ls.nsPerDraw, ns)
			ls.bytesPerDraw = append(ls.bytesPerDraw, b)
		}
		if err != nil {
			msg = err.Error()
		}
	}
	if msg != "" {
		st.mismatch(msg)
	}
	d := end.Sub(t0)
	st.addOp(d, alloc, mcReps, msg == "", mcLimit)
	ls.addOpTime(tr, d)
}
