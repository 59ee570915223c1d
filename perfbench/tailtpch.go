package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/tail"
	"repro/internal/vg"
	"repro/mcdbr"
)

// tail-tpch sizing: the App. D timing workload at 1/tpchScaleDiv of paper
// scale, E1's m=5 and p=0.25^5, with reduced N and l so that a run holds
// well over a hundred ops.
const (
	tpchScaleDiv = 1000
	// tpchDataSeed fixes the generated orders and lineitem tables, whose
	// draw alone moves the op cost between seeds; --seed varies the per-op
	// Monte Carlo seeds of this workload.
	tpchDataSeed = 1
	tpchM        = 5
	tpchN        = 300
	tpchL        = 50
	// tpchMaxTries caps rejection-sampling candidates per (seed, version)
	// update. Without a cap a few ops in ten ran ten times longer than the
	// median (one chain stuck deep in the tail, replenishing hundreds of
	// times), so no run of a few hundred ops had a steady p90; with it the
	// op cost varies by about 15% and the quantile error is unchanged.
	tpchMaxTries = 300
	// tpchWindow is the engine stream window of E1 (TPCHTimingEngine).
	tpchWindow = 1000
	tpchLimit  = 1500 * time.Millisecond
	// tpchRelTol bounds |estimate - analytic| / analytic for the
	// (1-p)-quantile. Over 54 ops the relative error measured 1.2% mean
	// and 3.6% at most, so a correct sampler stays well inside it.
	tpchRelTol = 0.1
	// tpchNaiveReps is the plain Monte Carlo run naive MCDB is timed on.
	tpchNaiveReps = 200
)

var tpchP = math.Pow(0.25, tpchM)

const tpchFrom = `FROM random_ord r, lineitem l WHERE r.o_orderkey = l.l_orderkey AND (r.o_yr = 1994 OR r.o_yr = 1995)`

func tpchTailSQL() string {
	return fmt.Sprintf(`SELECT SUM(r.val) AS total %s WITH RESULTDISTRIBUTION MONTECARLO(%d) DOMAIN total >= QUANTILE(%v)`, tpchFrom, tpchL, 1-tpchP)
}

func tpchPlainSQL(n int) string {
	return fmt.Sprintf(`SELECT SUM(r.val) AS total %s WITH RESULTDISTRIBUTION MONTECARLO(%d)`, tpchFrom, n)
}

type tpchWorkload struct {
	e         *mcdbr.Engine
	vgs       *vg.Registry
	prefix    *exec.PrefixCache
	prepared  *mcdbr.PreparedQuery
	compiled  *compiledStmt // traced run only
	analyticQ float64
}

func setupTPCH(cfg config, tr *tracer) (*tpchWorkload, error) {
	e, err := experiments.TPCHTimingEngine(tpchScaleDiv, tpchDataSeed, mcdbr.WithParallelism(cfg.workers))
	if err != nil {
		return nil, err
	}
	mu, sigma := experiments.TPCHAnalyticMoments(e)
	w := &tpchWorkload{e: e, vgs: vg.NewRegistry(), prefix: exec.NewPrefixCache(0), analyticQ: stats.NormalQuantile(1-tpchP, mu, sigma)}
	if w.prepared, err = e.Prepare(tpchTailSQL()); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if tr != nil {
		if w.compiled, err = compileStmt(tr, 0, 0, e, w.vgs, tpchTailSQL()); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *tpchWorkload) tailOptions(workers int) mcdbr.TailSampleOptions {
	return mcdbr.TailSampleOptions{TotalSamples: tpchN, ForceM: tpchM, MaxTriesPerUpdate: tpchMaxTries, Parallelism: workers}
}

// check validates one tail result: the quantile estimate against the
// analytic normal quantile, every sample at or beyond it, l samples.
func (w *tpchWorkload) check(q float64, samples []float64) string {
	if len(samples) != tpchL {
		return fmt.Sprintf("%d tail samples, want %d", len(samples), tpchL)
	}
	if rel := math.Abs(q-w.analyticQ) / w.analyticQ; rel > tpchRelTol {
		return fmt.Sprintf("quantile estimate %.6g is %.2f%% from the analytic %.6g", q, 100*rel, w.analyticQ)
	}
	for _, s := range samples {
		if s < q {
			return fmt.Sprintf("tail sample %.6g below the quantile estimate %.6g", s, q)
		}
	}
	return ""
}

func runTailTPCH(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	w, setup, err := repeatSetup(cfg, func() (*tpchWorkload, error) { return setupTPCH(cfg, tr) })
	if err != nil {
		return nil, err
	}
	var st loopStats
	ls := &layerStats{tailP: tpchP, tailL: tpchL}
	cpu0 := readCPU()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// At least one traced op and its untraced twin, however short the run.
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		seed := opSeed(cfg.seed, i)
		if tr != nil {
			// Odd ops are traced, even ops are their untraced twins.
			w.decomposedOp(cfg, traceOdd(tr, i), ls, &st, i, seed)
			continue
		}
		a0 := totalAlloc()
		t0 := time.Now()
		res, err := w.prepared.Run(mcdbr.RunOptions{Seed: seed, Tail: w.tailOptions(0)})
		if err == nil {
			finalize(res.Tail.Samples)
		}
		d := time.Since(t0)
		alloc := totalAlloc() - a0
		msg := ""
		if err != nil {
			msg = err.Error()
		} else {
			msg = w.check(res.Tail.QuantileEstimate, res.Tail.Samples)
		}
		if msg == "" && i%identityEvery == 0 {
			one, err := w.prepared.Run(mcdbr.RunOptions{Seed: seed, Workers: 1, Tail: w.tailOptions(1)})
			switch {
			case err != nil:
				msg = err.Error()
			case !sameBits(one.Tail.Samples, res.Tail.Samples) || one.Tail.QuantileEstimate != res.Tail.QuantileEstimate:
				msg = fmt.Sprintf("seed %d: 1-worker tail differs from %d workers", seed, cfg.workers)
			}
		}
		if msg != "" {
			st.mismatch(msg)
		}
		st.addOp(d, alloc, tpchL, msg == "", tpchLimit)
	}
	if tr == nil {
		return st.outcome(st.endToEnd(setup)), nil
	}
	gcFrac := gcFracSince(cpu0)
	// Plain Monte Carlo does not run on this workload's path; probe it on
	// the same join, which also times naive MCDB for the speedup.
	c, err := compileStmt(tr, 0, 0, w.e, w.vgs, tpchPlainSQL(tpchNaiveReps))
	if err != nil {
		return nil, err
	}
	if err := probeMC(cfg, tr, ls, w.e, w.prefix, c, tpchNaiveReps); err != nil {
		return nil, err
	}
	srv, err := serveProbe(cfg, tr, w.e, []string{tpchPlainSQL(tpchNaiveReps)})
	if err != nil {
		return nil, err
	}
	if err := tr.writeFile(cfg.traceOut); err != nil {
		return nil, err
	}
	return st.outcome(layerMetrics(tr, ls, w.e, cfg.workers, gcFrac, srv)), nil
}

// decomposedOp runs one tail sampling through tail.Sample and finalize
// under an op span, checks it, and on every fourth pair compares it bit
// for bit with the library result for the same seed. tr is nil for the
// untraced twin of a traced op.
func (w *tpchWorkload) decomposedOp(cfg config, tr *tracer, ls *layerStats, st *loopStats, i int, seed uint64) {
	op := int64(i + 1)
	a0 := totalAlloc()
	t0 := time.Now()
	root := tr.reserve(spanOp, 0, op)
	res, err := w.compiled.tailSample(tr, root, op, w.e, w.prefix, seed, tpchP, tpchL, tpchWindow,
		tail.Options{TotalSamples: tpchN, ForceM: tpchM, MaxTriesPerUpdate: tpchMaxTries, Parallelism: cfg.workers})
	if err == nil {
		finalizeAll(tr, root, op, [][]float64{res.TailSamples})
	}
	end := time.Now()
	tr.finish(root, t0, end)
	alloc := totalAlloc() - a0
	msg := ""
	if err != nil {
		msg = err.Error()
	} else {
		ls.addTail(res, end.Sub(t0))
		msg = w.check(res.Quantile, res.TailSamples)
	}
	if msg == "" && i%8 < 2 {
		lib, err := w.prepared.Run(mcdbr.RunOptions{Seed: seed, Tail: w.tailOptions(0)})
		switch {
		case err != nil:
			msg = err.Error()
		case !sameBits(lib.Tail.Samples, res.TailSamples):
			msg = fmt.Sprintf("seed %d: tail.Sample differs from PreparedQuery.Run", seed)
		}
		if msg == "" {
			msg = w.seedsProbe(tr, ls, op, seed)
		}
	}
	if msg != "" {
		st.mismatch(msg)
	}
	d := end.Sub(t0)
	st.addOp(d, alloc, tpchL, msg == "", tpchLimit)
	ls.addOpTime(tr, d)
}

// seedsProbe materializes the E1 window for every order's seed.
func (w *tpchWorkload) seedsProbe(tr *tracer, ls *layerStats, op int64, seed uint64) string {
	rows, vgName, err := paramRows(w.e, "random_ord", 1<<30)
	if err != nil {
		return err.Error()
	}
	ns, b, err := materializeProbe(tr, op, w.vgs, vgName, rows, tpchWindow, prng.NewStream(seed))
	if err != nil {
		return err.Error()
	}
	ls.nsPerDraw = append(ls.nsPerDraw, ns)
	ls.bytesPerDraw = append(ls.bytesPerDraw, b)
	return ""
}
