package exec

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bundle"
	"repro/internal/expr"
	"repro/internal/prng"
	"repro/internal/types"
)

// EvalVersion is the version-major oracle the window pass is checked
// against: the aggregate vector of every group for one DB version,
// computed one tuple at a time through the row interpreter. out[g][a] is
// aggregate a of group g; include[g] receives the HAVING outcome per
// group (always true without a HAVING clause) unless include is nil.
func (ev *AggEval) EvalVersion(b bundle.Binding, out [][]float64, include []bool) error {
	states := make([]AggState, len(ev.agg.Aggs))
	for g := range ev.groups {
		grp := &ev.groups[g]
		copy(states, grp.base)
		for _, tu := range grp.rand {
			row, present, err := tu.Eval(b, ev.buf)
			if err != nil {
				return err
			}
			if !present {
				continue
			}
			if err := ev.contribute(row, states); err != nil {
				return err
			}
		}
		for a, spec := range ev.agg.Aggs {
			out[g][a] = states[a].Value(spec.Kind)
		}
		if include != nil {
			ok := true
			if ev.having != nil {
				nk := len(ev.agg.GroupBy)
				for a := range ev.agg.Aggs {
					grp.outRow[nk+a] = types.NewFloat(out[g][a])
				}
				ok = ev.having.EvalBool(grp.outRow)
			}
			include[g] = ok
		}
	}
	return nil
}

// windowAggregate wraps the loss plan in a Select (so tuples carry
// presence vectors) under a multi-aggregate grouped Aggregate.
func windowAggregate(t *testing.T, ws *Workspace, having expr.Expr) *Aggregate {
	t.Helper()
	plan := buildLossPlan(t, ws)
	return lossAggregate(t, &Select{Child: plan, Pred: expr.B(expr.OpGt, expr.C("losses.val"), expr.F(2.0))}, having)
}

// lossAggregate is the multi-aggregate grouped Aggregate over a loss plan.
func lossAggregate(t *testing.T, plan Node, having expr.Expr) *Aggregate {
	t.Helper()
	agg, err := NewAggregate(plan,
		[]expr.Expr{expr.C("means.cid")}, []string{"cid"},
		[]AggSpec{
			{Kind: AggSum, Expr: expr.C("losses.val"), Name: "s"},
			{Kind: AggAvg, Expr: expr.B(expr.OpMul, expr.C("losses.val"), expr.F(2.0)), Name: "a"},
			{Kind: AggCount, Name: "c"},
		}, having)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// windowOut allocates an [nG][nA][n] sample buffer and an [nG][n]
// HAVING mask.
func windowOut(nG, nA, n int) ([][][]float64, [][]bool) {
	out := make([][][]float64, nG)
	include := make([][]bool, nG)
	for g := range out {
		out[g] = make([][]float64, nA)
		for a := range out[g] {
			out[g][a] = make([]float64, n)
		}
		include[g] = make([]bool, n)
	}
	return out, include
}

// reverseSomeSeeds breaks the identity layout of every other seed by
// reversing its version assignment over the same materialized positions,
// so one group mixes kernel-lane and interpreter-lane tuples.
func reverseSomeSeeds(ws *Workspace, _ *AggEval) {
	for i, id := range ws.Seeds.IDs() {
		if i%2 == 0 {
			slices.Reverse(ws.Seeds.MustGet(id).Assign)
		}
	}
}

// TestEvalWindowMatchesEvalVersion: the window-major pass must produce
// bit-identical samples and HAVING masks to the version-major oracle —
// including the final predicate and presence checks — whether tuples take
// the kernel lanes or the interpreter lanes: HAVING, kernels off, a
// non-identity seed layout (alone and mixed with identity seeds) — and
// fail with the same error on a window too small for n (formerly a
// decline) or a malformed VG-output reference.
func TestEvalWindowMatchesEvalVersion(t *testing.T) {
	const n = 48
	final := expr.B(expr.OpLt, expr.C("losses.val"), expr.F(6.5))
	having := expr.B(expr.OpGt, expr.C("s"), expr.F(4.0))
	cases := []struct {
		name      string
		having    expr.Expr
		noKernels bool
		window    int
		perturb   func(*Workspace, *AggEval)
		wantErr   bool
		noSelect  bool // tuples without presence vectors
	}{
		{name: "identity", window: n},
		{name: "having", having: having, window: n},
		{name: "kernels off", noKernels: true, window: n},
		{name: "having kernels off", having: having, noKernels: true, window: n},
		{name: "mixed layout", window: n, perturb: reverseSomeSeeds},
		{name: "mixed layout no presence", window: n, perturb: reverseSomeSeeds, noSelect: true},
		{name: "cloned versions", having: having, window: n, perturb: func(ws *Workspace, _ *AggEval) {
			if err := ws.Seeds.CloneVersions([]int{3, 17, 40}, n); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "window too small", window: 4, wantErr: true},
		{name: "malformed VG reference", window: n, wantErr: true, perturb: func(_ *Workspace, ev *AggEval) {
			ev.groups[1].rand[0].Rand[0].Out = 5 // Normal emits one output
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace(testCatalog(), prng.NewStream(9), tc.window)
			ws.DisableKernels = tc.noKernels
			agg := windowAggregate(t, ws, tc.having)
			if tc.noSelect {
				agg = lossAggregate(t, buildLossPlan(t, ws), tc.having)
			}
			ev, err := agg.OpenEval(ws, final)
			if err != nil {
				t.Fatal(err)
			}
			ws.Seeds.InitAssignAt(ws.Base, n)
			nG, nA := ev.NumGroups(), 3
			if tc.perturb != nil {
				// Warm the evaluator on the identity layout first: nothing
				// it memoizes may leak into the perturbed call.
				warm, _ := windowOut(nG, nA, n)
				if _, err := ev.EvalWindow(ws, n, warm); err != nil {
					t.Fatal(err)
				}
				tc.perturb(ws, ev)
			}
			if nG != 3 {
				t.Fatalf("groups = %d", nG)
			}
			want, wantInc := windowOut(nG, nA, n)
			vec := make([][]float64, nG)
			for g := range vec {
				vec[g] = make([]float64, nA)
			}
			inc := make([]bool, nG)
			var oracleErr error
			for v := 0; v < n && oracleErr == nil; v++ {
				if oracleErr = ev.EvalVersion(bundle.Bind(ws.Seeds, v), vec, inc); oracleErr != nil {
					break
				}
				for g := 0; g < nG; g++ {
					for a := 0; a < nA; a++ {
						want[g][a][v] = vec[g][a]
					}
					wantInc[g][v] = inc[g]
				}
			}

			got, gotInc := windowOut(nG, nA, n)
			ok, err := ev.EvalWindow(ws, n, got, gotInc)
			if tc.wantErr {
				if oracleErr == nil {
					t.Fatal("oracle did not fail")
				}
				if err == nil || err.Error() != oracleErr.Error() {
					t.Fatalf("window err = %v, want %v", err, oracleErr)
				}
				return
			}
			if oracleErr != nil || err != nil {
				t.Fatalf("oracle err = %v, window err = %v", oracleErr, err)
			}
			if !ok {
				t.Fatal("EvalWindow reported false; it has no decline left")
			}
			for g := 0; g < nG; g++ {
				for a := 0; a < nA; a++ {
					for v := 0; v < n; v++ {
						if math.Float64bits(got[g][a][v]) != math.Float64bits(want[g][a][v]) {
							t.Fatalf("group %d agg %d version %d: window %v vs version-major %v",
								g, a, v, got[g][a][v], want[g][a][v])
						}
					}
				}
				if tc.having != nil && !slices.Equal(gotInc[g], wantInc[g]) {
					t.Fatalf("group %d HAVING mask: window %v vs version-major %v", g, gotInc[g], wantInc[g])
				}
			}
			if tc.having != nil {
				// A threshold between the group means must exclude some
				// versions somewhere, or the mask comparison is vacuous.
				mixed := false
				for g := range gotInc {
					mixed = mixed || slices.Contains(gotInc[g], false) && slices.Contains(gotInc[g], true)
				}
				if !mixed {
					t.Fatalf("HAVING mask is constant in every group: %v", gotInc)
				}
			}
		})
	}
}

// TestEvalWindowDeclines: no decline remains. The inputs that once sent
// callers to a version-major fallback — HAVING, disabled kernels, and a
// non-identity seed layout — all run in the window pass and report ok.
func TestEvalWindowDeclines(t *testing.T) {
	const n = 16
	run := func(label string, ws *Workspace, having expr.Expr, perturb func(*Workspace, *AggEval)) {
		t.Helper()
		ev, err := windowAggregate(t, ws, having).OpenEval(ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws.Seeds.InitAssignAt(ws.Base, n)
		if perturb != nil {
			perturb(ws, ev)
		}
		out, include := windowOut(ev.NumGroups(), 3, n)
		ok, err := ev.EvalWindow(ws, n, out, include)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v, want ok", label, ok, err)
		}
	}
	run("having", NewWorkspace(testCatalog(), prng.NewStream(9), n), expr.B(expr.OpGt, expr.C("s"), expr.F(0)), nil)
	off := NewWorkspace(testCatalog(), prng.NewStream(9), n)
	off.DisableKernels = true
	run("kernels off", off, nil, nil)
	run("reversed layout", NewWorkspace(testCatalog(), prng.NewStream(9), n), nil, reverseSomeSeeds)
}

// TestEvalWindowHavingZeroAllocs pins the HAVING hot loop at zero
// allocations: group keys are prefilled into per-group output rows at
// OpenEval, lanes and the seed-layout memo live on the evaluator, so a
// repeat EvalWindow call only overwrites scratch in place.
func TestEvalWindowHavingZeroAllocs(t *testing.T) {
	const n = 8
	ws := NewWorkspace(testCatalog(), prng.NewStream(9), n)
	having := expr.B(expr.OpGt, expr.C("s"), expr.F(1.0))
	ev, err := windowAggregate(t, ws, having).OpenEval(ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws.Seeds.InitAssignAt(ws.Base, n)
	out, include := windowOut(ev.NumGroups(), 3, n)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ev.EvalWindow(ws, n, out, include); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvalWindow with HAVING allocates %v per call, want 0", allocs)
	}
}
