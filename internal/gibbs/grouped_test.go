package gibbs

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
)

// aggOver wraps a tuple plan in a single-SUM Aggregate root.
func aggOver(t testing.TB, plan exec.Node, groupBy []expr.Expr, names []string) *exec.Aggregate {
	t.Helper()
	return aggFor(t, plan, groupBy, names, exec.AggSpec{Kind: exec.AggSum, Expr: expr.C("losses.val"), Name: "s"})
}

// aggFor wraps a tuple plan in an Aggregate root over one aggregate.
func aggFor(t testing.TB, plan exec.Node, groupBy []expr.Expr, names []string, spec exec.AggSpec) *exec.Aggregate {
	t.Helper()
	agg, err := exec.NewAggregate(plan, groupBy, names, []exec.AggSpec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// looperMonteCarlo is the Gibbs looper's view of n plain Monte Carlo
// repetitions: the looper's own recomputeStates, which evaluates one
// version at a time and replenishes (§9) when the workspace window is
// smaller than n. It is the independent implementation the grouped
// driver's AggEval pass is cross-checked against.
func looperMonteCarlo(ws *exec.Workspace, plan exec.Node, q Query, n int) ([]float64, error) {
	lp := &looper{ws: ws, plan: plan, q: q, cfg: Config{N: n, M: 1, P: 0.5, L: n, K: 1, MaxTriesPerUpdate: 1}}
	if err := lp.init(); err != nil {
		return nil, err
	}
	if err := lp.recomputeStates(n); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for v, st := range lp.states {
		out[v] = st.Value(q.Agg.Kind)
	}
	return out, nil
}

// TestMonteCarloGroupedMatchesMonteCarlo: for a single ungrouped
// aggregate the grouped driver is bit-identical to the looper's
// version-at-a-time recompute, including when a small workspace window
// forces the looper through §9 replenishing runs (the driver sizes its
// shard windows itself, so the prototype window never limits it).
func TestMonteCarloGroupedMatchesMonteCarlo(t *testing.T) {
	const n = 40
	for _, window := range []int{n, 8} {
		cat := lossCatalog([]float64{3, 4, 5, 6})
		ws := exec.NewWorkspace(cat, prng.NewStream(77), window)
		plan := lossPlan(t, ws, 1)
		want, err := looperMonteCarlo(ws, plan, sumQuery(), n)
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		ws2 := exec.NewWorkspace(cat, prng.NewStream(77), window)
		plan2 := lossPlan(t, ws2, 1)
		gr, err := MonteCarloGroupedParallel(ws2, aggOver(t, plan2, nil, nil), nil, n, 1)
		if err != nil {
			t.Fatalf("window=%d: grouped: %v", window, err)
		}
		if len(gr.Keys) != 1 || len(gr.Samples[0]) != 1 {
			t.Fatalf("window=%d: shape %d groups", window, len(gr.Keys))
		}
		got := gr.Samples[0][0]
		if len(got) != n {
			t.Fatalf("window=%d: %d samples", window, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window=%d rep %d: grouped %v vs looper %v", window, i, got[i], want[i])
			}
		}
	}
}

// TestMonteCarloGroupedReplenishGrouped: a prototype window smaller than
// n (which once sent the grouped driver through a §9 replenishing
// rebuild) keeps every group and every replicate: per-cid groups over a
// window of 8 for 30 replicates, each group bit-identical to the
// looper's replenishing per-group recompute.
func TestMonteCarloGroupedReplenishGrouped(t *testing.T) {
	const n = 30
	cat := lossCatalog([]float64{3, 4, 5})
	byCid := []expr.Expr{expr.C("means.cid")}
	ws := exec.NewWorkspace(cat, prng.NewStream(5), 8)
	plan := lossPlan(t, ws, 1)
	gr, err := MonteCarloGroupedParallel(ws, aggOver(t, plan, byCid, []string{"cid"}), nil, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Keys) != 3 {
		t.Fatalf("groups = %d", len(gr.Keys))
	}
	for g, key := range gr.Keys {
		got := gr.Samples[g][0]
		if len(got) != n {
			t.Fatalf("group %d samples = %d", g, len(got))
		}
		wsL := exec.NewWorkspace(cat, prng.NewStream(5), 8)
		q := sumQuery()
		q.GroupBy, q.GroupKey = byCid, key
		want, err := looperMonteCarlo(wsL, lossPlan(t, wsL, 1), q, n)
		if err != nil {
			t.Fatalf("group %s: looper: %v", key, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("group %s rep %d: grouped %v vs looper %v", key, i, got[i], want[i])
			}
		}
	}
}
