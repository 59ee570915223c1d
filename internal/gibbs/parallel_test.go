package gibbs

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/prng"
)

// selectivePlan wraps lossPlan in a Select over the random attribute, so
// tuples carry presence vectors and the replicate value mixes SUM deltas
// with presence tests — the hardest case for shard-layout independence.
func selectivePlan(t testing.TB, ws *exec.Workspace, variance float64) exec.Node {
	t.Helper()
	return &exec.Select{
		Child: lossPlan(t, ws, variance),
		Pred:  expr.B(expr.OpGt, expr.C("losses.val"), expr.F(3.5)),
	}
}

// TestMonteCarloParallelDeterminism is the sharding contract: the
// grouped driver's output is bit-for-bit identical to the looper's
// sequential version-at-a-time recompute for every worker count, across
// plain and presence-vector plans and across SUM and COUNT aggregates.
func TestMonteCarloParallelDeterminism(t *testing.T) {
	means := []float64{3, 4, 5, 2.5, 6, 4.5, 3.3, 5.1}
	cat := lossCatalog(means)
	const n = 257 // deliberately not a multiple of any worker count

	type mkPlan func(testing.TB, *exec.Workspace, float64) exec.Node
	plans := []struct {
		name string
		mk   mkPlan
		q    Query
	}{
		{"sum", func(t testing.TB, ws *exec.Workspace, v float64) exec.Node { return lossPlan(t, ws, v) }, sumQuery()},
		{"select-sum", selectivePlan, sumQuery()},
		{"select-count", selectivePlan, Query{Agg: exec.AggSpec{Kind: exec.AggCount}}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			seqWS := exec.NewWorkspace(cat, prng.NewStream(7), n)
			want, err := looperMonteCarlo(seqWS, tc.mk(t, seqWS, 1), tc.q, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 5, runtime.NumCPU()} {
				ws := exec.NewWorkspace(cat, prng.NewStream(7), n)
				gr, err := MonteCarloGroupedParallel(ws, aggFor(t, tc.mk(t, ws, 1), nil, nil, tc.q.Agg), nil, n, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := gr.Samples[0][0]
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d samples, want %d", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: replicate %d = %v, want %v (bit-identity violated)",
							workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestRunParallelismDeterminism checks the looper's batch recompute: a
// full tail-sampling run must produce identical quantile trajectories,
// tail samples and replenishment counts for every Parallelism value. The
// small-window case (window = N) makes the run re-execute its plan to
// refill sample windows many times (see TestRecomputeReplenishRestarts for
// a replenishment forced inside the batch recompute itself).
func TestRunParallelismDeterminism(t *testing.T) {
	means := []float64{3, 4, 5, 2.5, 6}
	base := Config{N: 32, M: 3, P: 0.05, L: 16, K: 1}

	run := func(parallelism, window int) *Result {
		t.Helper()
		cat := lossCatalog(means)
		ws := exec.NewWorkspace(cat, prng.NewStream(11), window)
		plan := lossPlan(t, ws, 1)
		cfg := base
		cfg.Parallelism = parallelism
		res, err := Run(ws, plan, sumQuery(), cfg)
		if err != nil {
			t.Fatalf("parallelism=%d window=%d: %v", parallelism, window, err)
		}
		return res
	}

	for _, window := range []int{64, base.N} {
		want := run(1, window)
		if window == base.N && want.Replenishments == 0 {
			t.Fatalf("window=%d: no replenishing run; the case does not exercise replenishment", window)
		}
		for _, parallelism := range []int{2, 3, runtime.NumCPU()} {
			got := run(parallelism, window)
			if got.Quantile != want.Quantile {
				t.Errorf("window=%d parallelism=%d: quantile %v, want %v", window, parallelism, got.Quantile, want.Quantile)
			}
			if got.Replenishments != want.Replenishments {
				t.Errorf("window=%d parallelism=%d: %d replenishments, want %d", window, parallelism, got.Replenishments, want.Replenishments)
			}
			if !slices.Equal(got.Cutoffs, want.Cutoffs) {
				t.Errorf("window=%d parallelism=%d: cutoffs %v, want %v", window, parallelism, got.Cutoffs, want.Cutoffs)
			}
			if !slices.Equal(got.TailSamples, want.TailSamples) {
				t.Errorf("window=%d parallelism=%d: tail samples %v, want %v", window, parallelism, got.TailSamples, want.TailSamples)
			}
		}
	}
}

// TestRecomputeReplenishRestarts forces a replenishing run inside the
// batch recompute: one seed's window is cut short, so the versions past
// the cut fail mid-batch — on the single inline shard after the earlier
// versions have completed, and on one worker while the others finish.
// The batch must replenish exactly once, restart, and reproduce the
// undisturbed states bit for bit at every parallelism.
func TestRecomputeReplenishRestarts(t *testing.T) {
	const n = 32
	cat := lossCatalog([]float64{3, 4, 5, 2.5, 6})
	for _, parallelism := range []int{1, 2, 3} {
		ws := exec.NewWorkspace(cat, prng.NewStream(11), n)
		lp := &looper{ws: ws, plan: lossPlan(t, ws, 1), q: sumQuery(), cfg: Config{N: n, M: 1, P: 0.1, L: n, Parallelism: parallelism}}
		if err := lp.cfg.validate(); err != nil {
			t.Fatal(err)
		}
		if err := lp.init(); err != nil {
			t.Fatal(err)
		}
		if err := lp.recomputeStates(n); err != nil {
			t.Fatal(err)
		}
		want := lp.states
		seed := ws.Seeds.MustGet(ws.Seeds.IDs()[2])
		seed.Window.Vals = seed.Window.Vals[:n-7]
		if err := lp.recomputeStates(n); err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		if lp.totalRepl != 1 {
			t.Errorf("parallelism=%d: %d replenishing runs, want 1", parallelism, lp.totalRepl)
		}
		if !slices.Equal(lp.states, want) {
			t.Errorf("parallelism=%d: states after replenishment differ:\n got %v\nwant %v", parallelism, lp.states, want)
		}
	}
}

// TestMonteCarloParallelSmallN exercises the degenerate shard layouts:
// more workers than replicates, and n == 1.
func TestMonteCarloParallelSmallN(t *testing.T) {
	cat := lossCatalog([]float64{3, 4})
	seqWS := exec.NewWorkspace(cat, prng.NewStream(3), 8)
	want, err := looperMonteCarlo(seqWS, lossPlan(t, seqWS, 1), sumQuery(), 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n, workers int) ([]float64, error) {
		ws := exec.NewWorkspace(cat, prng.NewStream(3), 8)
		gr, err := MonteCarloGroupedParallel(ws, aggOver(t, lossPlan(t, ws, 1), nil, nil), nil, n, workers)
		if err != nil {
			return nil, err
		}
		return gr.Samples[0][0], nil
	}
	got, err := run(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replicate %d: %v vs %v", i, got[i], want[i])
		}
	}
	one, err := run(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != want[0] {
		t.Fatalf("n=1: %v, want [%v]", one, want[0])
	}
	if _, err := run(0, 4); err == nil {
		t.Error("n=0 must error")
	}
}

// shardProbe wraps a plan and records the replicate window of every
// workspace that opens it; Open fails or panics in the shard whose window
// starts at failAt / panicAt (-1: never).
type shardProbe struct {
	exec.Node
	failAt, panicAt int
	mu              sync.Mutex
	windows         [][2]int // [Base, Base+Window) per Open
}

var errProbe = errors.New("probe: shard failed")

func (p *shardProbe) Open(ws *exec.Workspace) (exec.Iterator, error) {
	lo := int(ws.Base)
	p.mu.Lock()
	p.windows = append(p.windows, [2]int{lo, lo + ws.Window})
	p.mu.Unlock()
	switch lo {
	case p.failAt:
		return nil, errProbe
	case p.panicAt:
		panic("probe: shard panicked")
	}
	return p.Node.Open(ws)
}

func newShardProbe(t testing.TB, ws *exec.Workspace) (*shardProbe, *exec.Aggregate) {
	p := &shardProbe{Node: lossPlan(t, ws, 1), failAt: -1, panicAt: -1}
	return p, aggOver(t, p, nil, nil)
}

// TestWindowDriverMergesInReplicateOrder: any replicate window [lo, hi)
// at any worker count is exactly replicates lo..hi-1 of the sequential
// run, merged in replicate order.
func TestWindowDriverMergesInReplicateOrder(t *testing.T) {
	cat := lossCatalog([]float64{3, 4, 5})
	seqWS := exec.NewWorkspace(cat, prng.NewStream(21), 16)
	full, err := looperMonteCarlo(seqWS, lossPlan(t, seqWS, 1), sumQuery(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, win := range [][2]int{{0, 11}, {5, 16}, {15, 16}} {
		for _, workers := range []int{1, 2, 3, 5, 16} {
			ws := exec.NewWorkspace(cat, prng.NewStream(21), 4)
			gr, err := monteCarloGroupedWindow(ws, aggOver(t, lossPlan(t, ws, 1), nil, nil), nil, win[0], win[1], workers)
			if err != nil {
				t.Fatalf("window %v workers=%d: %v", win, workers, err)
			}
			got, want := gr.Samples[0][0], full[win[0]:win[1]]
			if len(got) != len(want) {
				t.Fatalf("window %v workers=%d: %d replicates, want %d", win, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("window %v workers=%d: replicate %d = %v, want %v", win, workers, win[0]+i, got[i], want[i])
				}
			}
		}
	}
}

// TestWindowDriverShardWindows: every shard — the single one at one
// worker included — runs in a private workspace whose Instantiate window
// covers exactly its replicates, and the shards tile the window.
func TestWindowDriverShardWindows(t *testing.T) {
	cat := lossCatalog([]float64{3, 4})
	for _, tc := range []struct {
		lo, hi, workers int
		want            [][2]int
	}{
		{0, 10, 3, [][2]int{{0, 3}, {3, 6}, {6, 10}}},
		{20, 30, 3, [][2]int{{20, 23}, {23, 26}, {26, 30}}},
		{7, 12, 1, [][2]int{{7, 12}}},
	} {
		ws := exec.NewWorkspace(cat, prng.NewStream(1), 512)
		probe, agg := newShardProbe(t, ws)
		if _, err := monteCarloGroupedWindow(ws, agg, nil, tc.lo, tc.hi, tc.workers); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(probe.windows, func(a, b [2]int) int { return a[0] - b[0] })
		if !slices.Equal(probe.windows, tc.want) {
			t.Errorf("[%d, %d) at %d workers: shard windows %v, want %v", tc.lo, tc.hi, tc.workers, probe.windows, tc.want)
		}
	}
}

// TestWindowDriverErrors: n < 1 and empty windows are rejected, a
// shard's error fails the whole run, and a shard panic — on a worker
// goroutine or on the single inline shard — surfaces as an error instead
// of killing the process.
func TestWindowDriverErrors(t *testing.T) {
	cat := lossCatalog([]float64{3, 4})
	ws := exec.NewWorkspace(cat, prng.NewStream(1), 64)
	if _, err := MonteCarloGroupedParallel(ws, aggOver(t, lossPlan(t, ws, 1), nil, nil), nil, 0, 2); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := monteCarloGroupedWindow(ws, aggOver(t, lossPlan(t, ws, 1), nil, nil), nil, 5, 5, 2); err == nil {
		t.Error("empty window must error")
	}

	ws = exec.NewWorkspace(cat, prng.NewStream(1), 64)
	probe, agg := newShardProbe(t, ws)
	probe.failAt = 5 // the third of four shards of [0, 10)
	if _, err := MonteCarloGroupedParallel(ws, agg, nil, 10, 4); !errors.Is(err, errProbe) {
		t.Errorf("shard error not propagated: %v", err)
	}
	for _, workers := range []int{1, 4} {
		ws = exec.NewWorkspace(cat, prng.NewStream(1), 64)
		probe, agg = newShardProbe(t, ws)
		probe.panicAt = 0
		_, err := MonteCarloGroupedParallel(ws, agg, nil, 10, workers)
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("workers=%d: shard panic not contained: %v", workers, err)
		}
	}
}
