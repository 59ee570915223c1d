package mcdbr

// Prepared queries: parse and plan a SELECT once, execute it many times
// with per-run options. This is the serving-path counterpart of Exec —
// a query service handling the same risk-analysis statement for many
// requests pays the sqlish parse and internal/plan rewrite/lowering cost
// once, then only the Monte Carlo (or tail-sampling) execution per run.
// The engine keeps an LRU cache of prepared plans keyed by normalized SQL
// and invalidated by the DDL epoch, so even callers that only use Exec-style
// round trips through Prepare get plan reuse.

import (
	"container/list"
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/gibbs"
	"repro/internal/sqlish"
)

// RunOptions are the per-run knobs of a prepared query. The zero value
// reruns the statement exactly as Exec would: engine seed, the statement's
// MONTECARLO(n) repetition count, and the engine's worker count.
type RunOptions struct {
	// Seed overrides the engine's master PRNG seed for this run; 0 selects
	// the engine seed. Runs with equal seeds are bit-for-bit identical to
	// an Exec of the same statement on an engine with that seed.
	Seed uint64
	// Samples overrides the statement's MONTECARLO(n) count: the number of
	// Monte Carlo repetitions, or of conditioned tail samples for DOMAIN
	// queries. 0 keeps the statement's value.
	Samples int
	// Workers overrides the engine's replicate-sharding worker count
	// (0 = engine default, 1 = sequential). Results are identical for
	// every value.
	Workers int
	// Tail tunes tail sampling for DOMAIN queries; ignored otherwise.
	Tail TailSampleOptions
	// MaxBytes overrides the engine's WithMaxQueryBytes memory budget for
	// this run: the most bytes the run's tuple arenas may hold before it
	// fails with an error wrapping ErrMemoryBudget. 0 keeps the engine
	// budget; negative disables the bound for this run.
	MaxBytes int64
	// TargetRelError, when > 0, turns the run adaptive (or overrides the
	// statement's UNTIL ERROR target): execution stops once every (group,
	// aggregate) estimate's relative CI half-width reaches the target. The
	// replicates actually run stay bit-identical to a fixed run of the
	// same count.
	TargetRelError float64
	// Confidence overrides the CI level of an adaptive run (0 keeps the
	// statement's value or the 95% default). Ignored for fixed-N runs.
	Confidence float64
	// MaxSamples caps an adaptive run's total replicates (0 keeps the
	// statement's value or the 65536 default). Ignored for fixed-N runs.
	MaxSamples int
	// DegradeOnDeadline selects graceful degradation for adaptive runs:
	// when ctx's deadline fires after at least one completed round (or tail
	// attempt), RunCtx returns the partial estimate accumulated so far —
	// bit-identical to a fixed run of that count — with
	// AdaptiveReport.Degraded set, instead of context.DeadlineExceeded.
	// Fixed-N runs ignore it and keep their strict contract: a deadline is
	// always an error, never a silently truncated result.
	DegradeOnDeadline bool
	// Progress, when non-nil, streams progressive partial results: it is
	// invoked after every adaptive round (or tail-chain attempt) with the
	// cumulative estimates and CI half-widths, from the run's goroutine.
	// Setting it on a fixed-N statement runs the round driver with
	// convergence disabled, so partial estimates stream while the final
	// result stays bit-identical to a plain run.
	Progress func(ProgressUpdate)
}

// PreparedQuery is a SELECT statement parsed and planned once, executable
// many times. Values are safe for concurrent use: Run creates a private
// workspace per call and never mutates the shared plan.
type PreparedQuery struct {
	e    *Engine
	key  string
	stmt *sqlish.SelectStmt
	c    *compiled // nil for deterministic (non-WITH) aggregates
	hit  bool
}

// cachedPlan is the plan-cache entry behind one normalized SQL key.
type cachedPlan struct {
	stmt  *sqlish.SelectStmt
	c     *compiled
	epoch uint64
}

// Prepare parses and plans one SQL-ish SELECT statement for repeated
// execution. CREATE TABLE statements are not preparable; use Exec for
// those. GROUP BY queries prepare like any other SELECT since ISSUE 5:
// aggregation (grouped or not) is part of the single compiled plan.
// Prepared plans are cached per engine in an LRU keyed by
// whitespace/case-normalized SQL and invalidated whenever a definition
// changes (RegisterTable, RegisterVG, DefineRandomTable, or an FTABLE
// schema change), so a later Prepare of the same text re-plans against
// the current catalog.
func (e *Engine) Prepare(sql string) (p *PreparedQuery, err error) {
	defer recoverToError("Prepare", &err)
	key := normalizeSQL(sql)
	epoch := e.epoch()
	if cp, ok := e.plans.get(key, epoch); ok {
		return &PreparedQuery{e: e, key: key, stmt: cp.stmt, c: cp.c, hit: true}, nil
	}
	stmt, err := sqlish.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlish.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("mcdbr: only SELECT statements can be prepared, got %T; use Exec", stmt)
	}
	var c *compiled
	if sel.With {
		if c, err = e.compileSelect(sel); err != nil {
			return nil, err
		}
		// Fail statements that could never run at Prepare time (bad DOMAIN
		// alias, multi-aggregate DOMAIN, grouped FREQUENCYTABLE, ...) so
		// they never pollute the plan cache.
		if err := validateSelect(c, sel); err != nil {
			return nil, err
		}
	} else if len(sel.Froms) == 1 {
		if _, isRandom := e.randomDef(sel.Froms[0].Table); isRandom {
			return nil, fmt.Errorf("mcdbr: query over random table %q needs WITH RESULTDISTRIBUTION", sel.Froms[0].Table)
		}
	}
	e.plans.put(key, &cachedPlan{stmt: sel, c: c, epoch: epoch})
	return &PreparedQuery{e: e, key: key, stmt: sel, c: c}, nil
}

// CacheHit reports whether this PreparedQuery was served from the
// engine's plan cache rather than parsed and planned anew.
func (p *PreparedQuery) CacheHit() bool { return p.hit }

// SQL returns the normalized statement text (the plan-cache key).
func (p *PreparedQuery) SQL() string { return p.key }

// Explain returns the plan description of the prepared statement.
func (p *PreparedQuery) Explain() (*Explain, error) {
	return p.e.explainSelect(p.stmt)
}

// Run executes the prepared statement once with the given per-run
// options. With a zero RunOptions the result is bit-for-bit identical to
// Engine.Exec of the same statement. Run is safe to call from many
// goroutines on one PreparedQuery.
func (p *PreparedQuery) Run(opts RunOptions) (*ExecResult, error) {
	return p.RunCtx(context.Background(), opts)
}

// RunCtx is Run with cancellation: when ctx is cancelled the run stops at
// the next unit of work — between replicates, Gibbs versions, and
// bootstrapping steps — and returns ctx's cause (errors.Is
// context.Canceled or DeadlineExceeded). Partial work is discarded; a
// cancelled run never returns a truncated result. The HTTP serving layer
// passes the request context so a disconnected client aborts its query.
func (p *PreparedQuery) RunCtx(ctx context.Context, opts RunOptions) (res *ExecResult, err error) {
	defer recoverToError("PreparedQuery.Run", &err)
	s := p.stmt
	if !s.With {
		// Deterministic aggregate: re-executes against the current catalog
		// (FTABLE contents may have changed since Prepare).
		return p.e.execScalar(s)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = p.e.seed
	}
	workers := opts.Workers
	if workers == 0 {
		workers = p.e.parallelism
	}
	n := s.MCReps
	if opts.Samples > 0 {
		n = opts.Samples
	}
	maxBytes := opts.MaxBytes
	switch {
	case maxBytes == 0:
		maxBytes = p.e.maxQueryBytes
	case maxBytes < 0:
		maxBytes = 0 // explicit override: unbounded
	}
	// Fold the per-run adaptive overrides over the statement's rule: a
	// TargetRelError turns any statement adaptive; Confidence and
	// MaxSamples refine a rule that exists (from either source).
	var stop *gibbs.StopRule
	if p.c != nil && p.c.stop != nil {
		r := stopRuleFromSpec(p.c.stop)
		stop = &r
	}
	if opts.TargetRelError > 0 {
		if stop == nil {
			stop = &gibbs.StopRule{}
		}
		stop.TargetRelError = opts.TargetRelError
	}
	if stop != nil {
		if opts.Confidence > 0 {
			stop.Confidence = opts.Confidence
		}
		if opts.MaxSamples > 0 {
			stop.MaxSamples = opts.MaxSamples
		}
	}
	return p.e.runSelectCompiled(p.c, s, opts.Tail, runParams{
		ctx:      ctx,
		seed:     seed,
		workers:  workers,
		n:        n,
		maxBytes: maxBytes,
		stop:     stop,
		degrade:  opts.DegradeOnDeadline,
		progress: opts.Progress,
	})
}

// PlanCacheStats reports the engine plan cache's lifetime hit and miss
// counts and its current size.
func (e *Engine) PlanCacheStats() (hits, misses uint64, size int) {
	return e.plans.stats()
}

// normalizeSQL is the plan-cache key function: it lowercases the
// statement outside single-quoted strings, collapses whitespace runs to
// one space, and drops a trailing semicolon, so reformatted copies of one
// query share a cache entry.
func normalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	inStr := false
	pendingSpace := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inStr {
			b.WriteByte(c)
			if c == '\'' {
				inStr = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			pendingSpace = true
		default:
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			if c == '\'' {
				inStr = true
			} else if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
	return strings.TrimSuffix(strings.TrimSpace(b.String()), ";")
}

// planCache is a mutex-guarded LRU of prepared plans. Entries carry the
// DDL epoch they were planned under; a lookup from a later epoch misses
// (and evicts), so definition changes invalidate stale plans without a
// full flush of still-valid ones being observable by callers.
type planCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // *cacheItem, most recently used first
	entries map[string]*list.Element
	hits    uint64
	misses  uint64
}

type cacheItem struct {
	key string
	p   *cachedPlan
}

// newPlanCache builds an empty cache; cap <= 0 selects 64.
func newPlanCache(cap int) *planCache {
	if cap <= 0 {
		cap = 64
	}
	return &planCache{cap: cap, order: list.New(), entries: make(map[string]*list.Element)}
}

func (pc *planCache) get(key string, epoch uint64) (*cachedPlan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if ok {
		item := el.Value.(*cacheItem)
		if item.p.epoch == epoch {
			pc.order.MoveToFront(el)
			pc.hits++
			return item.p, true
		}
		// Planned under an older catalog: evict.
		pc.order.Remove(el)
		delete(pc.entries, key)
	}
	pc.misses++
	return nil, false
}

func (pc *planCache) put(key string, p *cachedPlan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		el.Value.(*cacheItem).p = p
		pc.order.MoveToFront(el)
		return
	}
	pc.entries[key] = pc.order.PushFront(&cacheItem{key: key, p: p})
	for pc.order.Len() > pc.cap {
		back := pc.order.Back()
		pc.order.Remove(back)
		delete(pc.entries, back.Value.(*cacheItem).key)
	}
}

func (pc *planCache) stats() (hits, misses uint64, size int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses, pc.order.Len()
}
