package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/loadgen"
	"repro/internal/prng"
	"repro/internal/server"
	"repro/internal/vg"
	"repro/mcdbr"
)

// serve-mix sizing and schedule. The rate sits well below the measured
// capacity of nproc execution slots for this mix.
const (
	serveAccounts = 300
	// serveDataSeed fixes the loss tables: how often a grouped tail query
	// replenishes depends on the drawn table and moved alloc_mb_per_op by
	// 8% between seeds, so --seed varies the schedule, the texts drawn
	// and the query seeds of this workload.
	serveDataSeed   = 1
	serveRegions    = 8
	serveTexts      = 256
	serveReps       = 100
	serveRatePerCPU = 8.0
	// serveLimit is the on-time latency limit of one request, measured
	// from when it was due.
	serveLimit = 250 * time.Millisecond
	// serveSeeds is how many distinct seeds requests draw from, so that
	// (sql, seed) pairs repeat and can be compared with each other.
	serveSeeds = 4
	// serveLibraryChecks caps the (sql, seed) pairs recomputed through the
	// library after the run.
	serveLibraryChecks = 48
)

// Kinds of mix entries.
const (
	kindMC = iota
	kindAdaptive
	kindTail
	kindDDL
)

type mixItem struct {
	sql          string
	weight       int
	priority     string
	kind         int
	totalSamples int
}

// serveMixItems lists the mix's statements: serveTexts small interactive
// MONTECARLO(n) texts with skewed (Zipf-like) popularity, then the UNTIL
// ERROR adaptive texts, the batch grouped DOMAIN tail texts, and the
// CREATE TABLE redefinition of Losses. The redefinition is identical, so
// it bumps the DDL epoch and invalidates the plan and prefix caches
// without changing any result.
func serveMixItems() []mixItem {
	var items []mixItem
	for i := 0; i < serveTexts; i++ {
		items = append(items, mixItem{
			sql:      fmt.Sprintf(`SELECT SUM(val) AS t FROM Losses WHERE acct < %d WITH RESULTDISTRIBUTION MONTECARLO(%d)`, 44+i, serveReps),
			weight:   max(1, 2000/(i+1)),
			priority: "interactive",
			kind:     kindMC,
		})
	}
	for i := 0; i < serveAdaptive; i++ {
		items = append(items, mixItem{
			sql:  fmt.Sprintf(`SELECT SUM(val) AS t FROM Losses WHERE acct < %d WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.0005 AT 95%%, MAX 400)`, 100+20*i),
			kind: kindAdaptive,
		})
	}
	for i := 0; i < serveTails; i++ {
		items = append(items, mixItem{
			sql:          fmt.Sprintf(`SELECT SUM(L.val) AS total FROM Losses L, accounts A WHERE L.acct = A.a_id AND A.a_id < %d GROUP BY A.a_active WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN total >= QUANTILE(0.8)`, 100+50*i),
			priority:     "batch",
			kind:         kindTail,
			totalSamples: 40,
		})
	}
	return append(items, mixItem{sql: createLosses, kind: kindDDL})
}

// Mix shares per 100 requests: 15 adaptive, 1 tail, 1 DDL, the rest
// interactive. They are assigned by position rather than drawn, so every
// run carries the same composition and only the interactive texts, the
// seeds and the arrival times vary with the seed. The adaptive texts
// never reach their error target, so each runs its MAX 400 replicates:
// p50 falls inside the interactive requests and p90 inside the adaptive
// ones, away from the step between the two.
const (
	serveAdaptive = 8
	serveTails    = 2
)

// stratify rewrites the interactive-only schedule's query indexes into
// the full mix.
func stratify(events []loadgen.Event) {
	for i := range events {
		block, slot := i/100, i%100
		switch {
		case slot < 15:
			events[i].Query = serveTexts + (block*15+slot)%serveAdaptive
		case slot == 50:
			events[i].Query = serveTexts + serveAdaptive + block%serveTails
		case slot == 99:
			events[i].Query = serveTexts + serveAdaptive + serveTails
		}
	}
}

// serveEnv is an in-process server on a loopback listener with a client
// capped at nproc connections.
type serveEnv struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

// startServer serves e on 127.0.0.1 with nproc execution slots. When tr
// is set, requests carrying an op header get a span around the service
// handler, parented to the client span named in the header.
func startServer(e *mcdbr.Engine, workers int, tr *tracer) (*serveEnv, error) {
	srv := server.New(e, server.Options{MaxConcurrent: workers})
	inner := srv.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get("X-Perfbench-Op"), 10, 64)
		if tr == nil || err != nil {
			inner.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Span"), 10, 64)
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		tr.record(spanHandler, parent, op, t0, time.Now())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	env := &serveEnv{
		srv:  srv,
		hs:   &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     workers,
				MaxIdleConnsPerHost: workers,
				DisableCompression:  true,
			},
		},
	}
	go func() { env.done <- env.hs.Serve(ln) }()
	resp, err := env.client.Get(env.url + "/healthz")
	if err != nil {
		env.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return env, nil
}

// close shuts the server down and waits for its serve loop to end.
func (s *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // in-flight requests have all completed
	<-s.done
	s.client.CloseIdleConnections()
}

// request is one scheduled POST /query.
type request struct {
	item int
	seed uint64
	body []byte
	due  time.Duration // offset from the schedule start
	// traced requests carry op and span headers and get a client span.
	traced bool
}

// queryResp is the subset of server.QueryResponse the benchmark reads,
// decoded without the server's types so that later wire changes to other
// fields do not break it.
type queryResp struct {
	Kind      string       `json:"kind"`
	Dist      *distSummary `json:"dist"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Error     string       `json:"error"`
}

// reqResult is the client's view of one request.
type reqResult struct {
	latency time.Duration // from when it was due to the last response byte
	status  int
	err     error
	resp    queryResp
}

func (r reqResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

// openLoop sends every request at its due time from one dispatcher, over
// at most workers concurrent connections. Latency counts from the due
// time, so a request that waits for a free connection or a slot is late
// by that much; transport errors are results like any other. lateness is
// how late the dispatcher itself released each request.
func openLoop(env *serveEnv, tr *tracer, reqs []request, workers int) (results []reqResult, lateness []float64) {
	results = make([]reqResult, len(reqs))
	lateness = make([]float64, len(reqs))
	jobs := make(chan int, len(reqs)) // one slot per request: the dispatcher never blocks
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = send(env, tr, reqs[i], int64(i+1), start.Add(reqs[i].due))
			}
		}()
	}
	for i, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateness[i] = ms(time.Since(due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, lateness
}

func send(env *serveEnv, tr *tracer, r request, op int64, due time.Time) reqResult {
	var spanID int64
	if r.traced {
		spanID = tr.reserve(spanRequest, 0, op)
	}
	t0 := time.Now()
	res := reqResult{}
	hreq, err := http.NewRequest(http.MethodPost, env.url+"/query", bytes.NewReader(r.body))
	if err == nil {
		hreq.Header.Set("Content-Type", "application/json")
		if r.traced {
			hreq.Header.Set("X-Perfbench-Op", strconv.FormatInt(op, 10))
			hreq.Header.Set("X-Perfbench-Span", strconv.FormatInt(spanID, 10))
		}
		var resp *http.Response
		if resp, err = env.client.Do(hreq); err == nil {
			res.status = resp.StatusCode
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				err = json.Unmarshal(body, &res.resp)
			}
		}
	}
	end := time.Now()
	if r.traced {
		tr.finish(spanID, t0, end)
	}
	res.err = err
	res.latency = end.Sub(due)
	return res
}

// buildRequests turns a loadgen schedule into request bodies. Seeds are
// folded onto serveSeeds values so (sql, seed) pairs repeat.
func buildRequests(items []mixItem, events []loadgen.Event, traceEvery int) ([]request, error) {
	reqs := make([]request, len(events))
	for i, ev := range events {
		it := items[ev.Query]
		body := server.QueryRequest{SQL: it.sql, Priority: it.priority, TotalSamples: it.totalSamples}
		seed := uint64(0)
		if it.kind != kindDDL {
			seed = 1 + ev.Seed%serveSeeds
			body.Seed = seed
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{
			item:   ev.Query,
			seed:   seed,
			body:   b,
			due:    time.Duration(ev.AtMS * float64(time.Millisecond)),
			traced: traceEvery > 0 && i%traceEvery == traceEvery-1,
		}
	}
	return reqs, nil
}

// schedule draws the Poisson arrivals for a mix through loadgen.
func schedule(items []mixItem, rate, seconds float64, seed uint64) ([]loadgen.Event, error) {
	specs := make([]loadgen.QuerySpec, len(items))
	for i, it := range items {
		specs[i] = loadgen.QuerySpec{SQL: it.sql, Weight: it.weight, Priority: it.priority}
	}
	tr, err := loadgen.GenerateMix("perfbench", specs, loadgen.ArrivalPoisson, rate, time.Duration(seconds*float64(time.Second)), seed)
	if err != nil {
		return nil, err
	}
	return tr.Events, nil
}

// serveWorkload is one built serve-mix set-up.
type serveWorkload struct {
	e     *mcdbr.Engine
	db    *lossDB
	env   *serveEnv
	items []mixItem
}

func setupServe(cfg config, tr *tracer) (*serveWorkload, error) {
	w := &serveWorkload{
		e:     mcdbr.New(mcdbr.WithSeed(cfg.seed), mcdbr.WithParallelism(cfg.workers)),
		db:    newLossDB(serveDataSeed, serveAccounts, serveRegions),
		items: serveMixItems(),
	}
	if err := w.db.register(w.e); err != nil {
		return nil, err
	}
	env, err := startServer(w.e, cfg.workers, tr)
	if err != nil {
		return nil, err
	}
	w.env = env
	return w, nil
}

// verify checks every response: non-SELECT and tail requests must
// succeed with the right kind; Monte Carlo responses for one (sql, seed)
// pair must be identical to each other, and the first serveLibraryChecks
// pairs must equal the library result at 1 worker bit for bit.
func (w *serveWorkload) verify(tr *tracer, reqs []request, results []reqResult, st *loopStats) {
	type key struct {
		item int
		seed uint64
	}
	first := map[key]distSummary{}
	var order []key
	for i, r := range results {
		it := w.items[reqs[i].item]
		if !r.ok() {
			continue // already counted as failed
		}
		switch it.kind {
		case kindDDL:
			if r.resp.Kind != "created" {
				st.mismatch(fmt.Sprintf("DDL response kind %q", r.resp.Kind))
				st.failed++
			}
		case kindTail:
			if r.resp.Kind != "grouped_tail" {
				st.mismatch(fmt.Sprintf("tail response kind %q", r.resp.Kind))
				st.failed++
			}
		default:
			if r.resp.Dist == nil || (it.kind == kindMC && r.resp.Dist.N != serveReps) {
				st.mismatch(fmt.Sprintf("request %d: missing or short distribution", i))
				st.failed++
				continue
			}
			k := key{reqs[i].item, reqs[i].seed}
			if prev, seen := first[k]; !seen {
				first[k] = *r.resp.Dist
				order = append(order, k)
			} else if prev != *r.resp.Dist {
				st.mismatch(fmt.Sprintf("request %d: (sql %d, seed %d) differs from an earlier response", i, k.item, k.seed))
				st.failed++
			}
		}
	}
	for n, k := range order {
		if n == serveLibraryChecks {
			break
		}
		p, err := w.e.Prepare(w.items[k.item].sql)
		if err != nil {
			st.mismatch(err.Error())
			st.failed++
			continue
		}
		res, err := p.Run(mcdbr.RunOptions{Seed: k.seed, Workers: 1, DegradeOnDeadline: true})
		if err != nil {
			st.mismatch(err.Error())
			st.failed++
			continue
		}
		if finalizeAll(tr, 0, int64(-(n + 1)), [][]float64{res.Dist.Samples})[0] != first[k] {
			st.mismatch(fmt.Sprintf("(sql %d, seed %d): response differs from the library result", k.item, k.seed))
			st.failed++
		}
	}
}

func runServeMix(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var prev *serveWorkload
	w, setup, err := repeatSetup(cfg, func() (*serveWorkload, error) {
		if prev != nil {
			prev.env.close()
		}
		var err error
		prev, err = setupServe(cfg, tr)
		return prev, err
	})
	if err != nil {
		if prev != nil {
			prev.env.close()
		}
		return nil, err
	}
	defer w.env.close()
	events, err := schedule(w.items[:serveTexts], serveRatePerCPU*float64(cfg.workers), cfg.seconds, cfg.seed)
	if err != nil {
		return nil, err
	}
	stratify(events)
	traceEvery := 0
	if tr != nil {
		traceEvery = 2
	}
	reqs, err := buildRequests(w.items, events, traceEvery)
	if err != nil {
		return nil, err
	}
	cpu0 := readCPU()
	a0 := totalAlloc()
	results, lateness := openLoop(w.env, tr, reqs, cfg.workers)
	alloc := totalAlloc() - a0
	gcFrac := gcFracSince(cpu0)

	var st loopStats
	ls := &layerStats{}
	var execRate []float64
	for i, r := range results {
		it := w.items[reqs[i].item]
		samples := 0
		if r.ok() && r.resp.Dist != nil && r.resp.ElapsedMS > 0 {
			samples = r.resp.Dist.N
			execRate = append(execRate, float64(samples)/(r.resp.ElapsedMS/1000))
		}
		if r.err != nil {
			st.mismatch(fmt.Sprintf("request %d: %v", i, r.err))
		} else if r.status != http.StatusOK {
			st.mismatch(fmt.Sprintf("request %d (%s): HTTP %d %s", i, it.sql[:min(len(it.sql), 40)], r.status, r.resp.Error))
		}
		st.addOp(r.latency, 0, samples, r.ok(), serveLimit)
		if tr != nil {
			if reqs[i].traced {
				ls.tracedOpMS = append(ls.tracedOpMS, ms(r.latency))
			} else {
				ls.plainOpMS = append(ls.plainOpMS, ms(r.latency))
			}
		}
	}
	w.verify(tr, reqs, results, &st)
	if tr == nil {
		m := st.endToEnd(setup)
		// In an open loop the wait before a request runs is not throughput:
		// the rate is replicates per second of the server's execution time.
		// Requests overlap, so allocation is only known for the whole run.
		m[mSamplesPS] = metric{median(execRate), "1/s"}
		m[mAllocMB] = metric{float64(alloc) / 1e6 / float64(max(st.attempted, 1)), "MB"}
		return st.outcome(m), nil
	}
	srv, err := measureServeLayer(tr, w.env, results, reqs, lateness, w.items[0].sql, cfg.workers)
	if err != nil {
		return nil, err
	}
	if err := w.probeLayers(cfg, tr, ls, reqs); err != nil {
		return nil, err
	}
	if err := tr.writeFile(cfg.traceOut); err != nil {
		return nil, err
	}
	return st.outcome(layerMetrics(tr, ls, w.e, cfg.workers, gcFrac, srv)), nil
}

// serveLayer holds the server, admission and load-generator metrics of a
// traced run.
type serveLayer struct {
	handlerMS, execMS, transportMS float64
	queueWaitMS, shedFrac          float64
	latenessMS                     float64
}

// measureServeLayer reads the handler and client spans, the responses'
// elapsed_ms and the admission counters of an open loop, then runs an
// admission burst of burstSQL for the queue wait.
func measureServeLayer(tr *tracer, env *serveEnv, results []reqResult, reqs []request, lateness []float64, burstSQL string, workers int) (serveLayer, error) {
	tr.mu.Lock()
	handler := map[int64]float64{} // client span id -> handler duration
	client := map[int64]float64{}
	for _, s := range tr.spans {
		switch s.Name {
		case spanHandler:
			handler[s.Parent] = s.dur()
		case spanRequest:
			client[s.ID] = s.dur()
		}
	}
	tr.mu.Unlock()
	var handlerMS, transportMS, execMS []float64
	for id, c := range client {
		if h, ok := handler[id]; ok {
			handlerMS = append(handlerMS, h/1000)
			transportMS = append(transportMS, (c-h)/1000)
		}
	}
	for i, r := range results {
		if reqs[i].traced && r.ok() {
			execMS = append(execMS, r.resp.ElapsedMS)
		}
	}
	as := env.srv.AdmitStats()
	refused := float64(as.Shed + as.TimedOut)
	wait, err := admissionBurst(env, burstSQL, workers)
	if err != nil {
		return serveLayer{}, err
	}
	return serveLayer{
		handlerMS:   median(handlerMS),
		execMS:      median(execMS),
		transportMS: median(transportMS),
		queueWaitMS: wait,
		shedFrac:    ratio(refused, refused+float64(as.Admitted)),
		latenessMS:  quantile(lateness, 0.9),
	}, nil
}

// admissionBurst calls the service handler in process from 4×nproc
// goroutines at once with a batch-class sql, so that requests wait for
// an execution slot, and returns the batch class's queue-wait p95. The
// open loop cannot show that wait: its client holds at most nproc
// connections, one per slot, so every request it sends is admitted at
// once.
func admissionBurst(env *serveEnv, sql string, workers int) (float64, error) {
	body, err := json.Marshal(server.QueryRequest{SQL: sql, Seed: 1, Priority: "batch"})
	if err != nil {
		return 0, err
	}
	errs := make([]error, 4*workers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			env.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				errs[i] = fmt.Errorf("admission burst: HTTP %d: %s", rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	for _, c := range env.srv.AdmitStats().Classes {
		if c.Class == "batch" {
			return c.WaitP95MS, nil
		}
	}
	return 0, errors.New("admission burst: no batch class in the admission stats")
}

// probeLayers measures the layers the server runs internally: parse and
// plan of the requests' SELECT texts, the window path and sharded driver
// on interactive texts, tail sampling, and VG materialization.
func (w *serveWorkload) probeLayers(cfg config, tr *tracer, ls *layerStats, reqs []request) error {
	vgs := vg.NewRegistry()
	prefix := exec.NewPrefixCache(0)
	limit := 300
	if cfg.short {
		limit = 40
	}
	for i, r := range reqs {
		if i == limit {
			break
		}
		if it := w.items[r.item]; it.kind != kindDDL {
			if _, err := compileStmt(tr, 0, int64(i+1), w.e, vgs, it.sql); err != nil {
				return err
			}
		}
	}
	mc, err := compileStmt(tr, 0, 0, w.e, vgs, w.items[0].sql)
	if err != nil {
		return err
	}
	if err := probeMC(cfg, tr, ls, w.e, prefix, mc, serveReps); err != nil {
		return err
	}
	rows, vgName, err := paramRows(w.e, "Losses", 500)
	if err != nil {
		return err
	}
	for r := 0; r < 3; r++ {
		ns, b, err := materializeProbe(tr, int64(-(r + 1)), vgs, vgName, rows, serveReps, prng.NewStream(opSeed(cfg.seed, r)))
		if err != nil {
			return err
		}
		ls.nsPerDraw = append(ls.nsPerDraw, ns)
		ls.bytesPerDraw = append(ls.bytesPerDraw, b)
	}
	return probeTail(cfg, tr, ls, w.e, prefix, mc, 0.01, 20, 400, 1024)
}

// serveProbe sends sqls round-robin to an in-process server over e at a
// low Poisson rate, every request traced, for the server, admission and
// load-generator metrics of a workload that does not serve.
func serveProbe(cfg config, tr *tracer, e *mcdbr.Engine, sqls []string) (serveLayer, error) {
	env, err := startServer(e, cfg.workers, tr)
	if err != nil {
		return serveLayer{}, err
	}
	defer env.close()
	items := make([]mixItem, len(sqls))
	for i, s := range sqls {
		items[i] = mixItem{sql: s, weight: 1, kind: kindMC}
	}
	events, err := schedule(items, 8, 2, cfg.seed)
	if err != nil {
		return serveLayer{}, err
	}
	reqs, err := buildRequests(items, events, 1)
	if err != nil {
		return serveLayer{}, err
	}
	results, lateness := openLoop(env, tr, reqs, cfg.workers)
	for i, r := range results {
		if !r.ok() {
			return serveLayer{}, fmt.Errorf("serve probe request %d: status %d, %v %s", i, r.status, r.err, r.resp.Error)
		}
	}
	return measureServeLayer(tr, env, results, reqs, lateness, sqls[0], cfg.workers)
}
