package server

// Serving-hardening tests (ISSUE 9): overload shedding, queue-wait
// budgets, deadline degradation, prompt shutdown of queued requests, and
// the -race storm that proves no execution slot leaks under mixed
// admitted/queued/shed/cancelled traffic.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// slowSQL runs long enough to hold a slot while the test probes the
// server from outside (cancelled or deadlined, never left to finish).
const slowSQL = `SELECT SUM(val) AS totalLoss FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(5000000)`

// degradeSQL cannot converge before MaxSamples, so a short deadline
// always fires mid-run with at least one round complete.
const degradeSQL = `SELECT SUM(val) AS totalLoss FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.0000001 AT 95%, MAX 100000000)`

// occupy starts queries that pin all execution slots and returns a cancel
// that releases them. It waits until the controller reports them in flight.
func occupy(t *testing.T, s *Server, url string, n int) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		b, _ := json.Marshal(QueryRequest{SQL: slowSQL})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/query", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.AdmitStats().InFlight < n {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("slow queries never occupied the slots")
		}
		time.Sleep(time.Millisecond)
	}
	return cancel
}

// TestServerShedsWith429: with the queue disabled, a request beyond
// MaxConcurrent is shed immediately with 429 and a Retry-After hint
// instead of queueing unboundedly.
func TestServerShedsWith429(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 1, MaxQueue: -1, QueueWait: 3 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := occupy(t, s, ts.URL, 1)
	defer release()

	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: mcSQL})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want the queue-wait ceiling", ra)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("shed body = %s", body)
	}
	if st := s.AdmitStats(); st.Shed != 1 {
		t.Fatalf("shed counter = %+v", st)
	}
}

// TestServerAdmitsBeforeParsing: streaming queries and EXPLAIN pass
// admission like plain queries, before their SQL is parsed — with every
// slot held and no queue, each is shed with 429 and Retry-After, even
// when its SQL would not parse.
func TestServerAdmitsBeforeParsing(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 1, MaxQueue: -1, QueueWait: 3 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := occupy(t, s, ts.URL, 1)
	defer release()

	deep := `SELECT SUM(` + strings.Repeat("(", 400000) + "val" + strings.Repeat(")", 400000) + `) FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(10)`
	for _, c := range []struct {
		path string
		body any
	}{
		{"/query?stream=1", QueryRequest{SQL: mcSQL}},
		{"/query?stream=1", QueryRequest{SQL: deep}},
		{"/query?stream=1", QueryRequest{SQL: "SELECT SUM(val FROM Losses"}},
		{"/explain", ExplainRequest{SQL: mcSQL}},
		{"/explain", ExplainRequest{SQL: deep}},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status = %d: %s", c.path, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "3" {
			t.Fatalf("%s: Retry-After = %q", c.path, ra)
		}
	}
	if st := s.AdmitStats(); st.Shed != 5 {
		t.Fatalf("shed counter = %+v", st)
	}
}

// TestServeHTTPTimeouts: the listener Serve runs bounds how long a client
// may take to send headers and how long an idle connection stays open.
func TestServeHTTPTimeouts(t *testing.T) {
	hs := New(testEngine(t), Options{}).httpServer("127.0.0.1:0")
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
}

// TestServerQueueWait429: a queued request that outlives the queue-wait
// budget is shed with 429 rather than waiting forever.
func TestServerQueueWait429(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 1, MaxQueue: 4, QueueWait: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := occupy(t, s, ts.URL, 1)
	defer release()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: mcSQL})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("shed after %s, budget was 50ms", waited)
	}
	if st := s.AdmitStats(); st.TimedOut != 1 {
		t.Fatalf("timed_out counter = %+v", st)
	}
}

// TestServerBudgetValidation: bad per-request budgets are 400s before
// admission.
func TestServerBudgetValidation(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 2, MaxSamplesCap: 1000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []QueryRequest{
		{SQL: mcSQL, Priority: "urgent"},
		{SQL: mcSQL, DeadlineMS: -1},
		{SQL: mcSQL, MaxBytes: -1},
		{SQL: mcSQL, Samples: 2000}, // fixed-N above the cap: rejected, not clamped
	}
	for i, req := range cases {
		resp, body := postJSON(t, ts.URL+"/query", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status = %d: %s", i, resp.StatusCode, body)
		}
	}
	// An adaptive max_samples above the cap is clamped, not rejected: the
	// run stops at the cap and reports it.
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: degradeSQL, MaxSamples: 1 << 30})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adaptive clamp = %d: %s", resp.StatusCode, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Adaptive == nil || q.Adaptive.MaxSamples != 1000 || q.Adaptive.SamplesUsed > 1000 {
		t.Fatalf("adaptive budget not clamped: %+v", q.Adaptive)
	}
	// Priorities are accepted end to end.
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: mcSQL, Priority: "interactive"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive query = %d: %s", resp.StatusCode, body)
	}
}

// TestServerDeadlineDegrades: an adaptive query whose server-imposed
// deadline fires mid-run returns 200 with degraded: true and a usable
// partial CI; opting out (or running fixed-N) turns the deadline into 504.
func TestServerDeadlineDegrades(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 2, DefaultDeadline: 150 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: degradeSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degradable query = %d: %s", resp.StatusCode, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if !q.Degraded || q.Adaptive == nil || !q.Adaptive.Degraded {
		t.Fatalf("response not degraded: %s", body)
	}
	if q.Adaptive.SamplesUsed == 0 || len(q.Adaptive.CIs) != 1 || q.Adaptive.CIs[0].HalfWidth <= 0 {
		t.Fatalf("degraded response lacks a partial estimate: %s", body)
	}
	if q.Dist == nil || q.Dist.N != q.Adaptive.SamplesUsed {
		t.Fatalf("degraded dist = %+v, adaptive = %+v", q.Dist, q.Adaptive)
	}
	if st := s.AdmitStats(); st.Degraded != 1 {
		t.Fatalf("degraded counter = %+v", st)
	}

	// Opting out makes the deadline a hard 504.
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: degradeSQL, NoDegrade: true})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("no_degrade = %d: %s", resp.StatusCode, body)
	}
	// Fixed-N keeps the strict contract: deadline is always 504.
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: slowSQL})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("fixed-N deadline = %d: %s", resp.StatusCode, body)
	}
	// A per-request deadline longer than the server cap is clamped: still 504.
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: slowSQL, DeadlineMS: 60000})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("clamped deadline = %d: %s", resp.StatusCode, body)
	}
}

// TestServeShutdownDrainsQueued is the satellite-1 regression test: a
// request parked in the admission queue when shutdown begins must be
// rejected promptly with 503, not hang until the grace timeout.
func TestServeShutdownDrainsQueued(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	s := New(testEngine(t), Options{MaxConcurrent: 1, MaxQueue: 4, QueueWait: time.Minute})
	ctx, cancelServe := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, addr, 30*time.Second) }()
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r, err := http.Get(base + "/healthz"); err == nil {
			r.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	release := occupy(t, s, base, 1)
	defer release()

	// Park one request in the queue.
	type result struct {
		status int
		err    error
	}
	queued := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(QueryRequest{SQL: mcSQL})
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(b))
		if err != nil {
			queued <- result{err: err}
			return
		}
		resp.Body.Close()
		queued <- result{status: resp.StatusCode}
	}()
	deadline = time.Now().Add(10 * time.Second)
	for s.AdmitStats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	cancelServe()
	select {
	case r := <-queued:
		if r.err != nil {
			t.Fatalf("queued request failed at transport level: %v", r.err)
		}
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("queued request got %d, want 503", r.status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request hung through shutdown (the pre-admit drain bug)")
	}

	// Release the in-flight query so Serve can finish its graceful exit.
	release()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}

// sseDisconnect starts a streaming query and drops the connection after
// the first progress event.
func sseDisconnect(t *testing.T, url string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, _ := json.Marshal(QueryRequest{SQL: degradeSQL})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/query?stream=1", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return // shed or shutdown race: nothing to disconnect from
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), []byte("event: progress")) {
			return // deferred cancel drops the stream mid-flight
		}
	}
}

// TestServerHammerNoSlotLeak is the satellite-3 storm, run under -race in
// CI: concurrent clients mixing fast queries, slow queries cancelled
// mid-run, requests cancelled while queued, shed requests, and SSE
// streams dropped mid-flight. Afterwards the admission counters must
// balance and full capacity must be immediately reusable.
func TestServerHammerNoSlotLeak(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 2, MaxQueue: 4, QueueWait: 40 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	priorities := []string{"", "interactive", "normal", "batch"}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 8; i++ {
				switch rng.Intn(4) {
				case 0: // fast query, should usually succeed or shed
					resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{
						SQL: mcSQL, Priority: priorities[rng.Intn(len(priorities))],
					})
					switch resp.StatusCode {
					case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
					default:
						t.Errorf("fast query status %d", resp.StatusCode)
					}
				case 1: // slow query cancelled mid-run
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(5+rng.Intn(30))*time.Millisecond)
					b, _ := json.Marshal(QueryRequest{SQL: slowSQL})
					req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(b))
					req.Header.Set("Content-Type", "application/json")
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
					cancel()
				case 2: // cancelled while (possibly) queued
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(5))*time.Millisecond)
					b, _ := json.Marshal(QueryRequest{SQL: mcSQL})
					req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(b))
					req.Header.Set("Content-Type", "application/json")
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
					cancel()
				case 3: // SSE stream dropped mid-flight
					sseDisconnect(t, ts.URL)
				}
			}
		}(g)
	}
	wg.Wait()

	// Cancelled runs release their slots asynchronously at the next unit
	// of work; wait for the controller to settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.AdmitStats()
		if st.InFlight == 0 && st.QueueDepth == 0 {
			if st.Admitted != st.Completed {
				t.Fatalf("admitted %d != completed %d (leaked slot): %+v", st.Admitted, st.Completed, st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never settled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Full capacity must be immediately usable: MaxConcurrent parallel
	// queries all succeed with an empty queue.
	var wg2 sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: mcSQL})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("post-storm query = %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg2.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
