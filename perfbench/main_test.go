package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/mcdbr"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d: command has (%q, %q), BENCHMARK.json (%q, %q)", i, workloads[i].name, workloads[i].why, w.Name, w.Why)
		}
	}
}

// TestShortRunsEmitEveryMetric runs each workload briefly, untraced and
// traced, and checks that the last output line names every metric of
// BENCHMARK.json with its unit and reports a correct run.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--short",
					"--trace-out", filepath.Join(t.TempDir(), "spans.jsonl")}
				if code := realMain(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestPerturbedSampleIsCaught corrupts one sample of a correct result and
// checks that each workload's output check rejects it.
func TestPerturbedSampleIsCaught(t *testing.T) {
	cfg := config{seed: 4, workers: 2, short: true}

	t.Run("mc-grouped", func(t *testing.T) {
		w, err := setupMC(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.prepared[0].Run(mcdbr.RunOptions{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		good := fromExec(res)
		if msg := w.check(0, good, mcReps); msg != "" {
			t.Fatalf("correct result rejected: %s", msg)
		}
		bad := fromExec(res)
		bad[0].aggs[0] = append([]float64(nil), bad[0].aggs[0]...)
		bad[0].aggs[0][7] += 1e-9 // below any statistical check
		if sameResults(good, bad) {
			t.Fatal("bit-identity check missed a perturbed sample")
		}
		bad[0].aggs[0][7] += 1e6
		if msg := w.check(0, bad, mcReps); msg == "" {
			t.Fatal("mean check missed a perturbed sample")
		}
	})

	t.Run("tail-tpch", func(t *testing.T) {
		w, err := setupTPCH(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.prepared.Run(mcdbr.RunOptions{Seed: 9, Tail: w.tailOptions(0)})
		if err != nil {
			t.Fatal(err)
		}
		q, samples := res.Tail.QuantileEstimate, append([]float64(nil), res.Tail.Samples...)
		if msg := w.check(q, samples); msg != "" {
			t.Fatalf("correct result rejected: %s", msg)
		}
		samples[3] = q - 1e-6
		if msg := w.check(q, samples); msg == "" {
			t.Fatal("tail check missed a sample below the quantile estimate")
		}
	})

	t.Run("serve-mix", func(t *testing.T) {
		w, err := setupServe(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.env.close()
		events, err := schedule(w.items[:serveTexts], 20, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := buildRequests(w.items, events[:3], 0)
		if err != nil {
			t.Fatal(err)
		}
		results, _ := openLoop(w.env, nil, reqs, cfg.workers)
		var st loopStats
		w.verify(nil, reqs, results, &st)
		if st.failed != 0 {
			t.Fatalf("correct responses rejected: %v", st.mismatches)
		}
		for i := range results {
			if !results[i].ok() || results[i].resp.Dist == nil {
				t.Fatalf("request %d: status %d %v", i, results[i].status, results[i].err)
			}
		}
		d := *results[0].resp.Dist
		d.Max = d.Max * (1 + 1e-12) // one perturbed sample, the largest
		results[0].resp.Dist = &d
		st = loopStats{}
		w.verify(nil, reqs, results, &st)
		if st.failed == 0 {
			t.Fatal("serve check missed a perturbed response")
		}
	})
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := []float64{50, 25, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
}
