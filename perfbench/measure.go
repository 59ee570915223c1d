package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// Metric names shared by the workloads. End-to-end metrics come from the
// untraced run, per-layer metrics from the traced one.
const (
	mSetup     = "setup_s"
	mLatP50    = "latency_ms_p50"
	mLatP90    = "latency_ms_p90"
	mSamplesPS = "samples_per_s"
	mAllocMB   = "alloc_mb_per_op"
	mOnTime    = "on_time_frac"
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median, which keeps one slow build from moving the metric.
func setupReps(cfg config) int {
	if cfg.short {
		return 2
	}
	return 21
}

// repeatSetup builds a workload's set-up setupReps times, each after a
// GC so that earlier garbage is not collected inside the timing, and
// returns the last build with the median build time in seconds.
func repeatSetup[T any](cfg config, build func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	for r := 0; r < setupReps(cfg); r++ {
		runtime.GC()
		t0 := time.Now()
		w, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = w
	}
	return last, median(secs), nil
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opSeed derives the per-op Monte Carlo seed from the workload seed
// (splitmix64 finalizer); never 0, which the engine reads as "default".
func opSeed(base uint64, i int) uint64 {
	z := base + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// totalAlloc reads runtime.MemStats.TotalAlloc: cumulative heap bytes
// allocated, which repeats from run to run where peak heap does not.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// cpuClock is a runtime/metrics reading of GC and total CPU time.
type cpuClock struct{ gc, total float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuClock
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// gcFracSince is the share of CPU time spent in GC since start.
func gcFracSince(start cpuClock) float64 {
	runtime.GC() // flushes the GC CPU accounting of the last cycle
	now := readCPU()
	if d := now.total - start.total; d > 0 {
		return (now.gc - start.gc) / d
	}
	return 0
}

// loopStats accumulates a run's per-op measurements.
type loopStats struct {
	latMS []float64
	// allocMB holds per-op heap allocation; rate holds each successful
	// op's replicates per second.
	allocMB, rate []float64
	onTime        int
	attempted     int
	failed        int
	mismatches    []string
}

// addOp records one timed op; alloc is its heap allocation in bytes.
func (s *loopStats) addOp(d time.Duration, alloc uint64, samples int, ok bool, limit time.Duration) {
	s.attempted++
	s.latMS = append(s.latMS, ms(d))
	s.allocMB = append(s.allocMB, float64(alloc)/1e6)
	if !ok {
		s.failed++
		return
	}
	if d > 0 {
		s.rate = append(s.rate, float64(samples)/d.Seconds())
	}
	if d <= limit {
		s.onTime++
	}
}

// mismatch records a failed output check; only the first few are kept
// verbatim.
func (s *loopStats) mismatch(msg string) {
	if len(s.mismatches) < 5 {
		s.mismatches = append(s.mismatches, msg)
	}
}

// endToEnd turns a run into the end-to-end metric set. Throughput and
// allocation are per-op medians: tail-sampling ops vary tenfold in cost
// with their replenishment count, which makes run means unsteady.
func (s *loopStats) endToEnd(setup float64) map[string]metric {
	return map[string]metric{
		mSetup:     {setup, "s"},
		mLatP50:    {quantile(s.latMS, 0.5), "ms"},
		mLatP90:    {quantile(s.latMS, 0.9), "ms"},
		mSamplesPS: {median(s.rate), "1/s"},
		mAllocMB:   {median(s.allocMB), "MB"},
		mOnTime:    {float64(s.onTime) / float64(max(s.attempted, 1)), "ratio"},
	}
}

func (s *loopStats) outcome(metrics map[string]metric) *outcome {
	return &outcome{
		attempted:  s.attempted,
		failed:     s.failed,
		mismatches: s.mismatches,
		metrics:    metrics,
		errorFrac:  float64(s.failed) / float64(max(s.attempted, 1)),
	}
}

// sameBits reports whether two sample vectors are bit-for-bit identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// meanOf is the arithmetic mean of xs.
func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
