package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/telemetry"
)

// minTail is how many samples must lie beyond a percentile before it
// is reported: fewer make the tail an anecdote, not a measurement.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// raw samples: the smallest sample with at least q·n samples at or
// below it. It refuses when fewer than minTail samples lie beyond
// that rank. samples are sorted in place.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g of %d samples: undefined", q, n)
	}
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("percentile %g of %d samples: %d beyond it, want >= %d", q, n, beyond, minTail)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median is the middle sample, or the mean of the two middle samples
// of an even count, with no tail rule (a median always has half the
// samples beyond it); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean; 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// clients is the closed- and open-loop concurrency: one client (and
// one HTTP connection) per CPU, at most two.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// request issues stream request seq; the load loops time it.
type request func(ctx context.Context, seq uint64) bool

// closedLoop runs clients() workers back to back for d, each taking
// the next stream sequence number, from base up, as soon as its
// previous request returns. It returns the completed request count and
// the wall time they took.
func closedLoop(ctx context.Context, d time.Duration, base uint64, do request) (int64, time.Duration) {
	var seq atomic.Uint64
	seq.Store(base)
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(ctx, seq.Add(1)-1)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return done.Load(), time.Since(start)
}

// openLoop schedules n requests on a fixed grid at rate per second
// and serves them with clients() workers, each taking the next request
// as soon as it is free and sleeping until that request falls due. A
// request that found every worker busy at its due time waited in the
// queue, and is timed from its due time: a stall is charged to every
// request queued behind it. A request whose worker was free is timed
// from its actual send, so the generator's own timer slack (sleeps
// here wake up to a millisecond late) is not charged to the program.
// Lateness is how far behind the grid each request was sent, for
// either reason. Request i asks stream sequence base+i. Once ctx is
// done nothing further is sent; those requests are counted as skipped
// and left out of the samples.
func openLoop(ctx context.Context, rate float64, n int, base uint64, do request) (lat, late []float64, skipped int) {
	lats := make([]float64, n)
	lates := make([]float64, n)
	sent := make([]bool, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				begin := time.Now()
				do(ctx, base+uint64(i))
				end := time.Now()
				from := begin
				if free.After(due) {
					from = due
				}
				lats[i] = end.Sub(from).Seconds()
				lates[i] = begin.Sub(due).Seconds()
				sent[i] = true
				free = end
			}
		}()
	}
	wg.Wait()
	for i := range sent {
		if !sent[i] {
			skipped++
			continue
		}
		lat = append(lat, lats[i])
		late = append(late, lates[i])
	}
	return lat, late, skipped
}

// heapWatcher tracks the peak of the runtime's live-heap metric
// (/gc/heap/live:bytes, the heap marked live by the latest GC) — the
// memory the program actually retains, unlike HeapAlloc, which also
// counts garbage not yet collected and so depends on GC timing.
type heapWatcher struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapWatcher() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *heapWatcher) sample() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// close stops the watcher, once, and returns the peak in bytes.
func (w *heapWatcher) close() uint64 {
	w.once.Do(func() {
		close(w.stop)
		<-w.done
		w.sample()
	})
	return w.peak.Load()
}

// counters is a snapshot of the program's own telemetry registry:
// counter and gauge values by family name (children summed), and
// histogram sums by "family{label}".
type counters struct {
	value   map[string]float64
	histSum map[string]float64
}

func readCounters() counters {
	c := counters{value: map[string]float64{}, histSum: map[string]float64{}}
	for _, fam := range telemetry.Default().Gather() {
		for _, s := range fam.Samples {
			if s.Hist != nil {
				key := fam.Name + "{" + strings.Join(s.LabelValues, ",") + "}"
				c.histSum[key] += s.Hist.Sum
				continue
			}
			c.value[fam.Name] += s.Value
		}
	}
	return c
}

// delta returns after-minus-before of every value and histogram sum.
func (c counters) delta(before counters) counters {
	sub := func(a, b map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(a))
		for k, v := range a {
			out[k] = v - b[k]
		}
		return out
	}
	return counters{
		value:   sub(c.value, before.value),
		histSum: sub(c.histSum, before.histSum),
	}
}

// runtimeStats is the allocation and GC state of the process.
type runtimeStats struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	pauseNs             uint64
}

// sub returns the counts accumulated since before.
func (r runtimeStats) sub(before runtimeStats) runtimeStats {
	return runtimeStats{
		mallocs:    r.mallocs - before.mallocs,
		totalAlloc: r.totalAlloc - before.totalAlloc,
		numGC:      r.numGC - before.numGC,
		pauseNs:    r.pauseNs - before.pauseNs,
	}
}

// add accumulates another interval's counts.
func (r *runtimeStats) add(d runtimeStats) {
	r.mallocs += d.mallocs
	r.totalAlloc += d.totalAlloc
	r.numGC += d.numGC
	r.pauseNs += d.pauseNs
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}
