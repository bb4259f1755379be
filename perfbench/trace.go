package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"expertfind/internal/core"
)

// tracedRequests is the traced replay's length: enough requests for a
// p99 with ten samples beyond it.
const tracedRequests = 1000

// overheadRequests is how many of those requests are first replayed
// untraced, the twin the tracing overhead is measured against.
const overheadRequests = 300

// span is one recorded interval of the traced replay: a call into a
// layer's public function, or the request that groups them.
type span struct {
	RID    string  `json:"rid"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Detail string  `json:"detail,omitempty"`
}

// recorder keeps the replay's spans in memory until the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

// add records a finished span and returns its id.
func (r *recorder) add(rid string, parent int, name string, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		RID: rid, ID: id, Parent: parent, Name: name,
		Start: float64(start.Sub(r.origin).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(r.origin).Nanoseconds()) / 1e3,
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (r *recorder) open(rid string, parent int, name string, start time.Time) int {
	return r.add(rid, parent, name, start, start)
}

func (r *recorder) close(id int, end time.Time) {
	r.spans[id-1].End = float64(end.Sub(r.origin).Nanoseconds()) / 1e3
}

// selfTimes returns each span's self time in microseconds: its
// duration minus the part covered by its children.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// layerUS collects the traced replay's per-request durations, in
// microseconds, by layer.
type layerUS struct {
	entry, entryHit                  []float64
	status                           []string // cache disposition per request
	analyze, score, matches, rank    []float64
	httpOverhead, unattributed       []float64
	matchTotal, entryTotal           float64
	keptMatches, scoredDocs, experts float64
}

func since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// traced is the per-layer run. It turns the untraced phases' counter
// deltas into per-find figures, then replays the open loop's request
// stream one request at a time with every layer call timed as a span:
// the workload's user-facing call first, then (unless that call was
// answered from the cache) the same need through the layers' public
// functions — Pipeline.AnalyzeNeed, Searcher.Score, Finder.Matches,
// Finder.RankFromMatches — whose composed answer must equal the
// user-facing one.
func (b *bench) traced(ctx context.Context, e *env, ph *phase) error {
	b.phaseLayers(e, ph)

	var stop func()
	if e.ingest != nil {
		stop = e.ingest.start(ctx, ingestInterval, math.MaxInt)
	}
	// The untraced twin: the first overheadRequests needs through the
	// user-facing call, with nothing around it but the clock.
	untraced := make([]float64, overheadRequests)
	twinStatus := make([]string, overheadRequests)
	for i := range untraced {
		need := b.stream.Need(openBase + uint64(i))
		t0 := time.Now()
		rep, status, err := e.find(ctx, need)
		untraced[i] = since(t0)
		twinStatus[i] = status
		b.check(e, need, rep, err)
	}

	finder := e.sys.CoreFinder()
	pipe := finder.Pipeline()
	ix := finder.Index()
	alpha := b.params.EffectiveAlpha()
	rec := &recorder{origin: time.Now()}
	var l layerUS
	for i := 0; i < tracedRequests; i++ {
		seq := openBase + uint64(i)
		need := b.stream.Need(seq)
		rid := fmt.Sprintf("r%d", seq)
		t0 := time.Now()
		root := rec.open(rid, 0, "request", t0)

		rep, status, err := e.find(ctx, need)
		t1 := time.Now()
		entry := rec.add(rid, root, e.entryName, t0, t1)
		rec.spans[entry-1].Detail = status
		got, derr := rep.ranking()
		b.check(e, need, rep, err)
		entryUS := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		l.entry = append(l.entry, entryUS)
		l.status = append(l.status, status)
		l.entryTotal += entryUS
		if status == string(core.CacheHit) {
			l.entryHit = append(l.entryHit, entryUS)
			rec.close(root, time.Now())
			continue
		}
		attributed := 0.0
		if e.overHTTP {
			// The in-process twin of the HTTP call: what HTTP adds is
			// the difference.
			p0 := time.Now()
			_, _, _ = e.sys.FindCachedContext(ctx, need)
			inproc := since(p0)
			rec.add(rid, root, "System.FindContext", p0, time.Now())
			l.httpOverhead = append(l.httpOverhead, entryUS-inproc)
			attributed += entryUS - inproc
		}

		g0 := time.Now()
		group := rec.open(rid, root, "layers", g0)
		a0 := time.Now()
		a := pipe.AnalyzeNeed(need)
		l.analyze = append(l.analyze, since(a0))
		rec.add(rid, group, "Pipeline.AnalyzeNeed", a0, time.Now())

		s0 := time.Now()
		scored := ix.Score(a, alpha)
		l.score = append(l.score, since(s0))
		rec.add(rid, group, "Searcher.Score", s0, time.Now())

		m0 := time.Now()
		matches := finder.Matches(a, b.params)
		matchUS := since(m0)
		l.matches = append(l.matches, matchUS)
		l.matchTotal += matchUS
		rec.add(rid, group, "Finder.Matches", m0, time.Now())

		r0 := time.Now()
		ranked := finder.RankFromMatches(matches, b.params)
		l.rank = append(l.rank, since(r0))
		end := time.Now()
		rec.add(rid, group, "Finder.RankFromMatches", r0, end)
		rec.close(group, end)
		rec.close(root, end)

		kept := b.params.WindowFor(len(matches))
		if kept > len(matches) {
			kept = len(matches)
		}
		l.keptMatches += float64(kept)
		l.scoredDocs += float64(len(scored))
		l.experts += float64(len(ranked))
		n := len(l.analyze) - 1
		attributed += l.analyze[n] + l.matches[n] + l.rank[n]
		l.unattributed = append(l.unattributed, entryUS-attributed)
		if e.exact {
			// The layer calls, composed, must give the user-facing answer.
			b.tally.record(err == nil && derr == nil && sameRanking(named(finder.Graph(), ranked), got))
		}
	}
	if stop != nil {
		stop()
	}

	b.traceLayers(e, &l, untraced, twinStatus)
	b.traverseLayers(e)
	if e.ingest != nil {
		b.ingestLayers(e)
	}
	return b.writeSpans(rec, e)
}

// phaseLayers turns the untraced phases' counter deltas into the
// per-find metrics of the index, stage, cache, runtime and load
// generator layers.
func (b *bench) phaseLayers(e *env, ph *phase) {
	finds := float64(ph.finds)
	c := ph.counters
	for _, st := range []string{"analyze", "traverse", "index_match", "aggregate_rank"} {
		sum := c.histSum["expertfind_pipeline_stage_duration_seconds{"+st+"}"]
		b.layer["stage."+st+"_ms_per_find"] = sum * 1e3 / finds
	}
	b.layer["index.postings_per_find"] = c.value["expertfind_index_postings_scored_total"] / finds
	b.layer["index.matches_per_find"] = c.value["expertfind_index_matches_total"] / finds
	b.layer["index.blocks_skipped"] = c.value["expertfind_index_blocks_skipped_total"]
	b.layer["index.pruned_docs"] = c.value["expertfind_index_pruned_docs_total"]
	b.layer["traverse.rebuilds"] = c.value["expertfind_traversal_cache_misses_total"]
	b.layer["go.gc_cycles"] = float64(ph.gc.numGC)
	b.layer["go.gc_pause_ms"] = float64(ph.gc.pauseNs) / 1e6
	b.layer["loadgen.late_ms_p99"] = b.tail("loadgen.late_ms_p99", ph.late) * 1e3
	b.layer["find_p50_ms"] = median(ph.lat) * 1e3
	b.layer["find_p99_ms"] = b.tail("find_p99_ms", ph.lat) * 1e3
	b.layer["kb_per_find"] = float64(ph.openAlloc.totalAlloc) / 1024 / float64(len(ph.lat))
	b.layer["cache.hit_ratio"] = float64(ph.cache["hit"]) / finds
	if n := e.httpResponses.Load(); n > 0 {
		b.layer["http.response_bytes"] = float64(e.httpBytes.Load()) / float64(n)
	}
}

// traceLayers reduces the replay's per-request durations.
func (b *bench) traceLayers(e *env, l *layerUS, untraced []float64, twinStatus []string) {
	b.layer["analysis.need_us"] = mean(l.analyze)
	b.layer["rank.us"] = mean(l.rank)
	filter := make([]float64, len(l.matches))
	for i := range l.matches {
		filter[i] = l.matches[i] - l.score[i]
	}
	b.layer["index.filter_us"] = mean(filter)
	b.layer["index.score_us_p50"] = median(l.score)
	b.layer["index.score_us_p99"] = b.tail("index.score_us_p99", l.score)
	if l.scoredDocs > 0 {
		b.layer["index.window_yield"] = l.keptMatches / l.scoredDocs
	}
	if n := float64(len(l.rank)); n > 0 {
		b.layer["rank.experts_per_find"] = l.experts / n
	}
	if len(l.httpOverhead) > 0 {
		b.layer["http.overhead_us_p50"] = median(l.httpOverhead)
		b.layer["http.overhead_us_p99"] = b.tail("http.overhead_us_p99", l.httpOverhead)
	}
	b.layer["cache.hit_us"] = median(l.entryHit)
	b.layer["trace.entry_us"] = mean(l.entry)
	b.layer["trace.entry_us_p99"] = b.tail("trace.entry_us_p99", l.entry)
	// Cache hits are wholly the cache layer's: nothing unattributed.
	b.layer["trace.unattributed_us"] = sumOf(l.unattributed) / float64(len(l.entry))
	if l.entryTotal > 0 {
		b.layer["trace.index_share_pct"] = 100 * l.matchTotal / l.entryTotal
	}
	// Only requests the cache answered alike in both passes are
	// compared: live ingest purges the cache at times of its own, and a
	// hit against a miss would measure the cache, not the tracing.
	var traced, twin float64
	for i, us := range untraced {
		if i < len(l.entry) && l.status[i] == twinStatus[i] {
			traced += l.entry[i]
			twin += us
		}
	}
	if twin > 0 {
		b.layer["trace.overhead_pct"] = 100 * (traced/twin - 1)
	}
	b.logf("traced %d requests (%d cache hits): entry %.1f us, analyze %.1f, score %.1f, filter %.1f, rank %.1f, unattributed %.1f us per request; index %.1f%% of entry time",
		len(l.entry), len(l.entryHit), mean(l.entry), mean(l.analyze), mean(l.score), mean(filter), mean(l.rank),
		b.layer["trace.unattributed_us"], b.layer["trace.index_share_pct"])
}

// tail is the p99 of a per-layer sample, or 0 (logged) when the
// sample is too small to have ten values beyond its p99.
func (b *bench) tail(name string, samples []float64) float64 {
	v, err := percentile(append([]float64(nil), samples...), 0.99)
	if err != nil {
		b.logf("%s not measured: %v", name, err)
		return 0
	}
	return v
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// traverseLayers times the reachability build the finder caches per
// traversal configuration: Graph.ResourceCandidateMap over the
// candidate pool under the default traversal, median of three.
func (b *bench) traverseLayers(e *env) {
	finder := e.sys.CoreFinder()
	cands := finder.Candidates()
	var ms []float64
	reach := 0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		rcm := finder.Graph().ResourceCandidateMap(cands, b.params.Traversal)
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		reach = len(rcm)
	}
	b.layer["traverse.rebuild_ms"] = median(ms)
	b.layer["traverse.reach_resources"] = float64(reach)
}

// ingestLayers reduces the ingest rounds: wall time per RunOnce,
// the Ingester's own per-stage round spans, and what each delta did
// to the cache.
func (b *bench) ingestLayers(e *env) {
	rounds, _ := e.ingest.samples()
	if len(rounds) == 0 {
		b.logf("no ingest round completed")
		return
	}
	var wall []float64
	docs, dropped, purges := 0.0, 0.0, 0.0
	for _, r := range rounds {
		wall = append(wall, float64(r.wall.Nanoseconds())/1e6)
		docs += float64(r.rep.Adds + r.rep.Updates + r.rep.Removes)
		dropped += float64(r.rep.CacheDropped)
		if r.rep.FullPurge {
			purges++
		}
	}
	n := float64(len(rounds))
	b.layer["ingest.round_ms"] = median(wall)
	b.layer["ingest.delta_docs"] = docs / n
	b.layer["cache.dropped_per_round"] = dropped / n
	b.layer["cache.full_purges"] = purges
	stage := map[string][]float64{}
	for _, t := range e.ingest.tracer.Recent(len(rounds) + 8) {
		for _, s := range t.Spans {
			stage[s.Name] = append(stage[s.Name], float64(s.DurationUS)/1e3)
		}
	}
	for _, st := range []string{"fetch", "diff", "apply", "invalidate"} {
		b.layer["ingest."+st+"_ms"] = mean(stage["ingest_"+st])
	}
}

// writeSpans writes the replay's spans, plus the Ingester's own round
// spans when the workload ingests, as JSON lines, and prints each
// span name's mean self time.
func (b *bench) writeSpans(rec *recorder, e *env) error {
	spans := rec.spans
	if e.ingest != nil {
		for _, t := range e.ingest.tracer.Recent(1024) {
			base := float64(t.Start.Sub(rec.origin).Nanoseconds()) / 1e3
			first := len(spans) + 1
			spans = append(spans, span{RID: "ingest:" + t.ID, ID: first, Name: t.Name, Start: base, End: base + float64(t.DurationUS)})
			ids := map[string]int{}
			for _, s := range t.Spans {
				parent := first
				if p, ok := ids[s.Parent]; ok {
					parent = p
				}
				start := base + float64(s.StartOffsetUS)
				spans = append(spans, span{RID: "ingest:" + t.ID, ID: len(spans) + 1, Parent: parent, Name: s.Name, Start: start, End: start + float64(s.DurationUS)})
				ids[s.ID] = len(spans)
			}
		}
	}

	self := selfTimes(spans)
	type agg struct {
		n   int
		sum float64
	}
	byName := map[string]*agg{}
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.sum += self[i]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.logf("self time %-26s %6d spans, mean %10.1f us", n, byName[n].n, byName[n].sum/float64(byName[n].n))
	}

	if err := os.MkdirAll(b.o.traceOut, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.o.traceOut, fmt.Sprintf("%s-seed%d.spans.jsonl", b.w.name, b.o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.logf("wrote %d spans to %s", len(spans), path)
	return nil
}
