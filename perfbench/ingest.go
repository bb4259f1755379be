package main

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"time"

	"expertfind"
	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/faults"
	"expertfind/internal/ingest"
	"expertfind/internal/rescache"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// ingestInterval is the fixed spacing of live-ingest rounds, the
// serve -ingest-interval loop compressed into a benchmark run.
const ingestInterval = 400 * time.Millisecond

// ingestLead is how far into a timed window its first ingest round
// starts, so that the round lands beside reads already in flight.
const ingestLead = 100 * time.Millisecond

// churnOps is the per-round operation count: update-only rounds edit
// this many resources; mixed rounds add, update and remove this many
// each.
const churnOps = 8

// churner is mem-ingest's write side: a remote twin of the installed
// corpus, evolved every ingestInterval and re-crawled by an Ingester.
// Rounds alternate between update-only deltas that keep every
// document frequency fixed (scoped cache invalidation) and mixed
// add/update/remove deltas that move them (a full cache purge).
type churner struct {
	cache *rescache.Cache
	scale float64

	remote *dataset.Dataset
	ing    *ingest.Ingester
	tracer *telemetry.Tracer
	pipe   *analysis.Pipeline
	mixed  *ingest.Churn
	cursor int
	next   int

	mu     sync.Mutex
	rounds []roundSample
	errs   []error
}

// roundSample is one completed ingest round.
type roundSample struct {
	rep  ingest.RoundReport
	wall time.Duration
}

// attach generates the remote twin — the same generator config, so it
// starts as a same-ID replica of the installed corpus — and wires an
// Ingester onto the system. It runs after set-up and is not part of
// the set-up time.
func (c *churner) attach(sys *expertfind.System, seed int64) error {
	c.remote = dataset.Generate(dataset.Config{Seed: corpusSeed, Scale: c.scale})
	c.tracer = telemetry.NewTracer(1024)
	ing, err := sys.NewIngester(ingest.Config{
		API:    faults.Wrap(c.remote.Graph, faults.Config{}),
		Cache:  c.cache,
		Tracer: c.tracer,
	})
	if err != nil {
		return err
	}
	c.ing = ing
	c.pipe = sys.CoreFinder().Pipeline()
	c.mixed = ingest.NewChurn(c.remote.Graph, ingest.ChurnConfig{
		Seed: seed, Adds: churnOps, Updates: churnOps, Removes: churnOps,
	})
	return nil
}

// start runs one round after first and then one every
// ingestInterval, at most limit rounds, until the returned stop
// function is called; stop waits for an in-flight round to finish.
func (c *churner) start(ctx context.Context, first time.Duration, limit int) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		due := time.NewTimer(first)
		defer due.Stop()
		for n := 0; n < limit; n++ {
			select {
			case <-quit:
				return
			case <-due.C:
				due.Reset(ingestInterval)
				c.round(ctx)
			}
		}
		<-quit
	}()
	return func() {
		close(quit)
		<-done
	}
}

// round evolves the remote twin and ingests the change.
func (c *churner) round(ctx context.Context) {
	if c.next%2 == 0 {
		c.cursor = dfPreservingEdit(c.remote.Graph, c.pipe, c.cursor, churnOps)
	} else {
		c.mixed.Round()
	}
	c.next++
	t0 := time.Now()
	rep, err := c.ing.RunOnce(ctx)
	wall := time.Since(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.errs = append(c.errs, err)
		return
	}
	c.rounds = append(c.rounds, roundSample{rep: rep, wall: wall})
}

// samples returns the rounds completed so far and the round errors.
func (c *churner) samples() ([]roundSample, []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]roundSample(nil), c.rounds...), append([]error(nil), c.errs...)
}

// dfPreservingEdit edits up to n live resources from the rotating
// cursor by appending one more copy of each text's own longest word:
// postings move (term frequencies change) but no term gains or loses
// a document, so collection statistics stay fixed and the delta is
// update-only. It returns the advanced cursor.
func dfPreservingEdit(g *socialgraph.Graph, pipe *analysis.Pipeline, cursor, n int) int {
	total := g.NumResources()
	touched := 0
	for off := 0; off < total && touched < n; off++ {
		id := socialgraph.ResourceID((cursor + off) % total)
		if g.ResourceDeleted(id) {
			continue
		}
		r := g.Resource(id)
		before, ok := pipe.Analyze(r.Text, r.URLs)
		if !ok {
			continue
		}
		longest := ""
		for _, w := range strings.Fields(r.Text) {
			if len(w) > len(longest) {
				longest = w
			}
		}
		text := r.Text + " " + longest
		after, ok := pipe.Analyze(text, r.URLs)
		if !ok || reflect.DeepEqual(before.Terms, after.Terms) {
			continue
		}
		g.SetResourceText(id, text, r.URLs...)
		touched++
		if touched == n {
			return (cursor + off + 1) % total
		}
	}
	return cursor
}

// ingestDifferential is mem-ingest's closing check, the one
// `loadtest -rolling-ingest` gates: once the churn has stopped, every
// hot-pool need — answered through the cache and recomputed live —
// must rank bit for bit like a cold rebuild of the final remote
// corpus.
func (b *bench) ingestDifferential(ctx context.Context, e *env) error {
	remote := e.ingest.remote
	coldPipe := analysis.New(analysis.Options{Web: remote.Web})
	coldIx, _ := corpusio.BuildShardedIndex(remote.Graph, coldPipe, 0)
	cold := core.NewFinder(remote.Graph, coldIx, coldPipe, remote.Candidates)
	finder := e.sys.CoreFinder()
	for _, need := range b.pool {
		want := named(remote.Graph, cold.Find(need, b.params))
		cached, _, err := e.sys.FindCachedContext(ctx, need)
		if !b.tally.record(err == nil && sameRanking(cached, want)) {
			b.logf("differential: cached ranking for %q diverged from the cold rebuild (err %v)", need, err)
		}
		live := named(finder.Graph(), finder.FindAnalyzed(finder.Pipeline().AnalyzeNeed(need), b.params))
		if !b.tally.record(sameRanking(live, want)) {
			b.logf("differential: live ranking for %q diverged from the cold rebuild", need)
		}
	}
	// A failed round is a failed operation of the workload.
	_, errs := e.ingest.samples()
	for _, err := range errs {
		b.tally.record(false)
		b.logf("ingest round failed: %v", err)
	}
	return nil
}

// named converts internal expert scores into the public ranking form.
func named(g *socialgraph.Graph, scores []core.ExpertScore) []expertfind.Expert {
	out := make([]expertfind.Expert, len(scores))
	for i, s := range scores {
		out[i] = expertfind.Expert{Name: g.User(s.User).Name, Score: s.Score, SupportingResources: s.Resources}
	}
	return out
}
