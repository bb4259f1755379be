package index

import (
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
	"expertfind/internal/telemetry"
)

// Shard-path metrics: where each query's matching work lands and how
// long every shard takes, so a skewed shard shows up as a fat
// histogram rather than an invisible straggler.
var (
	mShardGauge = telemetry.Default().Gauge(
		"expertfind_index_shards",
		"Shard count of the most recently constructed sharded index.")
	mShardScoreSeconds = telemetry.Default().HistogramVec(
		"expertfind_index_shard_score_seconds",
		"Per-shard wall time of one Score evaluation.", nil, "shard")
)

// Doc pairs a resource id with its analyzed form: the unit of bulk
// indexing.
type Doc struct {
	ID DocID
	A  analysis.Analyzed
}

// shard is one lock-guarded partition of the document space. The
// inner Index stays lock-free; all synchronization lives here.
type shard struct {
	mu sync.RWMutex
	ix *Index
}

// Sharded is an inverted index split into document-hash shards behind
// the same API as Index. Building routes each document to exactly one
// shard; scoring plans the query once against global collection
// statistics, evaluates every shard concurrently on a bounded worker
// pool, and merges the per-shard rankings with the deterministic
// (descending score, ascending DocID) tie-break. Results are
// byte-identical to a monolithic Index over the same documents, for
// any shard count.
//
// Unlike Index, Sharded is safe for concurrent use: Add/Remove take a
// per-shard write lock, queries take read locks. A search overlapping
// a mutation sees some consistent-per-shard interleaving of the two.
// ApplyDelta is stronger: it holds the collection-wide write lock, so
// Search and WriteTo observe either the entire delta or none of it —
// never a torn mix of plan statistics and postings.
type Sharded struct {
	// global orders whole-collection operations against deltas:
	// ApplyDelta write-holds it, Search and WriteTo read-hold it for
	// their full duration, and the incremental mutators
	// (Add/AddBatch/Remove/Update) read-hold it so they keep running
	// concurrently with each other. Lock order is always global
	// before shard.
	global  sync.RWMutex
	shards  []*shard
	workers int
}

// NewSharded returns an empty index with n document-hash shards;
// n <= 0 selects GOMAXPROCS. The scoring worker pool is bounded by
// min(n, GOMAXPROCS at construction).
func NewSharded(n int) *Sharded {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Sharded{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{ix: New()}
	}
	s.workers = runtime.GOMAXPROCS(0)
	if s.workers > n {
		s.workers = n
	}
	mShardGauge.Set(float64(n))
	return s
}

// NewShardedFromIndex splits an existing monolithic index (e.g. one
// loaded from a binary segment) into n document-hash shards.
func NewShardedFromIndex(ix *Index, n int) *Sharded {
	s := NewSharded(n)
	for d := range ix.docs {
		s.shards[s.shardFor(d)].ix.docs[d] = struct{}{}
	}
	routeLists(s, ix.terms, func(sh *Index) map[string]*postingList { return sh.terms })
	routeLists(s, ix.entities, func(sh *Index) map[kb.EntityID]*postingList { return sh.entities })
	return s
}

// routeLists adds every posting of src's lists to the list of the same
// key in the posting's shard; lists picks that shard's list map.
func routeLists[K comparable](s *Sharded, src map[K]*postingList, lists func(*Index) map[K]*postingList) {
	for key, l := range src {
		l.forEach(func(p posting) {
			listFor(lists(s.shards[s.shardFor(p.doc)].ix), key, l.entity).add(p)
		})
	}
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardRoute routes a document to one of n shards. The mix function
// (splitmix64 finalizer) decorrelates the route from sequential id
// patterns; it is a pure function of (id, n), so the layout is stable
// across processes — the scatter-gather serving layer relies on this
// to split one corpus across shard processes and know, without
// coordination, which process owns any document.
func ShardRoute(d DocID, n int) int {
	h := uint64(uint32(d))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(n))
}

// shardFor routes a document to its in-process shard via ShardRoute.
func (s *Sharded) shardFor(d DocID) int {
	return ShardRoute(d, len(s.shards))
}

// Add indexes an analyzed resource under id, locking only the one
// shard the document routes to. Adding the same id twice panics, as
// with Index.Add.
func (s *Sharded) Add(id DocID, a analysis.Analyzed) {
	s.global.RLock()
	defer s.global.RUnlock()
	sh := s.shards[s.shardFor(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ix.Add(id, a)
}

// Remove deletes a previously indexed resource (see Index.Remove),
// locking only the one shard the document routes to.
func (s *Sharded) Remove(id DocID, a analysis.Analyzed) {
	s.global.RLock()
	defer s.global.RUnlock()
	sh := s.shards[s.shardFor(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ix.Remove(id, a)
}

// Update replaces the indexed form of a document (see Index.Update),
// locking only the one shard the document routes to.
func (s *Sharded) Update(id DocID, old, new analysis.Analyzed) {
	s.global.RLock()
	defer s.global.RUnlock()
	sh := s.shards[s.shardFor(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ix.Update(id, old, new)
}

// DocUpdate pairs a document with its previously indexed analyzed
// form and its replacement: the unit of in-place change in a Delta.
type DocUpdate struct {
	ID       DocID
	Old, New analysis.Analyzed
}

// Delta is one atomic batch of index mutations. Removes carry the
// analyzed form the document was added under, exactly like
// Index.Remove.
type Delta struct {
	Adds    []Doc
	Updates []DocUpdate
	Removes []Doc
}

// Empty reports whether the delta carries no mutations.
func (d Delta) Empty() bool {
	return len(d.Adds) == 0 && len(d.Updates) == 0 && len(d.Removes) == 0
}

// ApplyDelta applies removes, updates and adds as one atomic step
// under the collection-wide write lock: a concurrent Search ranks
// against either the pre-delta or the post-delta collection, never a
// mix. Per-shard locks are still taken (the fine-grained stats readers
// do not hold the global lock).
func (s *Sharded) ApplyDelta(d Delta) {
	s.global.Lock()
	defer s.global.Unlock()
	for _, r := range d.Removes {
		sh := s.shards[s.shardFor(r.ID)]
		sh.mu.Lock()
		sh.ix.Remove(r.ID, r.A)
		sh.mu.Unlock()
	}
	for _, u := range d.Updates {
		sh := s.shards[s.shardFor(u.ID)]
		sh.mu.Lock()
		sh.ix.Update(u.ID, u.Old, u.New)
		sh.mu.Unlock()
	}
	for _, a := range d.Adds {
		sh := s.shards[s.shardFor(a.ID)]
		sh.mu.Lock()
		sh.ix.Add(a.ID, a.A)
		sh.mu.Unlock()
	}
}

// AddBatch bulk-indexes docs with one goroutine per shard: documents
// are bucketed by route first, then every shard is populated by a
// single writer, so the build parallelizes without lock contention.
func (s *Sharded) AddBatch(docs []Doc) {
	s.global.RLock()
	defer s.global.RUnlock()
	buckets := make([][]Doc, len(s.shards))
	for _, d := range docs {
		i := s.shardFor(d.ID)
		buckets[i] = append(buckets[i], d)
	}
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		if len(buckets[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, docs []Doc) {
			defer wg.Done()
			sh.mu.Lock()
			defer sh.mu.Unlock()
			for _, d := range docs {
				sh.ix.Add(d.ID, d.A)
			}
		}(sh, buckets[i])
	}
	wg.Wait()
}

// flatten merges every shard into one monolithic Index (a copy; the
// shards are not aliased). It holds the collection-wide read lock, so
// the copy is a consistent snapshot with respect to ApplyDelta.
func (s *Sharded) flatten() *Index {
	s.global.RLock()
	defer s.global.RUnlock()
	out := New()
	for _, sh := range s.shards {
		sh.mu.RLock()
		out.Merge(sh.ix)
		sh.mu.RUnlock()
	}
	return out
}

// WriteTo serializes the index as one binary segment, identical to
// the segment the equivalent monolithic Index would write (the codec
// sorts everything, so shard layout leaves no trace).
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	return s.flatten().WriteTo(w)
}

// NumDocs returns the number of indexed resources across all shards.
func (s *Sharded) NumDocs() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.ix.docs)
		sh.mu.RUnlock()
	}
	return n
}

// Has reports whether id is indexed.
func (s *Sharded) Has(id DocID) bool {
	sh := s.shards[s.shardFor(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.ix.Has(id)
}

// DocFreq returns the number of resources containing the term,
// summed across shards.
func (s *Sharded) DocFreq(term string) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.ix.DocFreq(term)
		sh.mu.RUnlock()
	}
	return n
}

// EntityFreq returns the number of resources mentioning the entity,
// summed across shards.
func (s *Sharded) EntityFreq(e kb.EntityID) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.ix.EntityFreq(e)
		sh.mu.RUnlock()
	}
	return n
}

// IRF returns the inverse resource frequency of a term over the whole
// collection (all shards), matching Index.IRF on the same documents.
func (s *Sharded) IRF(term string) float64 {
	df := s.DocFreq(term)
	if df == 0 {
		return 0
	}
	return irf(s.NumDocs(), df)
}

// EIRF returns the inverse resource frequency of an entity over the
// whole collection.
func (s *Sharded) EIRF(e kb.EntityID) float64 {
	df := s.EntityFreq(e)
	if df == 0 {
		return 0
	}
	return irf(s.NumDocs(), df)
}

// Search evaluates Eq. (1) for q (see Query): the query is planned
// once against global statistics, every live shard runs the kernel to
// its local top k on the worker pool, and the per-shard prefixes k-way
// merge under scoredLess into the global prefix. A document in the
// global top k is necessarily in its own shard's top k, and each
// document's addition chain never depends on the shard it lives in, so
// the ranking is byte-identical to the monolithic Index over the same
// documents, for any shard count.
func (s *Sharded) Search(q Query) []ScoredDoc {
	s.global.RLock()
	defer s.global.RUnlock()
	plan := q.plan(s)
	live := s.liveShards(plan)

	partials := make([][]ScoredDoc, len(live))
	counters := make([]topkCounters, len(live))
	s.forEachLiveShard(live, func(pos, i int) {
		t0 := time.Now()
		sh := s.shards[i]
		sh.mu.RLock()
		partials[pos], counters[pos] = scoreLists(planLists(sh.ix, plan), q.K, q.Accept)
		sh.mu.RUnlock()
		mShardScoreSeconds.With(strconv.Itoa(i)).ObserveSince(t0)
	})

	out := truncate(mergeScored(partials), q.K)
	var c topkCounters
	for _, ci := range counters {
		c.add(ci)
	}
	c.record(len(out))
	return out
}

// Score evaluates Eq. (1) like Index.Score, scoring shards
// concurrently on the index's worker pool. Output is byte-identical
// to the monolithic index over the same documents.
func (s *Sharded) Score(need analysis.Analyzed, alpha float64) []ScoredDoc {
	return s.Search(Query{Need: need, Alpha: alpha})
}

// liveShards returns the shards holding at least one posting of some
// planned dimension — the actual work items of this query. Sizing the
// worker pool off this list (rather than the total shard count) keeps
// a narrow query — a single rare term, say — from spinning up a full
// pool of workers that immediately find nothing to do.
func (s *Sharded) liveShards(plan queryPlan) []int {
	live := make([]int, 0, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		hit := len(planLists(sh.ix, plan)) > 0
		sh.mu.RUnlock()
		if hit {
			live = append(live, i)
		}
	}
	return live
}

// forEachLiveShard runs fn(pos, shard) for every live shard on the
// worker pool; the pool never exceeds the number of live shards.
func (s *Sharded) forEachLiveShard(live []int, fn func(pos, shard int)) {
	workers := min(s.workers, len(live))
	if workers <= 1 {
		for pos, i := range live {
			fn(pos, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(next.Add(1) - 1)
				if pos >= len(live) {
					return
				}
				fn(pos, live[pos])
			}
		}()
	}
	wg.Wait()
}

// mergeScored k-way merges per-shard rankings that are each already
// sorted by scoredLess. Shards hold disjoint documents, so the
// comparator is a total order and the merge is the unique global
// ranking — no re-sort, no nondeterminism.
func mergeScored(lists [][]ScoredDoc) []ScoredDoc {
	nonEmpty := lists[:0:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
			total += len(l)
		}
	}
	if len(nonEmpty) == 1 {
		return nonEmpty[0]
	}
	out := make([]ScoredDoc, 0, total)
	heads := make([]int, len(nonEmpty))
	for len(out) < total {
		best := -1
		for i, l := range nonEmpty {
			if heads[i] >= len(l) {
				continue
			}
			if best == -1 || scoredLess(l[heads[i]], nonEmpty[best][heads[best]]) {
				best = i
			}
		}
		out = append(out, nonEmpty[best][heads[best]])
		heads[best]++
	}
	return out
}
