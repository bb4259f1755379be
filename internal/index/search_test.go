package index

import (
	"fmt"
	"math/rand"
	"testing"

	"expertfind/internal/kb"
)

// globalStats materializes ix's collection statistics the way the
// scatter coordinator gathers them from its shard processes.
func globalStats(ix *Index) GlobalStats {
	g := GlobalStats{Docs: ix.NumDocs(), TermDF: map[string]int{}, EntityDF: map[kb.EntityID]int{}}
	for term := range ix.terms {
		g.TermDF[term] = ix.DocFreq(term)
	}
	for e := range ix.entities {
		g.EntityDF[e] = ix.EntityFreq(e)
	}
	return g
}

// scatterSearch simulates the scatter-gather path at the index layer:
// one monolithic index per shard process, each answering q for its
// slice under the global statistics (q.Stats, else global), merged
// and truncated by the coordinator.
func scatterSearch(shardIxs []*Index, global CollectionStats, q Query) []ScoredDoc {
	if q.Stats == nil {
		q.Stats = global
	}
	lists := make([][]ScoredDoc, len(shardIxs))
	for i, six := range shardIxs {
		lists[i] = six.Search(q)
	}
	return truncate(mergeScored(lists), q.K)
}

// splitByRoute partitions docs into n monolithic per-shard indexes the
// way the scatter topology does.
func splitByRoute(docs []Doc, n int) []*Index {
	out := make([]*Index, n)
	for i := range out {
		out[i] = New()
	}
	for _, d := range docs {
		out[ShardRoute(d.ID, n)].Add(d.ID, d.A)
	}
	return out
}

// tombstonedStore holds live in a store of nSegs sealed segments plus
// a memtable, interleaved with the doomed documents, which are then
// removed: those sealed become tombstones, the memtable ones are
// excised. The store's live collection is exactly live.
func tombstonedStore(t *testing.T, live, doomed []Doc, nSegs int) *Store {
	t.Helper()
	var all []Doc
	for i, d := range live {
		all = append(all, d)
		if j := i / 10; i%10 == 0 && j < len(doomed) {
			all = append(all, doomed[j])
		}
	}
	var bounds []int
	for i := 1; i <= nSegs; i++ {
		bounds = append(bounds, len(all)*4*i/(5*nSegs))
	}
	s := storeOf(t, all, bounds, StoreOptions{})
	s.ApplyDelta(Delta{Removes: doomed[:min(len(doomed), (len(live)+9)/10)]})
	if nSegs > 0 && s.Status().Tombstones == 0 {
		t.Fatalf("%d-segment store holds no tombstones", nSegs)
	}
	return s
}

// TestSearchBackendGrid is the one differential grid of the scoring
// surface: every backend — Index, Sharded with 1 and 3 shards, Store
// with 0/1/3 segments plus memtable plus tombstones, and the scatter
// split — answers every Query of the (need, α, K, Accept, Stats) grid
// bit-identically to the test-only reference scorer filtered by
// Accept and truncated to K.
func TestSearchBackendGrid(t *testing.T) {
	docs := randomDocs(17, 600, 0)
	flat := flatFromDocs(docs)
	superset := globalStats(flatFromDocs(append(randomDocs(19, 80, 200_000), docs...)))

	type backend struct {
		name   string
		search func(Query) []ScoredDoc
	}
	backends := []backend{{"index", flat.Search}}
	for _, n := range []int{1, 3} {
		s := NewSharded(n)
		s.AddBatch(docs)
		backends = append(backends, backend{fmt.Sprintf("sharded%d", n), s.Search})
	}
	for _, nSegs := range []int{0, 1, 3} {
		s := tombstonedStore(t, docs, randomDocs(18, 60, 100_000), nSegs)
		backends = append(backends, backend{fmt.Sprintf("store%d", nSegs), s.Search})
	}
	scatter := splitByRoute(docs, 3)
	backends = append(backends, backend{"scatter3", func(q Query) []ScoredDoc {
		return scatterSearch(scatter, flat, q)
	}})

	accepts := []func(DocID) bool{nil, func(d DocID) bool { return d%2 == 0 }}
	stats := []CollectionStats{nil, superset}
	r := rand.New(rand.NewSource(23))
	for qi := 0; qi < 5; qi++ {
		need := randomNeed(r)
		for _, alpha := range []float64{0, 0.6, 1} {
			for _, k := range []int{0, 1, 5, 100} {
				for ai, accept := range accepts {
					for si, st := range stats {
						q := Query{Need: need, Alpha: alpha, Stats: st, K: k, Accept: accept}
						want := oracle(flat, q)
						for _, b := range backends {
							label := fmt.Sprintf("%s q%d α=%g k=%d accept%d stats%d", b.name, qi, alpha, k, ai, si)
							assertScoredBitIdentical(t, label, want, b.search(q))
						}
					}
				}
			}
		}
	}
}

// TestGlobalStatsScoring scores a shard slice under materialized
// GlobalStats — the scatter coordinator's view — and requires the
// merged rankings to match the monolithic index, exhaustive and top-k,
// on both the Sharded index and the plain one.
func TestGlobalStatsScoring(t *testing.T) {
	docs := randomDocs(71, 300, 0)
	flat := flatFromDocs(docs)
	g := globalStats(flat)

	sharded := NewSharded(3)
	sharded.AddBatch(docs)
	need := fuzzNeed("swim pool train php copper", 23)
	for _, alpha := range []float64{0, 0.6, 1} {
		want := oracle(flat, Query{Need: need, Alpha: alpha})
		assertScoredBitIdentical(t, "global stats", want, sharded.Search(Query{Need: need, Alpha: alpha, Stats: g}))
		wantK := truncate(want, 7)
		assertScoredBitIdentical(t, "global stats topk", wantK, sharded.Search(Query{Need: need, Alpha: alpha, Stats: g, K: 7}))
		assertScoredBitIdentical(t, "global stats topk flat", wantK, flat.Search(Query{Need: need, Alpha: alpha, Stats: g, K: 7}))
	}
}
