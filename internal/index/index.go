// Package index implements the in-memory inverted index and the
// vector-space resource-matching model of the paper (§2.4, Eq. 1–2).
//
// Resources are represented both as bags of stemmed terms and as sets
// of disambiguated entities, in the same space as expertise needs.
// The relevance of a resource r for a need q is the weighted linear
// combination
//
//	score(q,r) = α · Σ_t tf(t,r)·irf(t)²
//	           + (1−α) · Σ_e ef(e,r)·eirf(e)²·we(e,r)
//
// where t ranges over the need's terms, e over the need's entities,
// tf/ef are term/entity frequencies in r, irf/eirf are inverse
// resource frequencies over the whole collection, and
// we(e,r) = 1 + dScore(e,r) injects the disambiguation confidence
// (Eq. 2).
package index

import (
	"io"
	"math"
	"sort"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// Query-path metrics: how many postings each search walks is the
// raw unit of matching work, what the later sharding/caching PRs must
// move. One atomic add per query keeps the hot loops untouched.
var (
	mQueries = telemetry.Default().Counter(
		"expertfind_index_queries_total",
		"Score calls evaluated against the index.")
	mPostings = telemetry.Default().Counter(
		"expertfind_index_postings_scored_total",
		"Term and entity postings accumulated across Score calls.")
	mMatches = telemetry.Default().Counter(
		"expertfind_index_matches_total",
		"Positively scored resources returned across Score calls.")
)

// DocID identifies an indexed resource.
type DocID = socialgraph.ResourceID

// Searcher is the query-side index API shared by the monolithic
// Index, the sharded variant and the disk-backed Store: everything the
// expert-finding pipeline needs to weight, match and persist a
// collection.
type Searcher interface {
	// Search evaluates Eq. (1) for q (see Query).
	Search(q Query) []ScoredDoc
	// Score is Search(Query{Need: need, Alpha: alpha}): every match,
	// weighted by the backend's own statistics.
	Score(need analysis.Analyzed, alpha float64) []ScoredDoc
	NumDocs() int
	Has(id DocID) bool
	DocFreq(term string) int
	EntityFreq(e kb.EntityID) int
	IRF(term string) float64
	EIRF(e kb.EntityID) float64
	io.WriterTo
}

// Query is one scoring request. Every backend answers it with the same
// ranking: the positive Eq. (1) matches of Need in descending score
// (ties broken by ascending DocID), restricted to Accept, truncated to
// K — bit for bit, whatever the shard count or segment layout.
type Query struct {
	// Need is the analyzed expertise need.
	Need analysis.Analyzed
	// Alpha balances term matching (1) against entity matching (0).
	Alpha float64
	// Stats is the collection view the query is weighted against; nil
	// selects the backend's own statistics. The scatter serving layer
	// passes cross-process global statistics, so a shard holding one
	// slice of the corpus scores with collection-global weights.
	Stats CollectionStats
	// K bounds the ranking to its k best documents, letting the kernel
	// prune documents that provably cannot enter them (MaxScore); the
	// result equals the unbounded ranking truncated to k. K <= 0 keeps
	// every match.
	K int
	// Accept, when non-nil, restricts scoring to accepted documents
	// (the finder passes reachability membership). nil accepts all.
	Accept func(DocID) bool
}

// plan weights the query against its Stats, or own when Stats is nil.
func (q Query) plan(own CollectionStats) queryPlan {
	st := q.Stats
	if st == nil {
		st = own
	}
	return planQuery(q.Need, q.Alpha, st)
}

var (
	_ Searcher = (*Index)(nil)
	_ Searcher = (*Sharded)(nil)
	_ Searcher = (*Store)(nil)
)

// Index is an append-only inverted index over analyzed resources.
// Inverse resource frequencies reflect the collection at query time,
// so documents can be added at any moment. Index is not safe for
// concurrent mutation; concurrent searches are safe once building is
// done (posting lists seal themselves during Add/Merge, never during
// scoring).
//
// Posting lists are blocked: delta-encoded fixed-size blocks with
// per-block skip entries (max doc id, max weightless score) plus a
// small unsorted tail of recent additions — see blockpostings.go. The
// skip entries feed the top-k pruner.
type Index struct {
	terms    map[string]*postingList
	entities map[kb.EntityID]*postingList
	docs     map[DocID]struct{}
}

// New returns an empty index.
func New() *Index {
	return &Index{
		terms:    make(map[string]*postingList),
		entities: make(map[kb.EntityID]*postingList),
		docs:     make(map[DocID]struct{}),
	}
}

func (ix *Index) lookupTerm(t string) *postingList { return ix.terms[t] }

func (ix *Index) lookupEntity(e kb.EntityID) *postingList { return ix.entities[e] }

// listFor returns the list under key, creating an empty one of the
// given kind on first use.
func listFor[K comparable](lists map[K]*postingList, key K, entity bool) *postingList {
	l := lists[key]
	if l == nil {
		l = &postingList{entity: entity}
		lists[key] = l
	}
	return l
}

// Add indexes an analyzed resource under id. Adding the same id twice
// is a programming error and panics.
func (ix *Index) Add(id DocID, a analysis.Analyzed) {
	if _, dup := ix.docs[id]; dup {
		panic("index: duplicate document")
	}
	ix.docs[id] = struct{}{}
	for t, tf := range a.Terms {
		listFor(ix.terms, t, false).add(posting{doc: id, f: int32(tf)})
	}
	for e, st := range a.Entities {
		listFor(ix.entities, e, true).add(posting{doc: id, f: int32(st.Freq), dScore: st.DScore})
	}
}

// Remove deletes a previously indexed resource. a must be the
// analyzed form the document was added under (analysis is
// deterministic, so callers either retain it or re-analyze the
// installed text). Every touched posting list is rebuilt into
// canonical sealed blocks with its maxima recomputed, and lists left
// empty are dropped from the maps entirely — the index is
// indistinguishable from one that never saw the document, so a
// delta-applied index serializes byte-identically to a cold rebuild.
// Removing an unknown document, or one whose postings are missing
// from a list, is a programming error and panics.
func (ix *Index) Remove(id DocID, a analysis.Analyzed) {
	if _, ok := ix.docs[id]; !ok {
		panic("index: removing unknown document")
	}
	delete(ix.docs, id)
	for t := range a.Terms {
		dropPosting(ix.terms, t, id)
	}
	for e := range a.Entities {
		dropPosting(ix.entities, e, id)
	}
}

// dropPosting rebuilds the list under key without doc id, deleting the
// list when it empties. A missing list or posting panics.
func dropPosting[K comparable](lists map[K]*postingList, key K, id DocID) {
	l := lists[key]
	if l == nil {
		panic("index: removing posting from absent list")
	}
	ps := l.decodeAll()
	kept := ps[:0]
	for _, p := range ps {
		if p.doc != id {
			kept = append(kept, p)
		}
	}
	switch {
	case len(kept) == len(ps):
		panic("index: posting missing on remove")
	case len(kept) == 0:
		delete(lists, key)
	default:
		lists[key] = newPostingList(l.entity, kept)
	}
}

// Update replaces the indexed form of a document: old must be the
// analyzed form it was added under, new becomes its indexed form.
func (ix *Index) Update(id DocID, old, new analysis.Analyzed) {
	ix.Remove(id, old)
	ix.Add(id, new)
}

// Merge folds another index into this one. The document sets must be
// disjoint (each resource is analyzed exactly once); overlapping
// documents cause a panic like a duplicate Add would. Merging
// supports sharded corpus builds: analyze partitions independently,
// then merge the shards.
func (ix *Index) Merge(other *Index) {
	for d := range other.docs {
		if _, dup := ix.docs[d]; dup {
			panic("index: merging overlapping document sets")
		}
		ix.docs[d] = struct{}{}
	}
	mergeLists(ix.terms, other.terms)
	mergeLists(ix.entities, other.entities)
}

// mergeLists appends every posting of src's lists to dst's lists of
// the same key.
func mergeLists[K comparable](dst, src map[K]*postingList) {
	for key, ol := range src {
		l := listFor(dst, key, ol.entity)
		ol.forEach(l.add)
	}
}

// NumDocs returns the number of indexed resources.
func (ix *Index) NumDocs() int { return len(ix.docs) }

// Has reports whether id is indexed.
func (ix *Index) Has(id DocID) bool {
	_, ok := ix.docs[id]
	return ok
}

// DocFreq returns the number of resources containing the term.
func (ix *Index) DocFreq(term string) int {
	if l := ix.terms[term]; l != nil {
		return l.count
	}
	return 0
}

// EntityFreq returns the number of resources mentioning the entity.
func (ix *Index) EntityFreq(e kb.EntityID) int {
	if l := ix.entities[e]; l != nil {
		return l.count
	}
	return 0
}

// irf is the inverse resource frequency formula, log(1 + N/df),
// shared by every stats provider so sequential and sharded scoring
// compute bit-identical weights.
func irf(numDocs, df int) float64 {
	return math.Log(1 + float64(numDocs)/float64(df))
}

// IRF returns the inverse resource frequency of a term over the
// current collection: log(1 + N/df). Unseen terms contribute nothing
// to matching, so their IRF is reported as 0.
func (ix *Index) IRF(term string) float64 {
	df := ix.DocFreq(term)
	if df == 0 {
		return 0
	}
	return irf(len(ix.docs), df)
}

// EIRF returns the inverse resource frequency of an entity.
func (ix *Index) EIRF(e kb.EntityID) float64 {
	df := ix.EntityFreq(e)
	if df == 0 {
		return 0
	}
	return irf(len(ix.docs), df)
}

// ScoredDoc is a resource with its relevance for a need.
type ScoredDoc struct {
	Doc   DocID
	Score float64
}

// CollectionStats is the collection-level view needed to weight a
// query: document count and per-term/per-entity resource frequencies.
// For a sharded index these are global (summed across shards), so the
// same need yields the same query plan regardless of shard count. The
// scatter-gather serving layer implements it with stats summed across
// shard processes, so a shard holding one slice of the corpus can
// still score with collection-global weights.
type CollectionStats interface {
	NumDocs() int
	DocFreq(term string) int
	EntityFreq(e kb.EntityID) int
}

// GlobalStats is a materialized CollectionStats: document count and
// per-dimension resource frequencies summed over a whole collection.
// The coordinator of the scatter-gather serving layer gathers one per
// query from its shard processes; scoring any shard slice under it
// reproduces the exact plan weights of a single-process index.
type GlobalStats struct {
	Docs     int
	TermDF   map[string]int
	EntityDF map[kb.EntityID]int
}

// NumDocs implements CollectionStats.
func (g GlobalStats) NumDocs() int { return g.Docs }

// DocFreq implements CollectionStats.
func (g GlobalStats) DocFreq(term string) int { return g.TermDF[term] }

// EntityFreq implements CollectionStats.
func (g GlobalStats) EntityFreq(e kb.EntityID) int { return g.EntityDF[e] }

// plannedTerm / plannedEntity carry one query dimension with its
// collection weight fully resolved (α·irf² resp. (1−α)·eirf²).
type plannedTerm struct {
	term string
	w    float64
}

type plannedEntity struct {
	e kb.EntityID
	w float64
}

// queryPlan is the deterministic, weight-resolved form of a need:
// terms in lexicographic order, entities in ascending ID order, with
// zero-weight dimensions dropped. Planning once and walking postings
// in plan order makes every search accumulate each document's float64
// score in the same addition order — byte-identical output across runs
// and across shard counts (each document lives in exactly one shard,
// so its addition chain never changes).
type queryPlan struct {
	terms    []plannedTerm
	entities []plannedEntity
}

func planQuery(need analysis.Analyzed, alpha float64, st CollectionStats) queryPlan {
	var plan queryPlan
	n := st.NumDocs()

	if alpha > 0 {
		terms := make([]string, 0, len(need.Terms))
		for t, qtf := range need.Terms {
			if qtf > 0 {
				terms = append(terms, t)
			}
		}
		sort.Strings(terms)
		for _, t := range terms {
			df := st.DocFreq(t)
			if df == 0 {
				continue
			}
			v := irf(n, df)
			plan.terms = append(plan.terms, plannedTerm{term: t, w: alpha * v * v})
		}
	}

	if alpha < 1 {
		ents := make([]kb.EntityID, 0, len(need.Entities))
		for e := range need.Entities {
			ents = append(ents, e)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i] < ents[j] })
		for _, e := range ents {
			df := st.EntityFreq(e)
			if df == 0 {
				continue
			}
			v := irf(n, df)
			plan.entities = append(plan.entities, plannedEntity{e: e, w: (1 - alpha) * v * v})
		}
	}
	return plan
}

// scoredLess is the one ranking comparator: descending score, ties
// broken by ascending DocID. Document IDs are unique, so it is a total
// order and every sort/merge over it is deterministic.
func scoredLess(a, b ScoredDoc) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// Search evaluates Eq. (1) for q over this index (see Query).
func (ix *Index) Search(q Query) []ScoredDoc {
	out, c := scoreLists(planLists(ix, q.plan(ix)), q.K, q.Accept)
	c.record(len(out))
	return out
}

// Score evaluates Eq. (1) for every resource matching the analyzed
// need and returns the matches with positive score, ordered by
// descending score (ties broken by ascending DocID for determinism).
// Scores are accumulated in sorted term/entity order, so repeated
// calls return byte-identical results.
//
// alpha balances textual term matching (alpha = 1) against entity
// matching (alpha = 0); the paper settles on alpha = 0.6 (§3.3.2).
func (ix *Index) Score(need analysis.Analyzed, alpha float64) []ScoredDoc {
	return ix.Search(Query{Need: need, Alpha: alpha})
}
