package index

import (
	"math"
	"sort"

	"expertfind/internal/kb"
	"expertfind/internal/telemetry"
)

// The one accumulation kernel behind every Search, with MaxScore-style
// top-k pruning (term-at-a-time). The accumulator walks the planned
// lists in plan order, so every document's float64 addition chain is
// the same whatever k, accept filter or partition (shard, segment) it
// is scored under. With k > 0 it maintains θ, the k-th largest
// current partial score. A document whose partial score plus the sum
// of the remaining lists' upper bounds provably stays below θ can never
// enter the top k and is dropped; a document first seen when the
// remaining bound itself is below θ is never admitted. Both proofs are
// taken on bounds inflated by boundSlack, so float non-associativity
// (the suffix sum, and the (ef·w)·we vs (ef·we)·w product grouping)
// can only make pruning more conservative, never wrong: the pruned
// ranking is byte-identical to the exhaustive one truncated to k.
//
// Block skipping rides on the same proof. Once the remaining bound
// after the current list is below θ, no new document can be admitted
// from any later list, so a block of the current list whose own bound
// is below θ is update-only; if no live accumulator doc falls in its
// doc-id range it is skipped without decoding.

// Pruning metrics: how much work the top-k path avoided.
var (
	mPrunedDocs = telemetry.Default().Counter(
		"expertfind_index_pruned_docs_total",
		"Accumulated candidates dropped by a MaxScore bound proof during top-k scoring.")
	mBlocksSkipped = telemetry.Default().Counter(
		"expertfind_index_blocks_skipped_total",
		"Posting blocks skipped without decoding during top-k scoring.")
)

// boundSlack inflates every upper bound before it is compared against
// the θ threshold. Upper bounds are sums and products of non-negative
// float64s evaluated in a different association order than the scores
// they bound; the relative error of either is far below 1e-12 for any
// realistic list count, so a 1e-9 inflation makes the strict-inequality
// proofs sound while costing essentially no pruning power.
const boundSlack = 1 + 1e-9

// topkCounters aggregates one evaluation's work accounting.
type topkCounters struct {
	postings      int // postings actually decoded and accumulated
	pruned        int // accumulator entries dropped by bound proof
	blocksSkipped int // sealed blocks skipped without decoding
}

func (c *topkCounters) add(o topkCounters) {
	c.postings += o.postings
	c.pruned += o.pruned
	c.blocksSkipped += o.blocksSkipped
}

// record publishes one search's work accounting to the index metrics.
func (c topkCounters) record(matches int) {
	mQueries.Inc()
	mPostings.Add(float64(c.postings))
	mMatches.Add(float64(matches))
	mPrunedDocs.Add(float64(c.pruned))
	mBlocksSkipped.Add(float64(c.blocksSkipped))
}

// topkAcc is the accumulator state of one evaluation.
type topkAcc struct {
	k      int
	accept func(DocID) bool
	scores map[DocID]float64
	// dead holds documents dropped by a bound proof, so a later list
	// can never resurrect one with a partial (wrong) score. Allocated
	// on the first prune; an exhaustive evaluation never needs it.
	dead    map[DocID]struct{}
	theta   float64   // k-th largest current partial; -Inf until k exist
	scratch []float64 // size-k min-heap reused across settle calls
	topkCounters
}

func newTopkAcc(k int, accept func(DocID) bool) *topkAcc {
	a := &topkAcc{
		k:      k,
		accept: accept,
		scores: make(map[DocID]float64),
		theta:  math.Inf(-1),
	}
	if k > 0 {
		a.scratch = make([]float64, 0, k)
	}
	return a
}

// admits reports whether a document bounded by bound could still reach
// the current threshold. Strict comparison: ties are never pruned.
func (a *topkAcc) admits(bound float64) bool {
	return !(bound*boundSlack < a.theta)
}

// visit accumulates one posting's contribution c for doc. admit
// permits starting a new accumulator; updates always apply.
func (a *topkAcc) visit(doc DocID, c float64, admit bool) {
	a.postings++
	if v, ok := a.scores[doc]; ok {
		a.scores[doc] = v + c
		return
	}
	if !admit {
		return
	}
	if _, dd := a.dead[doc]; dd {
		return
	}
	if a.accept != nil && !a.accept(doc) {
		return
	}
	a.scores[doc] = c
}

// settle, called after each list, refreshes θ from the live partials
// and drops every accumulator that provably cannot reach it given the
// remaining bound remNext.
func (a *topkAcc) settle(remNext float64) {
	if a.k <= 0 {
		return
	}
	if len(a.scores) >= a.k {
		a.theta = a.kthLargest()
	}
	if math.IsInf(a.theta, -1) || a.theta <= 0 {
		return
	}
	for d, v := range a.scores {
		if (v+remNext)*boundSlack < a.theta {
			delete(a.scores, d)
			if a.dead == nil {
				a.dead = make(map[DocID]struct{})
			}
			a.dead[d] = struct{}{}
			a.pruned++
		}
	}
}

// kthLargest selects the k-th largest live partial with a size-k
// min-heap; requires len(scores) >= k. The result is a pure function
// of the multiset of values, so map iteration order cannot leak into
// the threshold.
func (a *topkAcc) kthLargest() float64 {
	h := a.scratch[:0]
	for _, v := range a.scores {
		if len(h) < a.k {
			h = append(h, v)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p] <= h[i] {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if v > h[0] {
			h[0] = v
			i := 0
			for {
				l, r := 2*i+1, 2*i+2
				small := i
				if l < len(h) && h[l] < h[small] {
					small = l
				}
				if r < len(h) && h[r] < h[small] {
					small = r
				}
				if small == i {
					break
				}
				h[i], h[small] = h[small], h[i]
				i = small
			}
		}
	}
	a.scratch = h
	return h[0]
}

// liveDocsSorted snapshots the live accumulator doc ids in ascending
// order, for deciding whether an update-only block intersects any
// accumulator. Taken per list: documents admitted later in the same
// list always carry smaller doc ids than any block still ahead, so the
// snapshot cannot miss a doc a later block must update.
func (a *topkAcc) liveDocsSorted() []DocID {
	out := make([]DocID, 0, len(a.scores))
	for d := range a.scores {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// docsInRange reports whether the sorted snapshot holds a doc in
// (lo, hi]; lo < 0 means unbounded below.
func docsInRange(snap []DocID, lo int64, hi DocID) bool {
	i := sort.Search(len(snap), func(i int) bool { return int64(snap[i]) > lo })
	return i < len(snap) && snap[i] <= hi
}

// walk feeds one planned list into the accumulator. remNext is the
// summed upper bound of every list after this one.
func (a *topkAcc) walk(l *postingList, w, remNext float64) {
	listAdmit := a.admits(l.maxW*w + remNext)
	// Block-level admission refinement is sound only once admission is
	// closed for every later list (remNext below θ): a document turned
	// away by a block bound here can then never be admitted later with
	// a partial chain.
	refine := listAdmit && !a.admits(remNext)
	var snap []DocID
	snapped := false
	base := DocID(0)
	lo := int64(-1)
	for _, bm := range l.blocks {
		admit := listAdmit
		if !listAdmit || (refine && !a.admits(bm.maxW*w+remNext)) {
			admit = false
			if !snapped {
				snap, snapped = a.liveDocsSorted(), true
			}
			if !docsInRange(snap, lo, bm.maxDoc) {
				a.blocksSkipped++
				base = bm.maxDoc
				lo = int64(bm.maxDoc)
				continue
			}
		}
		a.decode(l.data, bm.off, bm.n, base, true, l.entity, w, admit)
		base = bm.maxDoc
		lo = int64(bm.maxDoc)
	}
	a.decode(l.tail, 0, l.tailN, 0, false, l.entity, w, listAdmit)
}

// decode accumulates n postings laid out from data[pos:], doc ids
// delta-encoded from base (a sealed block) or absolute (the tail). The
// contribution is computed exactly as Eq. (1) reads — float64(tf)·w,
// or float64(ef)·w·we left associated — so every chain is the same on
// every path.
func (a *topkAcc) decode(data []byte, pos, n int, base DocID, delta, entity bool, w float64, admit bool) {
	doc := base
	for j := 0; j < n; j++ {
		d, sz := uvarintAt(data, pos)
		pos += sz
		f, sz := uvarintAt(data, pos)
		pos += sz
		if delta {
			doc += DocID(d)
		} else {
			doc = DocID(d)
		}
		c := float64(f) * w
		if entity {
			// Eq. 2: we(e,r) = 1 + dScore when the entity was
			// recognized with positive confidence.
			we := 0.0
			if dScore := float64FromBytes(data[pos:]); dScore > 0 {
				we = 1 + dScore
			}
			pos += 8
			c *= we
		}
		a.visit(doc, c, admit)
	}
}

// plannedList is one planned dimension resolved against one index
// component: its posting list and its collection weight.
type plannedList struct {
	l *postingList
	w float64
}

// listSource looks posting lists up by key, nil when absent: an
// in-memory Index or a segment file.
type listSource interface {
	lookupTerm(t string) *postingList
	lookupEntity(e kb.EntityID) *postingList
}

// planLists resolves a plan against src's posting lists, in plan order
// (terms, then entities), skipping dimensions without postings.
func planLists(src listSource, plan queryPlan) []plannedList {
	out := make([]plannedList, 0, len(plan.terms)+len(plan.entities))
	for _, pt := range plan.terms {
		if l := src.lookupTerm(pt.term); l != nil && l.count > 0 {
			out = append(out, plannedList{l: l, w: pt.w})
		}
	}
	for _, pe := range plan.entities {
		if l := src.lookupEntity(pe.e); l != nil && l.count > 0 {
			out = append(out, plannedList{l: l, w: pe.w})
		}
	}
	return out
}

// scoreLists is the accumulation kernel: the positive matches of the
// planned lists under the accept filter, ordered by scoredLess and
// truncated to k. k <= 0 disables both the bound and the pruning (θ
// never activates), reducing to an exhaustive evaluation.
func scoreLists(lists []plannedList, k int, accept func(DocID) bool) ([]ScoredDoc, topkCounters) {
	// suffix[i] bounds the total contribution of lists i...
	suffix := make([]float64, len(lists)+1)
	for i := len(lists) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + lists[i].l.maxW*lists[i].w
	}

	a := newTopkAcc(k, accept)
	for i, pl := range lists {
		a.walk(pl.l, pl.w, suffix[i+1])
		a.settle(suffix[i+1])
	}

	out := make([]ScoredDoc, 0, len(a.scores))
	for d, s := range a.scores {
		if s > 0 {
			out = append(out, ScoredDoc{Doc: d, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return scoredLess(out[i], out[j]) })
	return truncate(out, k), a.topkCounters
}

// truncate bounds a ranking to its first k entries; k <= 0 keeps all.
func truncate(out []ScoredDoc, k int) []ScoredDoc {
	if k > 0 && len(out) > k {
		return out[:k]
	}
	return out
}

// uvarintAt decodes a uvarint at data[pos:].
func uvarintAt(data []byte, pos int) (uint64, int) {
	// Fast path: single-byte varints dominate delta streams.
	if b := data[pos]; b < 0x80 {
		return uint64(b), 1
	}
	v, n := uvarintSlow(data[pos:])
	return v, n
}

func uvarintSlow(b []byte) (uint64, int) {
	var v uint64
	for i, s := 0, uint(0); i < len(b); i, s = i+1, s+7 {
		c := b[i]
		if c < 0x80 {
			return v | uint64(c)<<s, i + 1
		}
		v |= uint64(c&0x7f) << s
	}
	return 0, 0
}
