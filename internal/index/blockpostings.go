package index

import (
	"encoding/binary"
	"math"
	"sort"
)

// Blocked posting lists. Each list keeps its postings in two regions:
//
//   - a sealed region of fixed-size blocks, delta-encoded on ascending
//     DocID (uvarint deltas, each block's base is the previous block's
//     maximum doc id), with one skip entry per block recording the
//     block's byte offset, posting count, maximum doc id and maximum
//     weightless posting score;
//   - a small unsorted tail of recent Add/Merge postings, in the same
//     per-posting byte layout but with absolute doc ids.
//
// Sealing happens at build time (Add/Merge), never during scoring, so
// concurrent searches stay read-only. The tail is folded into the
// sealed region whenever it reaches max(blockSize, sealed/4) postings,
// which keeps re-encoding amortized near O(n log n) over a build.
//
// One list type serves terms and entities; its kind picks the
// per-posting layout and the contribution to Eq. (1):
//
//	term:   docDelta uvarint, tf uvarint                  → tf·w
//	entity: docDelta uvarint, ef uvarint, dScore float64  → ef·w·we
//
// The skip entries are what the top-k pruner consumes: the "weightless"
// score of a posting is its contribution with the query weight divided
// out — tf for a term posting, ef·we for an entity posting — so
// multiplying a block's maximum by the planned weight bounds every
// member's contribution without decoding the block.

// blockSize is the number of postings per sealed block. 128 keeps a
// block within a few cache lines when decoded while making the
// per-block skip metadata (~32 bytes) a <2% overhead.
const blockSize = 128

// blockMeta is one sealed block's skip entry.
type blockMeta struct {
	off    int     // byte offset of the block in the list's data
	n      int     // postings in the block
	maxDoc DocID   // maximum (= last) doc id in the block
	maxW   float64 // maximum weightless posting score in the block
}

// posting is one decoded posting: f is the term frequency tf or the
// entity frequency ef; dScore is the disambiguation confidence of an
// entity posting (always 0 for a term posting).
type posting struct {
	doc    DocID
	f      int32
	dScore float64
}

// postingList is a blocked posting list for one term or one entity.
type postingList struct {
	entity bool // kind: entity postings carry dScore and weigh ef·we
	data   []byte
	blocks []blockMeta
	tail   []byte // unsorted recent postings, absolute doc ids
	tailN  int    // postings in tail
	count  int    // total postings, sealed + tail
	maxW   float64
}

// weight is the weightless Eq. (1) contribution of a posting of this
// list's kind: tf for a term, ef·we for an entity, with we = 1+dScore
// for positive disambiguation confidence and 0 otherwise (Eq. 2).
func (l *postingList) weight(p posting) float64 {
	if !l.entity {
		return float64(p.f)
	}
	if p.dScore > 0 {
		return float64(p.f) * (1 + p.dScore)
	}
	return 0
}

// appendPosting appends p in this list's per-posting layout, with doc
// written as docVal (a delta in the sealed region, absolute in the
// tail).
func (l *postingList) appendPosting(b []byte, p posting, docVal DocID) []byte {
	b = binary.AppendUvarint(b, uint64(docVal))
	b = binary.AppendUvarint(b, uint64(p.f))
	if l.entity {
		b = appendFloat64(b, p.dScore)
	}
	return b
}

// sealDue reports whether a tail of t postings over a list of count
// total postings should be folded into the sealed region.
func sealDue(t, count int) bool {
	sealed := count - t
	return t >= blockSize && t*4 >= sealed
}

func (l *postingList) add(p posting) {
	l.tail = l.appendPosting(l.tail, p, p.doc)
	l.tailN++
	l.count++
	if w := l.weight(p); w > l.maxW {
		l.maxW = w
	}
	if sealDue(l.tailN, l.count) {
		l.encode(sortPostings(l.decodeAll()))
	}
}

// decodeAll returns every posting, sealed region first (in doc order)
// then the tail (in insertion order).
func (l *postingList) decodeAll() []posting {
	out := make([]posting, 0, l.count)
	l.forEach(func(p posting) { out = append(out, p) })
	return out
}

// encode rebuilds the sealed region from postings sorted by ascending
// doc id and clears the tail. The layout is canonical: block boundaries
// fall every blockSize postings regardless of the insertion history, so
// two lists holding the same postings encode byte-identically.
func (l *postingList) encode(ps []posting) {
	l.data = l.data[:0]
	l.blocks = l.blocks[:0]
	prev := DocID(0)
	for start := 0; start < len(ps); start += blockSize {
		end := min(start+blockSize, len(ps))
		bm := blockMeta{off: len(l.data), n: end - start}
		for _, p := range ps[start:end] {
			l.data = l.appendPosting(l.data, p, p.doc-prev)
			prev = p.doc
			bm.maxW = max(bm.maxW, l.weight(p))
		}
		bm.maxDoc = prev
		l.blocks = append(l.blocks, bm)
	}
	l.tail, l.tailN = nil, 0
	l.count = len(ps)
}

// blockEnd returns the byte offset one past block i.
func (l *postingList) blockEnd(i int) int {
	if i+1 < len(l.blocks) {
		return l.blocks[i+1].off
	}
	return len(l.data)
}

// forEach visits every posting: sealed blocks in doc order, then the
// tail in insertion order. A document appears at most once per list, so
// per-document accumulation order is unaffected by the region split.
func (l *postingList) forEach(fn func(posting)) {
	decode := func(data []byte, n int, delta bool) {
		pos, prev := 0, DocID(0)
		for j := 0; j < n; j++ {
			d, sz := binary.Uvarint(data[pos:])
			pos += sz
			f, sz := binary.Uvarint(data[pos:])
			pos += sz
			if delta {
				prev += DocID(d)
			} else {
				prev = DocID(d)
			}
			p := posting{doc: prev, f: int32(f)}
			if l.entity {
				p.dScore = float64FromBytes(data[pos:])
				pos += 8
			}
			fn(p)
		}
	}
	decode(l.data, l.count-l.tailN, true)
	decode(l.tail, l.tailN, false)
}

// sorted returns every posting in ascending doc order — the canonical
// form the codec serializes.
func (l *postingList) sorted() []posting {
	if l.tailN == 0 {
		return l.decodeAll()
	}
	return sortPostings(l.decodeAll())
}

// canonical returns the list in canonical sealed form (no tail,
// blocks re-encoded from fully sorted postings) — the form the codec
// serializes. Lists with an empty tail are already canonical.
func (l *postingList) canonical() *postingList {
	if l.tailN == 0 {
		return l
	}
	c := &postingList{entity: l.entity, maxW: l.maxW}
	c.encode(l.sorted())
	return c
}

// newPostingList builds a list of the given kind from postings in
// arbitrary order, fully sealed into canonical blocks.
func newPostingList(entity bool, ps []posting) *postingList {
	l := &postingList{entity: entity}
	for _, p := range ps {
		l.maxW = max(l.maxW, l.weight(p))
	}
	l.encode(sortPostings(append([]posting(nil), ps...)))
	return l
}

// sortPostings sorts postings by ascending doc id, in place.
func sortPostings(ps []posting) []posting {
	sort.Slice(ps, func(i, j int) bool { return ps[i].doc < ps[j].doc })
	return ps
}

// appendFloat64 appends v's IEEE-754 bits, little endian.
func appendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// float64FromBytes reads the float64 appendFloat64 wrote.
func float64FromBytes(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
