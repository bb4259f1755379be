package index

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// Streaming segment merge. writeMerged serializes the union of several
// index components — in-memory indexes and/or on-disk segments, each
// with a set of dropped (tombstoned) documents — into one v2 codec
// file without ever materializing the merged index: only one posting
// list is resident at a time. The output is canonical, so merging any
// partition of a document set produces the byte-identical file a
// monolithic Index over the same live documents would write.

// mergeSource is the read view of one index component for a streaming
// merge: doc ids and dictionary entries in canonical order, posting
// lists materialized one at a time, and the set of dropped documents
// the merge filters out.
type mergeSource interface {
	listSource
	// liveDocs returns the component's non-dropped doc ids, ascending.
	liveDocs() []int64
	// termNames returns the dictionary in lexicographic order.
	termNames() []string
	// entityIDs returns the entity dictionary in ascending id order.
	entityIDs() []int64
	// dropped reports whether d is tombstoned in this component.
	dropped(d DocID) bool
}

// livePostings returns the postings of src's list in ascending doc
// order, minus src's dropped documents (nil for a nil list).
func livePostings(src mergeSource, l *postingList) []posting {
	if l == nil {
		return nil
	}
	ps := l.sorted()
	kept := ps[:0]
	for _, p := range ps {
		if !src.dropped(p.doc) {
			kept = append(kept, p)
		}
	}
	return kept
}

// dropSet marks the tombstoned documents of a merge source; nil drops
// nothing.
type dropSet map[DocID]analysis.Analyzed

func (s dropSet) dropped(d DocID) bool {
	_, ok := s[d]
	return ok
}

// indexMergeSource adapts an in-memory Index (a memtable or a frozen
// segment awaiting its disk file) to mergeSource.
type indexMergeSource struct {
	ix *Index
	dropSet
}

func (s indexMergeSource) liveDocs() []int64 {
	out := make([]int64, 0, len(s.ix.docs))
	for d := range s.ix.docs {
		if !s.dropped(d) {
			out = append(out, int64(d))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s indexMergeSource) termNames() []string {
	out := make([]string, 0, len(s.ix.terms))
	for t := range s.ix.terms {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (s indexMergeSource) lookupTerm(t string) *postingList { return s.ix.lookupTerm(t) }

func (s indexMergeSource) lookupEntity(e kb.EntityID) *postingList { return s.ix.lookupEntity(e) }

func (s indexMergeSource) entityIDs() []int64 {
	out := make([]int64, 0, len(s.ix.entities))
	for e := range s.ix.entities {
		out = append(out, int64(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeListBody serializes one list body — postings count, block
// count, and the blocks with their skip entries — exactly as
// Index.WriteTo lays it out. l must be canonical (sealed, no tail).
// Block bounds are uvarints for terms (the max tf) and float64s (8
// bytes little endian) for entities.
func writeListBody(cw *countWriter, l *postingList) error {
	writeUvarint(cw, uint64(l.count))
	writeUvarint(cw, uint64(len(l.blocks)))
	prevMax := DocID(0)
	var f8 [8]byte
	for i, bm := range l.blocks {
		writeUvarint(cw, uint64(bm.n))
		writeUvarint(cw, uint64(bm.maxDoc-prevMax))
		if l.entity {
			cw.Write(appendFloat64(f8[:0], bm.maxW))
		} else {
			writeUvarint(cw, uint64(bm.maxW))
		}
		data := l.data[bm.off:l.blockEnd(i)]
		writeUvarint(cw, uint64(len(data)))
		cw.Write(data)
		prevMax = bm.maxDoc
	}
	return cw.err
}

// writeMerged streams the live union of srcs to w in the v2 codec
// format. The sources' live document sets must be disjoint (the store
// guarantees at most one live occurrence of any document). Dictionary
// sections are prefixed by their entry count, which is only known
// after tombstone filtering, so list bodies are staged in spill (an
// empty temp file, rewound and truncated in place) and copied behind
// the count; peak memory is one merged posting list.
func writeMerged(w io.Writer, spill *os.File, srcs []mergeSource) (int64, error) {
	cw := &countWriter{w: bufio.NewWriter(w)}

	if _, err := cw.Write([]byte(codecMagic)); err != nil {
		return cw.n, err
	}
	writeUvarint(cw, codecVersion)

	// Documents: per-source slices are sorted and pairwise disjoint.
	var docs []int64
	for _, s := range srcs {
		docs = append(docs, s.liveDocs()...)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	for i := 1; i < len(docs); i++ {
		if docs[i] == docs[i-1] {
			return cw.n, fmt.Errorf("index: merge sources share live doc %d", docs[i])
		}
	}
	writeUvarint(cw, uint64(len(docs)))
	prev := int64(0)
	for i, d := range docs {
		delta := d
		if i > 0 {
			delta = d - prev
		}
		writeUvarint(cw, uint64(delta))
		prev = d
	}

	// Terms.
	names := map[string]struct{}{}
	for _, s := range srcs {
		for _, t := range s.termNames() {
			names[t] = struct{}{}
		}
	}
	terms := make([]string, 0, len(names))
	for t := range names {
		terms = append(terms, t)
	}
	sort.Strings(terms)

	kept, err := spillSection(spill, len(terms), func(sw *countWriter, i int) (bool, error) {
		t := terms[i]
		var ps []posting
		for _, s := range srcs {
			ps = append(ps, livePostings(s, s.lookupTerm(t))...)
		}
		if len(ps) == 0 {
			return false, nil
		}
		writeUvarint(sw, uint64(len(t)))
		if _, err := sw.Write([]byte(t)); err != nil {
			return false, err
		}
		return true, writeListBody(sw, newPostingList(false, ps))
	})
	if err != nil {
		return cw.n, err
	}
	writeUvarint(cw, uint64(kept))
	if err := copySpill(cw, spill); err != nil {
		return cw.n, err
	}

	// Entities.
	ids := map[int64]struct{}{}
	for _, s := range srcs {
		for _, e := range s.entityIDs() {
			ids[e] = struct{}{}
		}
	}
	ents := make([]int64, 0, len(ids))
	for e := range ids {
		ents = append(ents, e)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i] < ents[j] })

	kept, err = spillSection(spill, len(ents), func(sw *countWriter, i int) (bool, error) {
		e := kb.EntityID(ents[i])
		var ps []posting
		for _, s := range srcs {
			ps = append(ps, livePostings(s, s.lookupEntity(e))...)
		}
		if len(ps) == 0 {
			return false, nil
		}
		writeUvarint(sw, uint64(ents[i]))
		return true, writeListBody(sw, newPostingList(true, ps))
	})
	if err != nil {
		return cw.n, err
	}
	writeUvarint(cw, uint64(kept))
	if err := copySpill(cw, spill); err != nil {
		return cw.n, err
	}

	if cw.err != nil {
		return cw.n, cw.err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// spillSection rewinds and truncates spill, then writes n dictionary
// entries through emit (which reports whether it wrote anything),
// returning how many entries survived.
func spillSection(spill *os.File, n int, emit func(sw *countWriter, i int) (bool, error)) (int, error) {
	if err := spill.Truncate(0); err != nil {
		return 0, err
	}
	if _, err := spill.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(spill)
	sw := &countWriter{w: bw}
	kept := 0
	for i := 0; i < n; i++ {
		wrote, err := emit(sw, i)
		if err != nil {
			return 0, err
		}
		if wrote {
			kept++
		}
	}
	if sw.err != nil {
		return 0, sw.err
	}
	return kept, bw.Flush()
}

// copySpill appends the staged section to the main writer.
func copySpill(cw *countWriter, spill *os.File) error {
	if _, err := spill.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := io.Copy(cw, spill); err != nil {
		return err
	}
	return cw.err
}
