package index

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// FuzzReadIndex feeds arbitrary bytes to the binary index reader: it
// must reject or accept without panicking, and anything it accepts
// must be a structurally valid index.
func FuzzReadIndex(f *testing.F) {
	var buf bytes.Buffer
	if _, err := randomIndex(1, 20).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("EFIX"))
	f.Add([]byte{})
	f.Add([]byte("EFIX\x01\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: basic invariants must hold.
		if ix.NumDocs() < 0 {
			t.Fatal("negative doc count")
		}
		for term, l := range ix.terms {
			if l.count > ix.NumDocs() {
				t.Fatalf("term %q has more postings than docs", term)
			}
		}
	})
}

// fuzzNeed derives an expertise need from raw fuzz input: whitespace
// fields become query terms (so corpus vocabulary can be seeded
// directly), entity ids and dScores are folded from the bytes.
func fuzzNeed(needText string, entitySeed uint32) analysis.Analyzed {
	need := analysis.Analyzed{
		Terms:    map[string]int{},
		Entities: map[kb.EntityID]analysis.EntityStats{},
	}
	for i, field := range strings.Fields(needText) {
		if i >= 12 {
			break
		}
		need.Terms[field] = 1 + i%3
	}
	for i := 0; i < int(entitySeed%5); i++ {
		id := kb.EntityID((int(entitySeed) + 13*i) % 60)
		need.Entities[id] = analysis.EntityStats{Freq: 1 + i, DScore: float64(entitySeed%101) / 100}
	}
	return need
}

// FuzzIndexScore throws arbitrary needs, alphas and ks at Search and
// checks the ranking contract: ordered by (score desc, doc asc), all
// scores positive and finite, every match indexed, and bit-identical
// to the test-only reference scorer (scorePlan) — exhaustive and
// truncated to k, on the sequential index and a 3-shard split of the
// same documents.
func FuzzIndexScore(f *testing.F) {
	// Seeds drawn from the synthetic corpus vocabulary and entity space.
	f.Add("swim pool train", uint32(7), uint8(60), uint8(5))
	f.Add("php code", uint32(0), uint8(0), uint8(0))
	f.Add("copper atom wave unseenterm", uint32(49), uint8(100), uint8(1))
	f.Add("", uint32(3), uint8(33), uint8(200))

	corpus := randomDocs(1, 120, 0)
	flat := flatFromDocs(corpus)
	sharded := NewSharded(3)
	sharded.AddBatch(corpus)

	f.Fuzz(func(t *testing.T, needText string, entitySeed uint32, alphaByte, kByte uint8) {
		alpha := float64(alphaByte%101) / 100
		need := fuzzNeed(needText, entitySeed)

		got := flat.Score(need, alpha)
		for i, sd := range got {
			if !(sd.Score > 0) || math.IsInf(sd.Score, 0) || math.IsNaN(sd.Score) {
				t.Fatalf("rank %d: bad score %v", i, sd.Score)
			}
			if !flat.Has(sd.Doc) {
				t.Fatalf("rank %d: unknown doc %d", i, sd.Doc)
			}
			if i > 0 && scoredLess(sd, got[i-1]) {
				t.Fatalf("ranking out of order at %d: %+v before %+v", i, got[i-1], sd)
			}
		}
		assertScoredBitIdentical(t, "oracle", oracle(flat, Query{Need: need, Alpha: alpha}), got)
		assertScoredBitIdentical(t, "sharded", got, sharded.Score(need, alpha))

		// The pruned top k must be the first k of the exhaustive
		// ranking, bit for bit, on both the monolith and the split.
		q := Query{Need: need, Alpha: alpha, K: int(kByte)}
		want := oracle(flat, q)
		assertScoredBitIdentical(t, "topk", want, flat.Search(q))
		assertScoredBitIdentical(t, "topk sharded", want, sharded.Search(q))
	})
}

// FuzzBlockPostingsRoundTrip builds blocked posting lists of both
// kinds from fuzzed postings inserted in a fuzz-chosen rotation and
// checks the storage contract the pruner relies on: the canonical
// encoding is byte-identical regardless of insertion order, decoding
// returns exactly the inserted postings, and every skip entry's
// (maxDoc, maxW) bounds its block's members.
func FuzzBlockPostingsRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 9, 0, 200}, uint8(0))
	f.Add([]byte{0, 0, 0}, uint8(7))
	f.Add(bytes.Repeat([]byte{5, 1, 128}, 300), uint8(130))

	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		var tps, eps []posting
		doc := DocID(0)
		for i := 0; i+2 < len(data) && len(tps) < 600; i += 3 {
			doc += DocID(data[i]%13) + 1 // strictly ascending: one posting per doc
			tf := int32(data[i+1]%7) + 1
			tps = append(tps, posting{doc: doc, f: tf})
			eps = append(eps, posting{doc: doc, f: tf, dScore: float64(data[i+2]) / 255})
		}
		if len(tps) == 0 {
			return
		}
		for _, kind := range []struct {
			entity bool
			ps     []posting
		}{{false, tps}, {true, eps}} {
			// Insert in a rotated order; the canonical form must not care.
			l := &postingList{entity: kind.entity}
			r := int(rot) % len(kind.ps)
			for i := range kind.ps {
				l.add(kind.ps[(i+r)%len(kind.ps)])
			}
			c := l.canonical()
			if want := newPostingList(kind.entity, kind.ps); !bytes.Equal(c.data, want.data) {
				t.Fatalf("entity=%v encoding differs by insertion order (rot %d, %d postings)", kind.entity, r, len(kind.ps))
			}

			// Decode round trip: sorted() must return the inserted postings.
			got := l.sorted()
			if len(got) != len(kind.ps) {
				t.Fatalf("entity=%v round trip lost postings: %d/%d", kind.entity, len(got), len(kind.ps))
			}
			for i := range got {
				if got[i] != kind.ps[i] {
					t.Fatalf("entity=%v posting %d: got %+v want %+v", kind.entity, i, got[i], kind.ps[i])
				}
			}

			// Bound soundness: list and block maxima dominate their members.
			checkBounds(t, c)
		}
	})
}

// checkBounds verifies a canonical list's skip entries against its
// postings: block i holds postings [i·blockSize, (i+1)·blockSize), so
// its maxDoc is its last doc and its maxW dominates every member.
func checkBounds(t *testing.T, l *postingList) {
	t.Helper()
	ps := l.decodeAll()
	for i, bm := range l.blocks {
		block := ps[i*blockSize : i*blockSize+bm.n]
		for _, p := range block {
			if w := l.weight(p); w > bm.maxW || w > l.maxW {
				t.Fatalf("block %d: weight %g above bounds (block %g, list %g)", i, w, bm.maxW, l.maxW)
			}
		}
		if last := block[len(block)-1].doc; last != bm.maxDoc {
			t.Fatalf("block %d: skip maxDoc %d, last doc %d", i, bm.maxDoc, last)
		}
	}
	if n := len(l.blocks); n > 0 && (n-1)*blockSize+l.blocks[n-1].n != len(ps) {
		t.Fatalf("blocks hold %d postings, list %d", (n-1)*blockSize+l.blocks[n-1].n, len(ps))
	}
}

// FuzzSearchBackends builds a random corpus with a fuzz-chosen size
// and shard count and answers one fuzz-chosen Query — k, accept mask,
// own or superset statistics — on the monolith, the Sharded index and
// the scatter split, requiring each to equal the reference scorer bit
// for bit.
func FuzzSearchBackends(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(4), uint8(4), "swim pool")
	f.Add(int64(3), int64(4), uint8(3), uint8(5), "php copper milan")
	f.Add(int64(5), int64(6), uint8(1), uint8(16), "train match game atom")

	f.Fuzz(func(t *testing.T, seed, layout int64, shards, kByte uint8, needText string) {
		n := int(shards%8) + 1
		docs := randomDocs(seed, 40+int((seed%7+7)%7)*10, 0)
		flat := flatFromDocs(docs)
		sharded := NewSharded(n)
		sharded.AddBatch(docs)
		scatter := splitByRoute(docs, n)

		q := Query{Need: fuzzNeed(needText, uint32(seed)+uint32(layout)), K: int(kByte % 40)}
		if mask := DocID(layout%5+5) % 5; mask > 0 {
			q.Accept = func(d DocID) bool { return d%(mask+1) != 0 }
		}
		if layout%2 != 0 {
			// Score under the statistics of a strict superset, as a
			// scatter shard does.
			q.Stats = globalStats(flatFromDocs(append(randomDocs(seed+1, 30, 50_000), docs...)))
		}
		for _, alpha := range []float64{0, 0.6, 1} {
			q.Alpha = alpha
			want := oracle(flat, q)
			assertScoredBitIdentical(t, "monolith", want, flat.Search(q))
			assertScoredBitIdentical(t, "sharded", want, sharded.Search(q))
			assertScoredBitIdentical(t, "scatter", want, scatterSearch(scatter, flat, q))
		}
	})
}
