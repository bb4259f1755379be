package index

import "sort"

// scorePlan is the reference accumulator the production kernel
// (scoreLists) is tested against: a plain map accumulator over every
// posting, decoded by the list's own forEach rather than the kernel's
// block walker, with no pruning, no accept filter and no bound. It
// returns the positive matches ordered by descending score (ties
// broken by ascending DocID), plus the number of postings walked.
func (ix *Index) scorePlan(plan queryPlan) ([]ScoredDoc, int) {
	scores := make(map[DocID]float64)
	postings := 0

	for _, pt := range plan.terms {
		l := ix.terms[pt.term]
		if l == nil {
			continue
		}
		postings += l.count
		w := pt.w
		l.forEach(func(p posting) {
			scores[p.doc] += float64(p.f) * w
		})
	}
	for _, pe := range plan.entities {
		l := ix.entities[pe.e]
		if l == nil {
			continue
		}
		postings += l.count
		w := pe.w
		l.forEach(func(p posting) {
			// Eq. 2: we(e,r) = 1 + dScore when the entity was
			// recognized with positive confidence.
			we := 0.0
			if p.dScore > 0 {
				we = 1 + p.dScore
			}
			scores[p.doc] += float64(p.f) * w * we
		})
	}

	out := make([]ScoredDoc, 0, len(scores))
	for d, s := range scores {
		if s > 0 {
			out = append(out, ScoredDoc{Doc: d, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return scoredLess(out[i], out[j]) })
	return out, postings
}

// oracle is the reference answer to q over ix: scorePlan's exhaustive
// ranking under q's statistics, filtered by q.Accept and truncated to
// q.K. Every backend's Search must equal it bit for bit.
func oracle(ix *Index, q Query) []ScoredDoc {
	full, _ := ix.scorePlan(q.plan(ix))
	out := full[:0:0]
	for _, sd := range full {
		if q.Accept == nil || q.Accept(sd.Doc) {
			out = append(out, sd)
		}
	}
	if q.K > 0 && len(out) > q.K {
		out = out[:q.K]
	}
	return out
}
