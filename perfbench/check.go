package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"expertfind"
	"expertfind/internal/loadgen"
)

// goldenSeeds are the workload seeds whose hot pools the golden
// rankings cover: the default seed and one held out from tuning.
var goldenSeeds = []int64{1, 2}

//go:embed golden
var goldenFS embed.FS

// goldenFile is the committed form of one corpus's golden rankings.
type goldenFile struct {
	Corpus string  `json:"corpus"`
	Seeds  []int64 `json:"seeds"`
	// Rankings maps each need to its encoded ranking (encodeRanking).
	Rankings map[string]string `json:"rankings"`
}

// encodeRanking renders a ranking exactly: name, the score's float64
// bits in hex, and the supporting-resource count, per expert.
func encodeRanking(rs []expertfind.Expert) string {
	parts := make([]string, len(rs))
	for i, e := range rs {
		parts[i] = fmt.Sprintf("%s:%016x:%d", e.Name, math.Float64bits(e.Score), e.SupportingResources)
	}
	return strings.Join(parts, " ")
}

// decodeRanking inverts encodeRanking.
func decodeRanking(s string) ([]expertfind.Expert, error) {
	if s == "" {
		return nil, nil
	}
	var out []expertfind.Expert
	for _, p := range strings.Split(s, " ") {
		f := strings.Split(p, ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("golden entry %q: want name:bits:support", p)
		}
		bits, err := strconv.ParseUint(f[1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("golden entry %q: %v", p, err)
		}
		support, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("golden entry %q: %v", p, err)
		}
		out = append(out, expertfind.Expert{Name: f[0], Score: math.Float64frombits(bits), SupportingResources: support})
	}
	return out, nil
}

// sameRanking reports whether two rankings are identical bit for bit:
// same experts in the same order, same float64 score bits, same
// supporting-resource counts.
func sameRanking(a, b []expertfind.Expert) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
			a[i].SupportingResources != b[i].SupportingResources {
			return false
		}
	}
	return true
}

// plausibleRanking is the check for answers whose exact value moves
// while the corpus changes underneath (live ingest): every expert is
// a known candidate named once, with a positive finite score, best
// first. candidates maps each candidate name to a dense index; the
// names already seen are kept in a bitset on the stack, so the check
// allocates nothing on the measured path.
func plausibleRanking(rs []expertfind.Expert, candidates map[string]int) bool {
	var small [4]uint64
	seen := small[:]
	if n := (len(candidates) + 63) / 64; n > len(small) {
		seen = make([]uint64, n)
	}
	for i, e := range rs {
		c, known := candidates[e.Name]
		if !known || seen[c/64]&(1<<(c%64)) != 0 || !(e.Score > 0) || math.IsInf(e.Score, 0) || e.SupportingResources < 1 {
			return false
		}
		seen[c/64] |= 1 << (c % 64)
		if i > 0 && e.Score > rs[i-1].Score {
			return false
		}
	}
	return true
}

// reply is one answer of a workload's user-facing call. An in-process
// call gives the ranking itself. An HTTP call gives the raw /v1/find
// body in a pooled buffer: check compares it as bytes with the
// expected body and releases it, so the benchmark decodes no JSON on
// the measured path.
type reply struct {
	experts []expertfind.Expert
	body    *bytes.Buffer
}

// bodyPool recycles the buffers HTTP replies are read into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ranking returns the reply's ranking, decoding an HTTP body.
func (r reply) ranking() ([]expertfind.Expert, error) {
	if r.body == nil {
		return r.experts, nil
	}
	return decodeFindBody(r.body.Bytes())
}

// release returns an HTTP reply's buffer to the pool; the reply must
// not be used afterwards.
func (r reply) release() {
	if r.body != nil {
		bodyPool.Put(r.body)
	}
}

// decodeFindBody decodes the ranking of a /v1/find response body.
func decodeFindBody(body []byte) ([]expertfind.Expert, error) {
	var out struct {
		Experts []expertfind.Expert `json:"experts"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("GET /v1/find body: %v", err)
	}
	return out.Experts, nil
}

// goldenPath names a corpus's golden file inside the golden directory.
func goldenPath(corpus string) string { return "golden/" + corpus + ".json" }

// loadGolden returns the committed golden rankings of a corpus; ok is
// false when the corpus has none (non-default scales).
func loadGolden(corpus string) (map[string][]expertfind.Expert, bool, error) {
	raw, err := goldenFS.ReadFile(goldenPath(corpus))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var gf goldenFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		return nil, false, fmt.Errorf("golden %s: %v", corpus, err)
	}
	out := make(map[string][]expertfind.Expert, len(gf.Rankings))
	for need, enc := range gf.Rankings {
		r, err := decodeRanking(enc)
		if err != nil {
			return nil, false, fmt.Errorf("golden %s: %v", corpus, err)
		}
		out[need] = r
	}
	return out, true, nil
}

// goldenNeeds is the need set the golden rankings cover: the hot
// pools of every golden seed, deduplicated and sorted.
func goldenNeeds(src loadgen.Source) []string {
	set := map[string]bool{}
	for _, s := range goldenSeeds {
		for _, n := range loadgen.NewWorkload(loadgen.WorkloadConfig{Seed: s}, src).Pool() {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// saveGolden writes a corpus's golden rankings as indented JSON.
func saveGolden(dir, corpus string, rankings map[string][]expertfind.Expert) error {
	gf := goldenFile{Corpus: corpus, Seeds: goldenSeeds, Rankings: make(map[string]string, len(rankings))}
	for need, r := range rankings {
		gf.Rankings[need] = encodeRanking(r)
	}
	raw, err := json.MarshalIndent(gf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, corpus+".json"), append(raw, '\n'), 0o644)
}

// tally counts checked answers and the wrong ones; safe for
// concurrent use.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// record counts one answer, correct or not, and returns ok.
func (t *tally) record(ok bool) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
	}
	return ok
}
