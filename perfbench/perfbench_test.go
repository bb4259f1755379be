package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"expertfind"
)

func TestPercentileOnKnownSamples(t *testing.T) {
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(1000 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got, err := percentile(append([]float64(nil), thousand...), c.q)
		if err != nil || got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, %v; want %g", c.q, got, err, c.want)
		}
	}
	// 999 samples leave only 9 beyond the p99: too few to report it.
	if _, err := percentile(append([]float64(nil), thousand[:999]...), 0.99); err == nil {
		t.Errorf("p99 of 999 samples reported; want a refusal (9 samples beyond it)")
	}
	if got, err := percentile([]float64{3, 1, 2, 5, 4, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 0.5); err != nil || got != 11 {
		t.Errorf("median of 1..21 = %g, %v; want 11", got, err)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(1..4) = %g, want the mean of the middle two, 2.5", got)
	}
	if got := median([]float64{7, 5}); got != 6 {
		t.Errorf("median(7, 5) = %g, want 6", got)
	}
}

func TestFlippedScoreBitIsAFailure(t *testing.T) {
	want := []expertfind.Expert{
		{Name: "candidate-01", Score: 3.25, SupportingResources: 4},
		{Name: "candidate-02", Score: 1.5, SupportingResources: 2},
	}
	flipped := append([]expertfind.Expert(nil), want...)
	flipped[1].Score = math.Float64frombits(math.Float64bits(flipped[1].Score) ^ 1)
	if flipped[1].Score == want[1].Score {
		t.Fatal("flipping the low mantissa bit did not change the score")
	}

	b := &bench{
		stderr: io.Discard,
		inPool: map[string]bool{"need": true},
		ref:    map[string][]expertfind.Expert{"need": want},
	}
	e := &env{exact: true}
	b.check(e, "need", reply{experts: append([]expertfind.Expert(nil), want...)}, nil)
	b.check(e, "need", reply{experts: flipped}, nil)
	if a, f := b.tally.attempted.Load(), b.tally.failed.Load(); a != 2 || f != 1 {
		t.Fatalf("tally after one exact and one flipped answer: attempted %d failed %d; want 2 and 1", a, f)
	}
	res, err := buildResult([]metricDef{{"m", "ms", "lower"}}, map[string]float64{"m": 1}, b.tally.attempted.Load(), b.tally.failed.Load())
	if err != nil || res.Correct {
		t.Fatalf("result with a failed answer: correct=%v err=%v; want correct=false", res.Correct, err)
	}

	// The golden encoding keeps every bit.
	back, err := decodeRanking(encodeRanking(flipped))
	if err != nil || !sameRanking(back, flipped) || sameRanking(back, want) {
		t.Fatalf("golden encoding round trip lost the flipped bit: %v", err)
	}
}

func TestHTTPBodyCheck(t *testing.T) {
	want := []expertfind.Expert{{Name: "candidate-01", Score: 0.1 + 0.2, SupportingResources: 3}}
	flipped := append([]expertfind.Expert(nil), want...)
	flipped[0].Score = math.Float64frombits(math.Float64bits(flipped[0].Score) ^ 1)
	encode := func(rs []expertfind.Expert) []byte {
		raw, err := json.Marshal(map[string]any{"need": "need", "experts": rs})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	b := &bench{
		stderr:  io.Discard,
		inPool:  map[string]bool{"need": true},
		refBody: map[string][]byte{"need": encode(want)},
	}
	e := &env{exact: true}
	for _, body := range [][]byte{encode(want), encode(flipped)} {
		if !bytes.Equal(encode(want), body) {
			// The flipped bit must survive the JSON encoding, or the
			// byte comparison could not see it.
			got, err := decodeFindBody(body)
			if err != nil || !sameRanking(got, flipped) {
				t.Fatalf("JSON round trip lost the flipped bit: %v", err)
			}
		}
		b.check(e, "need", reply{body: bytes.NewBuffer(body)}, nil)
	}
	if a, f := b.tally.attempted.Load(), b.tally.failed.Load(); a != 2 || f != 1 {
		t.Fatalf("tally after one exact and one flipped body: attempted %d failed %d; want 2 and 1", a, f)
	}
}

// TestMeasuredPathChecksDoNotAllocate pins that checking a timed
// answer adds no allocations of the benchmark's own to
// allocs_per_find: a hot HTTP body compared as bytes, and a live
// ingest answer checked for plausibility.
func TestMeasuredPathChecksDoNotAllocate(t *testing.T) {
	ranking := []expertfind.Expert{
		{Name: "a", Score: 2, SupportingResources: 1},
		{Name: "b", Score: 1, SupportingResources: 2},
	}
	ref := []byte(`{"need":"need","experts":[]}`)
	b := &bench{
		stderr:     io.Discard,
		inPool:     map[string]bool{"need": true},
		refBody:    map[string][]byte{"need": ref},
		candidates: map[string]int{"a": 0, "b": 1},
	}
	httpEnv, ingestEnv := &env{exact: true}, &env{exact: false}
	allocs := testing.AllocsPerRun(200, func() {
		body := bodyPool.Get().(*bytes.Buffer)
		body.Reset()
		body.Write(ref)
		b.check(httpEnv, "need", reply{body: body}, nil)
		b.check(ingestEnv, "need", reply{experts: ranking}, nil)
	})
	if allocs != 0 {
		t.Errorf("checking a timed answer allocates %g times, want 0", allocs)
	}
	if f := b.tally.failed.Load(); f != 0 {
		t.Errorf("%d correct answers counted as failed", f)
	}
	dup := []expertfind.Expert{ranking[0], ranking[0]}
	if plausibleRanking(dup, b.candidates) {
		t.Error("a ranking naming one expert twice passed the plausibility check")
	}
}

func TestGoldenFilesCoverBothSeeds(t *testing.T) {
	for _, corpus := range []string{"seg10", "mem-s0.8"} {
		g, ok, err := loadGolden(corpus)
		if err != nil || !ok {
			t.Fatalf("golden %s: ok=%v err=%v", corpus, ok, err)
		}
		// 30 evaluation queries shared by both pools plus 34 synthetic
		// needs per seed.
		if len(g) != 98 {
			t.Errorf("golden %s has %d needs, want 98", corpus, len(g))
		}
	}
}

// benchmarkJSON mirrors the parts of BENCHMARK.json the code must
// agree with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code %s", got, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i := 0; i < len(bj.EndToEnd) && i < len(endToEnd); i++ {
		m, d := bj.EndToEnd[i], endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, code %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, code %d", len(bj.PerLayer), len(perLayer))
	}
	for i := 0; i < len(bj.PerLayer) && i < len(perLayer); i++ {
		m, d := bj.PerLayer[i], perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, code %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "perfbench" {
		t.Errorf("BENCHMARK.json paths %v, want [perfbench]", bj.Paths)
	}
}

// TestTinyWorkloads runs every workload end to end at a tiny corpus
// scale, untraced and traced, through the command's flag parsing and
// run, and checks the result line: correct, and every metric of the
// catalog present with its unit.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three corpora")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				// At tiny scale a second of load is enough for a p99 only
				// at a higher arrival rate than the pinned one.
				defer func(rate float64) { w.openRate = rate }(w.openRate)
				w.openRate = 1000
				var stderr bytes.Buffer
				args := []string{
					"--workload", w.name, "--seed", "3", "--seconds", "2", "--trace", trace,
					"--trace-out", t.TempDir(), "--work-dir", t.TempDir(),
				}
				o, err := parseFlags(args, &stderr)
				if err != nil {
					t.Fatal(err)
				}
				// The command line always runs the pinned scale; the
				// tiny scale is set here, and has no pin or golden file.
				o.scale = 0.1
				res, err := run(o, &stderr)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, tail(&stderr))
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				res = result{}
				if err := json.Unmarshal(line, &res); err != nil {
					t.Fatalf("result line does not decode: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, tail(&stderr))
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, catalog has %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: printed=%v unit %q, want unit %q", d.name, ok, m.Unit, d.unit)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

func TestBadUsageExitsNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "mem-http", "--trace", "2"},
		{"--workload", "mem-http", "--seconds", "0"},
		{"--workload", "mem-http", "--scale", "0.1"},
	} {
		if code := realMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func tail(b *bytes.Buffer) string {
	s := b.String()
	if len(s) > 4000 {
		s = s[len(s)-4000:]
	}
	return s
}
