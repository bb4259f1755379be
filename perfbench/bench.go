package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"expertfind"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/loadgen"
)

// openBase offsets the open loop's stream sequence numbers, so the
// open loop (and the traced replay of it) asks the same needs however
// many requests the closed loop completed.
const openBase = 1 << 32

// bench is the state of one run.
type bench struct {
	o      options
	w      *workload
	stderr io.Writer
	tally  tally
	// layer collects the per-layer metric values.
	layer map[string]float64

	stream *needStream
	pool   []string
	inPool map[string]bool
	ref    map[string][]expertfind.Expert
	// refBody is the expected /v1/find body of every hot-pool need on
	// HTTP workloads, checked once against ref when it is recorded.
	refBody map[string][]byte
	// candidates maps each candidate name to a dense index.
	candidates map[string]int
	params     core.Params

	// deferred holds cold-tail answers of exact workloads until
	// checkDeferred computes their references.
	mu       sync.Mutex
	deferred []answer
}

// poolSeed pins the hot pool: every run asks the hot needs of this
// seed's pool, which the golden rankings cover.
const poolSeed = 1

// needStream is the request stream of a run: the loadgen stream of the
// run's seed — Zipf(1.2) over the hot-pool ranks plus the cold tail —
// with each hot need replaced by the need of the same rank in the
// pinned pool. The seed still decides which rank every request asks
// and what the cold tail says; the pinned pool keeps the mix of cheap
// and costly needs from changing with the seed, and gives every hot
// answer a committed golden ranking.
type needStream struct {
	w    *loadgen.Workload
	rank map[string]int
	pool []string
}

func newNeedStream(seed int64, src loadgen.Source) *needStream {
	w := loadgen.NewWorkload(loadgen.WorkloadConfig{Seed: seed}, src)
	s := &needStream{w: w, rank: map[string]int{}}
	s.pool = loadgen.NewWorkload(loadgen.WorkloadConfig{Seed: poolSeed}, src).Pool()
	for r, need := range w.Pool() {
		if _, dup := s.rank[need]; !dup {
			s.rank[need] = r
		}
	}
	return s
}

// Need returns the need of request seq.
func (s *needStream) Need(seq uint64) string {
	need := s.w.Need(seq)
	if r, ok := s.rank[need]; ok {
		return s.pool[r]
	}
	return need
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.stderr, "perfbench: "+format+"\n", args...)
}

// rounds is how many closed-loop/open-loop window pairs a run
// interleaves, so both loops sample the same stretches of machine
// conditions.
const rounds = 5

// phase is what the untraced measured phases observed.
type phase struct {
	qps        []float64
	closedN    int64
	closedWall time.Duration
	lat, late  []float64
	skipped    int
	finds      int64
	cache      map[string]int64
	counters   counters
	// gc is the runtime's work over all timed phases; openAlloc the
	// allocations of the open-loop windows alone, whose fixed request
	// schedule keeps the work mix per find independent of machine
	// speed (in a closed loop a faster machine fits more cache hits
	// between two ingest rounds).
	gc, openAlloc runtimeStats
}

// run executes one benchmark run and returns its result line.
func run(o options, stderr io.Writer) (result, error) {
	w := findWorkload(o.workload)
	scale := w.scale
	if o.scale > 0 {
		scale = o.scale
	}
	b := &bench{o: o, w: w, stderr: stderr, layer: map[string]float64{}}
	for _, d := range perLayer {
		b.layer[d.name] = 0
	}
	ctx := context.Background()
	heap := startHeapWatcher()
	defer heap.close()

	e, setupS, err := b.setup(scale)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	if scale == w.scale {
		if err := b.checkPin(e); err != nil {
			return result{}, err
		}
	}
	if err := b.prepare(ctx, e, scale == w.scale); err != nil {
		return result{}, err
	}
	if e.ingest != nil {
		if err := e.ingest.attach(e.sys, o.seed); err != nil {
			return result{}, err
		}
	}

	ph := b.measure(ctx, e)
	var values map[string]float64
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if err := b.traced(ctx, e, ph); err != nil {
			return result{}, err
		}
	}
	if err := b.checkDeferred(ctx, e); err != nil {
		return result{}, err
	}
	if e.finish != nil {
		if err := e.finish(ctx, b); err != nil {
			return result{}, err
		}
	}
	// The peak is read before the closing differential, which builds
	// a second system of its own and is no part of the workload.
	peak := heap.close()
	if e.verify != nil {
		if err := e.verify(ctx, b); err != nil {
			return result{}, err
		}
	}

	if o.trace {
		values = b.layer
		values["error_rate"] = float64(b.tally.failed.Load()) / float64(b.tally.attempted.Load())
	} else {
		values, err = b.endToEnd(ph, setupS, peak)
		if err != nil {
			return result{}, err
		}
	}
	b.logf("%s seed %d: %d answers checked, %d wrong or failed", w.name, o.seed, b.tally.attempted.Load(), b.tally.failed.Load())
	return buildResult(defs, values, b.tally.attempted.Load(), b.tally.failed.Load())
}

// setup builds the workload setupReps times and keeps the last build;
// setup_s is the median build time. Earlier builds are released, and
// collected outside the timed region, before the next one starts.
func (b *bench) setup(scale float64) (*env, float64, error) {
	var times, gens []float64
	var e *env
	for i := 0; i < b.w.setupReps; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		e, err = b.w.setup(b, scale)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", b.w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		gens = append(gens, e.generateS)
	}
	setupS := median(times)
	b.logf("%s set-up: %v s (median of %d)", b.w.name, times, len(times))
	if b.o.trace {
		gen := median(gens)
		if gen == 0 {
			// In-memory set-up generates inside NewSystem; time the
			// same generation on its own to split the two.
			t0 := time.Now()
			dataset.Generate(dataset.Config{Seed: corpusSeed, Scale: scale})
			gen = time.Since(t0).Seconds()
		}
		b.layer["setup.generate_s"] = gen
		b.layer["setup.build_s"] = math.Max(setupS-gen, 0)
		if e.structure != nil {
			st := e.structure()
			b.layer["index.segments"] = float64(len(st.Segments))
			b.layer["index.seals"] = float64(st.Seals)
			b.layer["index.disk_mb"] = float64(st.DiskBytes) / (1 << 20)
		}
	}
	return e, setupS, nil
}

// checkPin fails the run when the corpus is not the recorded one.
func (b *bench) checkPin(e *env) error {
	st := e.sys.Stats()
	got := corpusPin{
		candidates: st.Candidates, resources: st.Resources, indexed: st.Indexed,
		users: st.Users, webPages: st.WebPages,
	}
	if e.structure != nil {
		got.segments = len(e.structure().Segments)
	}
	if got != b.w.pin {
		return fmt.Errorf("%s corpus is %+v, pinned %+v: the generator changed the workload", b.w.name, got, b.w.pin)
	}
	return nil
}

// prepare derives the request stream from the workload seed, checks
// the golden rankings, and computes the reference answer of every
// hot-pool need. It doubles as the warm-up: every hot need has been
// asked once before timing starts.
func (b *bench) prepare(ctx context.Context, e *env, pinned bool) error {
	params, err := expertfind.ResolveParams()
	if err != nil {
		return err
	}
	b.params = params
	b.stream = newNeedStream(b.o.seed, loadgen.SystemSource(e.sys))
	b.pool = b.stream.pool
	b.inPool = make(map[string]bool, len(b.pool))
	for _, n := range b.pool {
		b.inPool[n] = true
	}
	b.candidates = make(map[string]int)
	for i, c := range e.sys.Candidates() {
		b.candidates[c] = i
	}

	b.ref = make(map[string][]expertfind.Expert, len(b.pool))
	if pinned {
		golden, ok, err := loadGolden(b.w.corpus)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no golden rankings for corpus %s", b.w.corpus)
		}
		needs := make([]string, 0, len(golden))
		for n := range golden {
			needs = append(needs, n)
		}
		sort.Strings(needs)
		for _, need := range needs {
			got, _, err := e.sys.FindCachedContext(ctx, need)
			if !b.tally.record(err == nil && sameRanking(got, golden[need])) {
				b.logf("golden: ranking for %q differs from the committed one (err %v)", need, err)
			}
			if b.inPool[need] {
				b.ref[need] = golden[need]
			}
		}
	}
	for _, need := range b.pool {
		if _, ok := b.ref[need]; ok {
			continue
		}
		got, _, err := e.sys.FindCachedContext(ctx, need)
		if err != nil {
			return fmt.Errorf("reference answer for %q: %w", need, err)
		}
		b.ref[need] = got
	}
	if e.overHTTP {
		// Record each hot need's /v1/find body once, after checking
		// that it decodes to the reference ranking bit for bit; timed
		// answers are then compared with it byte for byte.
		b.refBody = make(map[string][]byte, len(b.pool))
		for _, need := range b.pool {
			rep, _, err := e.find(ctx, need)
			if err != nil {
				return fmt.Errorf("reference body for %q: %w", need, err)
			}
			got, err := rep.ranking()
			if !b.tally.record(err == nil && sameRanking(got, b.ref[need])) {
				b.logf("GET /v1/find for %q differs from the reference ranking (err %v)", need, err)
			}
			b.refBody[need] = bytes.Clone(rep.body.Bytes())
			rep.release()
		}
	}
	return nil
}

// answer is one answer kept for a later check: a ranking, or the raw
// body of an HTTP answer.
type answer struct {
	need string
	got  []expertfind.Expert
	body []byte
}

// check counts one answer to a stream need and releases the reply. A
// hot need's answer must equal its reference bit for bit (on HTTP, its
// body must equal the reference body byte for byte) or, while live
// ingest moves the corpus, be a well-formed ranking. A cold-tail need
// is new to the run, so on exact workloads its answer is kept and
// checked by checkDeferred against the same need asked in process
// once the timed phases are over: computing its reference costs no
// measured time.
func (b *bench) check(e *env, need string, rep reply, err error) bool {
	defer rep.release()
	var ok bool
	switch {
	case err != nil:
		ok = false
	case !e.exact:
		ok = plausibleRanking(rep.experts, b.candidates)
	case b.inPool[need] && rep.body != nil:
		ok = bytes.Equal(rep.body.Bytes(), b.refBody[need])
	case b.inPool[need]:
		ok = sameRanking(rep.experts, b.ref[need])
	default:
		kept := answer{need: need, got: rep.experts}
		if rep.body != nil {
			kept.body = bytes.Clone(rep.body.Bytes())
		}
		b.mu.Lock()
		b.deferred = append(b.deferred, kept)
		b.mu.Unlock()
		return true
	}
	if !b.tally.record(ok) {
		b.logf("wrong answer for %q (err %v)", need, err)
	}
	return ok
}

// checkDeferred checks the kept cold-tail answers.
func (b *bench) checkDeferred(ctx context.Context, e *env) error {
	b.mu.Lock()
	kept := b.deferred
	b.deferred = nil
	b.mu.Unlock()
	refs := map[string][]expertfind.Expert{}
	for _, a := range kept {
		ref, ok := refs[a.need]
		if !ok {
			var err error
			if ref, _, err = e.sys.FindCachedContext(ctx, a.need); err != nil {
				return fmt.Errorf("reference answer for %q: %w", a.need, err)
			}
			refs[a.need] = ref
		}
		got, err := a.got, error(nil)
		if a.body != nil {
			got, err = decodeFindBody(a.body)
		}
		if !b.tally.record(err == nil && sameRanking(got, ref)) {
			b.logf("wrong answer for cold need %q (err %v)", a.need, err)
		}
	}
	return nil
}

// replayPool asks every hot-pool need again on sys and checks the
// answers against the references (after compaction, after reopen).
func (b *bench) replayPool(ctx context.Context, sys *expertfind.System) {
	for _, need := range b.pool {
		got, _, err := sys.FindCachedContext(ctx, need)
		if !b.tally.record(err == nil && sameRanking(got, b.ref[need])) {
			b.logf("replay: ranking for %q changed (err %v)", need, err)
		}
	}
}

// measure runs the untraced phases: rounds pairs of a closed-loop
// window (closedShare of the run) and an open-loop window at the
// workload's fixed rate (the rest), with the workload's live ingest,
// if any, running beside them.
func (b *bench) measure(ctx context.Context, e *env) *phase {
	ph := &phase{cache: map[string]int64{}}
	var hits, misses, coalesced atomic.Int64
	do := func(ctx context.Context, seq uint64) bool {
		need := b.stream.Need(seq)
		rep, status, err := e.find(ctx, need)
		switch status {
		case string(core.CacheHit):
			hits.Add(1)
		case string(core.CacheMiss):
			misses.Add(1)
		case string(core.CacheCoalesced):
			coalesced.Add(1)
		}
		return b.check(e, need, rep, err)
	}
	window := time.Duration(b.o.seconds * float64(time.Second) / rounds)
	closedDur := time.Duration(float64(window) * b.w.closedShare)
	openDur := window - closedDur
	nOpen := int(math.Round(b.w.openRate * openDur.Seconds()))

	before := readCounters()
	gc0 := readRuntime()
	for r := 0; r < rounds; r++ {
		stop := b.ingestDuring(ctx, e, closedDur)
		n, wall := closedLoop(ctx, closedDur, uint64(ph.closedN), do)
		stop()
		ph.closedN += n
		ph.closedWall += wall
		ph.qps = append(ph.qps, float64(n)/wall.Seconds())
		// A run that falls far behind schedule stops issuing; the
		// requests it never sent count as failed.
		octx, cancel := context.WithTimeout(ctx, 3*openDur+10*time.Second)
		stop = b.ingestDuring(ctx, e, openDur)
		rt0 := readRuntime()
		lat, late, skipped := openLoop(octx, b.w.openRate, nOpen, openBase+uint64(r*nOpen), do)
		stop()
		ph.openAlloc.add(readRuntime().sub(rt0))
		cancel()
		ph.lat = append(ph.lat, lat...)
		ph.late = append(ph.late, late...)
		ph.skipped += skipped
	}
	ph.gc = readRuntime().sub(gc0)
	ph.counters = readCounters().delta(before)
	for i := 0; i < ph.skipped; i++ {
		b.tally.record(false)
	}
	ph.finds = ph.closedN + int64(len(ph.lat))
	ph.cache["hit"], ph.cache["miss"], ph.cache["coalesced"] = hits.Load(), misses.Load(), coalesced.Load()
	b.logf("closed loop: %d finds with %d clients, per-round qps %.0f; open loop: %d of %d finds at %g/s",
		ph.closedN, clients(), ph.qps, len(ph.lat), rounds*nOpen, b.w.openRate)
	return ph
}

// ingestDuring starts the workload's live ingest, if it has any, for
// a timed window of length d and returns the function that stops it.
// Every window runs its own rounds, the first ingestLead into it and
// then one per ingestInterval, as many as end before the window does
// when a round takes ingestInterval. Stopping waits for a round in
// flight, so each round's work falls wholly inside one window: a round
// straddling a window's end would split its allocations between
// windows by timing alone.
func (b *bench) ingestDuring(ctx context.Context, e *env, d time.Duration) (stop func()) {
	if e.ingest == nil {
		return func() {}
	}
	return e.ingest.start(ctx, ingestLead, max(1, int((d-ingestLead)/ingestInterval)))
}

// endToEnd computes the untraced run's metrics.
func (b *bench) endToEnd(ph *phase, setupS float64, peakHeap uint64) (map[string]float64, error) {
	if ph.closedN == 0 || len(ph.lat) == 0 {
		return nil, fmt.Errorf("no find completed")
	}
	return map[string]float64{
		"setup_s":           setupS,
		"find_qps":          float64(ph.closedN) / ph.closedWall.Seconds(),
		"allocs_per_find":   float64(ph.openAlloc.mallocs) / float64(len(ph.lat)),
		"peak_live_heap_mb": float64(peakHeap) / (1 << 20),
	}, nil
}

// writeGolden regenerates the golden rankings of the workload's
// corpus: every need of the golden seeds' hot pools, answered on the
// pinned corpus.
func writeGolden(o options, stderr io.Writer) error {
	w := *findWorkload(o.workload)
	w.setupReps = 1
	b := &bench{o: o, w: &w, stderr: stderr, layer: map[string]float64{}}
	e, _, err := b.setup(w.scale)
	if err != nil {
		return err
	}
	defer e.close()
	if err := b.checkPin(e); err != nil {
		return err
	}
	ctx := context.Background()
	rankings := map[string][]expertfind.Expert{}
	for _, need := range goldenNeeds(loadgen.SystemSource(e.sys)) {
		got, _, err := e.sys.FindCachedContext(ctx, need)
		if err != nil {
			return err
		}
		rankings[need] = got
	}
	b.logf("writing %d golden rankings for corpus %s", len(rankings), w.corpus)
	return saveGolden(o.writeGolden, w.corpus, rankings)
}
