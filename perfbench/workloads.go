package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"expertfind"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/httpapi"
	"expertfind/internal/index"
	"expertfind/internal/rescache"
)

// corpusSeed generates every workload's corpus; the workload seed
// only drives the request stream and the ingest churn.
const corpusSeed = 7

// workload is one benchmark workload: a corpus, the public surface
// its requests go through, and the fixed load it is driven with.
type workload struct {
	name string
	// corpus keys the golden rankings; workloads over the same corpus
	// share them.
	corpus string
	// scale is the pinned corpus scale.
	scale float64
	// pin is the corpus shape expected at the pinned scale.
	pin corpusPin
	// closedShare is the share of --seconds spent in the closed loop;
	// the open loop gets the rest.
	closedShare float64
	// openRate is the open loop's fixed arrival rate per second: at
	// most half the closed-loop throughput measured when the benchmark
	// was defined, so the open loop measures latency below saturation,
	// lower where queueing at half load amplified machine noise, and
	// never above 1000/s, past which the generator's millisecond timer
	// releases requests in bursts.
	openRate float64
	// setupReps is how many times set-up is repeated (its median is
	// setup_s); 1 where a single cold build already takes most of a
	// run. More repetitions would not fit the time BENCHMARK.json
	// allows for 22 runs per workload.
	setupReps int
	// setup builds the workload from nothing up to its first
	// answerable query.
	setup func(b *bench, scale float64) (*env, error)
}

// corpusPin is the recorded shape of a workload's corpus. Set-up
// fails when the generator yields anything else, so a generator
// change cannot silently resize a workload.
type corpusPin struct {
	candidates, resources, indexed, users, webPages int
	// segments is the sealed-segment count after a cold build; 0 for
	// in-memory workloads.
	segments int
}

// workloads is the benchmark's workload table.
var workloads = []*workload{
	{
		name:   "seg10-read",
		corpus: "seg10",
		scale:  10,
		pin: corpusPin{
			candidates: 40, resources: 264754, indexed: 236743, users: 104765, webPages: 12596,
			segments: 4,
		},
		closedShare: 0.6,
		openRate:    60,
		setupReps:   1,
		setup:       setupSeg10,
	},
	{
		name:   "mem-http",
		corpus: "mem-s0.8",
		scale:  0.8,
		pin: corpusPin{
			candidates: 40, resources: 19801, indexed: 18199, users: 3910, webPages: 9988,
		},
		closedShare: 0.4,
		openRate:    300,
		setupReps:   2,
		setup:       setupMemHTTP,
	},
	{
		name:   "mem-ingest",
		corpus: "mem-s0.8",
		scale:  0.8,
		pin: corpusPin{
			candidates: 40, resources: 19801, indexed: 18199, users: 3910, webPages: 9988,
		},
		closedShare: 0.4,
		openRate:    1000,
		setupReps:   2,
		setup:       setupMemIngest,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is a built workload, ready to answer.
type env struct {
	sys *expertfind.System
	// entryName names the user-facing call in the traced run.
	entryName string
	// find is the user-facing call: the answer plus the result-cache
	// disposition ("" when no cache is in the path). The caller owns
	// the reply and must release it (check does).
	find func(ctx context.Context, need string) (reply, string, error)
	// overHTTP is true when find is an HTTP round trip; the traced run
	// then also times the in-process call it wraps.
	overHTTP bool
	// exact is true when answers must equal the reference ranking bit
	// for bit; false while live ingest moves the corpus underneath.
	exact bool
	// finish, when set, runs the workload's closing steps once the
	// measured phases are over, while the peak heap is still watched.
	finish func(ctx context.Context, b *bench) error
	// verify, when set, runs closing correctness checks whose memory
	// is the benchmark's own, after the peak heap has been read.
	verify func(ctx context.Context, b *bench) error
	// close releases everything set-up acquired.
	close func()
	// generateS is the share of this set-up spent generating the
	// corpus, when set-up can tell it apart; 0 otherwise.
	generateS float64
	// structure reports the index's on-disk shape (segments, seals,
	// disk bytes), nil for in-memory indexes.
	structure func() index.StoreStatus
	// httpBytes and httpResponses count /v1/find response bodies.
	httpBytes, httpResponses atomic.Int64
	// ingest is the live-ingest loop, nil when the workload has none.
	ingest *churner
}

// inProcess is the plain in-process entry point: FindCachedContext
// on the system, with whatever cache (none, or rescache) it has.
func inProcess(sys *expertfind.System) func(context.Context, string) (reply, string, error) {
	return func(ctx context.Context, need string) (reply, string, error) {
		got, status, err := sys.FindCachedContext(ctx, need)
		return reply{experts: got}, status, err
	}
}

// setupSeg10 streams the scale-10 corpus to a fresh directory and
// cold-builds the disk-backed segment store from it. The directory is
// removed on close: reopening a kept one would skip the analysis the
// set-up time is meant to include.
func setupSeg10(b *bench, scale float64) (*env, error) {
	dir := filepath.Join(b.o.workDir, fmt.Sprintf("seg10-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	corpus := filepath.Join(dir, "corpus.stream.json.gz")
	segDir := filepath.Join(dir, "segments")

	t0 := time.Now()
	if err := writeStreamCorpus(corpus, scale); err != nil {
		cleanup()
		return nil, err
	}
	generated := time.Since(t0).Seconds()
	sys, err := expertfind.NewSystemFromStream(corpus, segDir, expertfind.StreamOptions{})
	if err != nil {
		cleanup()
		return nil, err
	}
	store := sys.SegmentStore()
	e := &env{
		sys:       sys,
		entryName: "System.FindContext",
		find:      inProcess(sys),
		exact:     true,
		generateS: generated,
		structure: store.Status,
	}
	open := store
	e.close = func() {
		if open != nil {
			open.Close()
		}
		cleanup()
	}
	e.finish = func(ctx context.Context, b *bench) error {
		// Compaction changes the segment layout, never a ranking.
		t0 := time.Now()
		if err := store.Compact(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		b.replayPool(ctx, sys)
		b.layer["index.compact_s"] = time.Since(t0).Seconds()
		if !b.o.trace {
			return nil
		}
		// Reopen the built directory: the serve-a-prebuilt-store path.
		open = nil
		if err := store.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
		t0 = time.Now()
		again, err := expertfind.NewSystemFromStream(corpus, segDir, expertfind.StreamOptions{})
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		open = again.SegmentStore()
		b.layer["index.open_s"] = time.Since(t0).Seconds()
		b.replayPool(ctx, again)
		return nil
	}
	return e, nil
}

// writeStreamCorpus streams a generated corpus to path chunk by chunk,
// dropping each chunk's texts once written, as `datagen -stream` does.
func writeStreamCorpus(path string, scale float64) error {
	w, err := corpusio.CreateStream(path)
	if err != nil {
		return err
	}
	cfg := dataset.StreamConfig{Config: dataset.Config{Seed: corpusSeed, Scale: scale}}
	_, err = dataset.GenerateStream(cfg,
		func(d *dataset.Dataset) error { return w.WriteBase(d) },
		func(d *dataset.Dataset, c *dataset.StreamChunk) error {
			if err := w.WriteChunk(c); err != nil {
				return err
			}
			d.BlankChunkTexts(c)
			return nil
		})
	if err != nil {
		w.Close()
		return fmt.Errorf("generate stream corpus: %w", err)
	}
	return w.Close()
}

// memConfig is the in-memory workloads' corpus: GOMAXPROCS index
// shards scored in parallel, the default.
func memConfig(scale float64) expertfind.Config {
	return expertfind.Config{Seed: corpusSeed, Scale: scale}
}

// setupMemHTTP builds the in-memory system and serves it through the
// httpapi handler on a loopback listener; the workload's requests are
// GET /v1/find round trips over at most clients() connections.
func setupMemHTTP(b *bench, scale float64) (*env, error) {
	sys := expertfind.NewSystem(memConfig(scale))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: httpapi.New(sys), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	transport := &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients()}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	base := "http://" + ln.Addr().String()
	e := &env{sys: sys, entryName: "GET /v1/find", overHTTP: true, exact: true}
	e.close = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a straggler past the grace period is cut off by Close below
		srv.Close()
		<-served
		transport.CloseIdleConnections()
	}
	if err := waitReady(client, base); err != nil {
		e.close()
		return nil, err
	}
	e.find = func(ctx context.Context, need string) (reply, string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/find?q="+url.QueryEscape(need), nil)
		if err != nil {
			return reply{}, "", err
		}
		resp, err := client.Do(req)
		if err != nil {
			return reply{}, "", err
		}
		body := bodyPool.Get().(*bytes.Buffer)
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /v1/find: %s: %s", resp.Status, body)
		}
		if err != nil {
			bodyPool.Put(body)
			return reply{}, "", err
		}
		e.httpBytes.Add(int64(body.Len()))
		e.httpResponses.Add(1)
		return reply{body: body}, resp.Header.Get("Cache-Status"), nil
	}
	return e, nil
}

// waitReady polls /readyz until the handler reports ready.
func waitReady(client *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after 30s (last error: %v)", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setupMemIngest builds the in-memory system with a result cache in
// the query path. The live-ingest loop and its remote twin corpus
// are attached afterwards by attachIngest, outside the set-up time.
func setupMemIngest(b *bench, scale float64) (*env, error) {
	sys := expertfind.NewSystem(memConfig(scale))
	cache := rescache.New(rescache.Options{Capacity: 4096})
	sys.SetResultCache(cache.Attach())
	e := &env{
		sys:       sys,
		entryName: "System.FindCachedContext",
		find:      inProcess(sys),
		exact:     false,
		close:     func() {},
	}
	e.verify = func(ctx context.Context, b *bench) error {
		return b.ingestDifferential(ctx, e)
	}
	e.ingest = &churner{cache: cache, scale: scale}
	return e, nil
}
