// Command perfbench is the repository's wall-clock benchmark. It
// builds one seeded workload, drives it through the public serving
// surfaces (expertfind.System, the httpapi handler, ingest.Ingester),
// checks every answer, and prints one JSON result line as the last
// line of standard output.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload mem-http --seed 1 --seconds 8 --trace 0
//
// run.py builds this package into .bench_build and runs it with the
// same arguments. With --trace 0 the result carries the end-to-end
// metrics of an untraced run; with --trace 1 the run also replays the
// request stream as timed calls into each layer and the result
// carries the per-layer metrics instead. README.md in this directory
// lists the workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale overrides the workload's corpus scale for the self-test's
	// tiny runs; 0, the only value the command line gives, keeps the
	// pinned scale with its pin and golden checks.
	scale float64
	// traceOut is where a traced run writes its spans.
	traceOut string
	// workDir holds the seg10-read corpus and segment directory while
	// the run lasts.
	workDir string
	// writeGolden regenerates the workload corpus's golden rankings
	// into this directory instead of benchmarking.
	writeGolden string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	var seconds int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: drives the need stream and the ingest churn")
	fs.IntVar(&seconds, "seconds", 8, "measured seconds, split into closed- and open-loop windows")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds the traced per-layer replay and prints per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", ".bench_build/traces", "directory for the traced run's span file")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build/work", "scratch directory for on-disk workloads")
	fs.StringVar(&o.writeGolden, "write-golden", "", "write golden rankings for the workload's corpus into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if findWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return o, fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	}
	o.seconds = float64(seconds)
	o.trace = traceFlag == 1
	return o, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit code: 0 after a run
// that printed its result line, 1 when the run could not complete, 2
// on bad usage.
func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.writeGolden != "" {
		if err := writeGolden(o, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := run(o, stderr)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Fprintln(stdout, string(line))
			return 0
		}
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1
}

// metricDef is one named metric of the catalog. BENCHMARK.json lists
// the same names, units and directions; the self-test keeps the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics an untraced run prints: what a user of the
// expert finder sees, plus set-up time and memory.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"find_qps", "1/s", "higher"},
	{"allocs_per_find", "count", "lower"},
	{"peak_live_heap_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run prints. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"setup.generate_s", "s", "lower"},
	{"setup.build_s", "s", "lower"},
	{"analysis.need_us", "us", "lower"},
	{"traverse.rebuild_ms", "ms", "lower"},
	{"traverse.rebuilds", "count", "lower"},
	{"traverse.reach_resources", "count", "lower"},
	{"index.score_us_p50", "us", "lower"},
	{"index.score_us_p99", "us", "lower"},
	{"index.filter_us", "us", "lower"},
	{"index.postings_per_find", "count", "lower"},
	{"index.matches_per_find", "count", "lower"},
	{"index.window_yield", "ratio", "higher"},
	{"index.blocks_skipped", "count", "higher"},
	{"index.pruned_docs", "count", "higher"},
	{"index.segments", "count", "lower"},
	{"index.seals", "count", "lower"},
	{"index.disk_mb", "MB", "lower"},
	{"index.open_s", "s", "lower"},
	{"index.compact_s", "s", "lower"},
	{"rank.us", "us", "lower"},
	{"rank.experts_per_find", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.hit_us", "us", "lower"},
	{"cache.dropped_per_round", "count", "lower"},
	{"cache.full_purges", "count", "lower"},
	{"http.overhead_us_p50", "us", "lower"},
	{"http.overhead_us_p99", "us", "lower"},
	{"http.response_bytes", "bytes", "lower"},
	{"ingest.round_ms", "ms", "lower"},
	{"ingest.fetch_ms", "ms", "lower"},
	{"ingest.diff_ms", "ms", "lower"},
	{"ingest.apply_ms", "ms", "lower"},
	{"ingest.invalidate_ms", "ms", "lower"},
	{"ingest.delta_docs", "count", "lower"},
	{"stage.analyze_ms_per_find", "ms", "lower"},
	{"stage.traverse_ms_per_find", "ms", "lower"},
	{"stage.index_match_ms_per_find", "ms", "lower"},
	{"stage.aggregate_rank_ms_per_find", "ms", "lower"},
	{"find_p50_ms", "ms", "lower"},
	{"find_p99_ms", "ms", "lower"},
	{"kb_per_find", "KB", "lower"},
	{"trace.entry_us", "us", "lower"},
	{"trace.entry_us_p99", "us", "lower"},
	{"trace.unattributed_us", "us", "lower"},
	{"trace.index_share_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"error_rate", "ratio", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildResult renders the values of one catalog. Every catalog entry
// must have a value; a missing or non-finite one is a benchmark bug.
func buildResult(defs []metricDef, values map[string]float64, attempted, failed int64) (result, error) {
	res := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("no value for metric(s) %s", strings.Join(missing, ", "))
	}
	return res, nil
}
