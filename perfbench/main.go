// Command perfbench is libbat's end-to-end benchmark. It drives the library
// only through its public entry points — libbat.Write on an in-process
// fabric, libbat.OpenDataset with Query/Count, and a real batserve process
// over HTTP — checks every answer, and prints one JSON result line.
//
//	perfbench -workload read_progressive_cold -seed 1 -seconds 18 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics, measured with no
// decorators, replays or direct layer calls. With -trace 1 the same
// workload runs once untraced and once with them switched on, and the
// result holds the per-layer metrics; the spans go to a Chrome trace file
// and the per-layer table to a text file, both under -work. README.md
// describes the workloads, the metrics and the layer-to-end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// workloadFn runs one workload and returns its metrics. traced selects the
// per-layer run.
type workloadFn func(o options, t *tally, traced bool) (metrics, error)

var workloadFns = map[string]workloadFn{
	"write_coalboiler_64":   func(o options, t *tally, traced bool) (metrics, error) { return runWrite(o, t, traced, coalWrite) },
	"write_dambreak_512":    func(o options, t *tally, traced bool) (metrics, error) { return runWrite(o, t, traced, damWrite) },
	"read_progressive_cold": runReadCold,
	"serve_points_warm":     runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the query generator")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 = per-layer run (decorators, replays, direct layer calls, spans)")
		work     = flag.String("work", ".bench_build/work", "scratch directory for datasets and trace output")
		batserve = flag.String("batserve", ".bench_build/batserve", "batserve binary for serve_points_warm")
	)
	flag.Parse()
	fn, ok := workloadFns[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	o := options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Work:     *work,
		Batserve: *batserve,
		Scale:    fullScale,
	}
	res, env, err := run(o, fn, *trace == 1)
	if err != nil {
		fail(err)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"env": env}); err != nil {
		fail(err)
	}
	if err := out.Encode(res); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadFns))
	for n := range workloadFns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run prepares the scratch directory, runs the workload and assembles the
// result. A workload error (as opposed to a failed operation, which the
// tally counts) aborts the run without a result.
func run(o options, fn workloadFn, traced bool) (result, map[string]any, error) {
	if err := os.MkdirAll(o.Work, 0o755); err != nil {
		return result{}, nil, err
	}
	t := &tally{}
	m, err := fn(o, t, traced)
	if err != nil {
		return result{}, nil, err
	}
	out := map[string]metric{}
	if traced {
		m.set("error_rate", t.rate(), "ratio")
		// A layer the workload does not exercise reports 0.
		for _, l := range perLayer {
			out[l.name] = metric{Unit: l.unit}
			if v, ok := m.out[l.name]; ok {
				out[l.name] = v
			}
		}
	} else {
		for _, e := range endToEnd {
			v, ok := m.out[e.name]
			if !ok && t.failed() == 0 {
				return result{}, nil, fmt.Errorf("workload did not measure %s", e.name)
			}
			out[e.name] = metric{Value: v.Value, Unit: e.unit}
		}
	}
	for k, v := range out {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// Only a run whose operations all failed gets here.
			out[k] = metric{Unit: v.Unit}
		}
	}
	return result{
		Correct:   t.failed() == 0,
		Attempted: t.attempted(),
		Failed:    t.failed(),
		Metrics:   out,
	}, environment(o, m.env), nil
}

// endToEnd are the metrics of an untraced run, reported by every workload
// (BENCHMARK.json lists them with their bounds).
var endToEnd = []struct{ name, unit string }{
	{"op_s", "s"}, {"op_p90_s", "s"}, {"first_step_s", "s"}, {"points_per_s", "1/s"},
	{"stored_bytes_per_particle", "B"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []struct{ name, unit string }{
	{"aggtree.plan_s", "s"}, {"aggtree.rounds", "count"}, {"aggtree.leaves", "count"},
	{"core.plan_s", "s"}, {"core.gather_scatter_s", "s"}, {"core.transfer_s", "s"},
	{"core.bat_build_s", "s"}, {"core.file_write_s", "s"}, {"core.metadata_s", "s"},
	{"core.unattributed_s", "s"},
	{"core.max_plan_s", "s"}, {"core.max_gather_scatter_s", "s"}, {"core.max_transfer_s", "s"},
	{"core.max_bat_build_s", "s"}, {"core.max_file_write_s", "s"}, {"core.max_metadata_s", "s"},
	{"fabric.bytes_sent", "B"}, {"fabric.messages_sent", "count"},
	{"pfs.write_calls", "count"}, {"pfs.write_bytes", "B"}, {"pfs.write_s", "s"},
	{"pfs.open_calls", "count"}, {"pfs.read_calls", "count"}, {"pfs.read_bytes", "B"}, {"pfs.read_s", "s"},
	{"libbat.open_s", "s"}, {"libbat.alloc_bytes_per_point", "B"},
	{"bat.traverse_s", "s"}, {"bat.load_decode_s", "s"},
	{"bat.cache_hits", "count"}, {"bat.cache_misses", "count"}, {"bat.cache_evictions", "count"},
	{"bat.cache_hit_ratio", "ratio"},
	{"bat.visited", "count"}, {"bat.false_positives", "count"}, {"bat.pruned_subtrees", "count"},
	{"bat.treelets", "count"}, {"bat.filter_precision", "ratio"},
	{"batserve.query_s", "s"}, {"batserve.request_overhead_s", "s"},
	{"batserve.cpu_s_per_session", "s"}, {"batserve.rejected", "count"},
	{"trace_overhead_ratio", "ratio"}, {"error_rate", "ratio"},
}
