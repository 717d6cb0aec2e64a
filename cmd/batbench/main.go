// Command batbench regenerates the tables and figures of the paper's
// evaluation (§VI). Modeled benchmarks (Figures 5-7, 9-12 and the file
// statistics) run the real aggregation algorithms at the paper's rank
// counts with byte movement charged to the Stampede2/Summit cost models;
// the visualization benchmarks (Tables I/II, Figure 13, the layout
// overhead) build real BAT files and time real reads.
//
// Usage:
//
//	batbench -all                  # everything (scaled-down vis reads)
//	batbench -fig 5 -system summit # one figure
//	batbench -table 1              # Table I
//	batbench -filestats -overhead
//	batbench -csv                  # emit CSV instead of aligned text
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"libbat"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"libbat/internal/bench"
	"libbat/internal/cliutil"
	"libbat/internal/obs"
	"libbat/internal/perf"
)

// saveTable writes a table under dir as NN-slug.txt and NN-slug.csv.
func saveTable(dir string, seq int, t *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := make([]rune, 0, 40)
	for _, r := range strings.ToLower(t.Title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			slug = append(slug, r)
		case r == ' ' || r == '-' || r == '/':
			if len(slug) > 0 && slug[len(slug)-1] != '-' {
				slug = append(slug, '-')
			}
		}
		if len(slug) >= 40 {
			break
		}
	}
	base := filepath.Join(dir, fmt.Sprintf("%02d-%s", seq, strings.Trim(string(slug), "-")))
	var txt, csvBuf bytes.Buffer
	t.Fprint(&txt)
	t.CSV(&csvBuf)
	if err := os.WriteFile(base+".txt", txt.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".csv", csvBuf.Bytes(), 0o644)
}

func main() {
	var (
		all       = flag.Bool("all", false, "run every benchmark")
		fig       = flag.Int("fig", 0, "regenerate one figure (5, 6, 7, 8, 9, 10, 11, 12, 13)")
		table     = flag.Int("table", 0, "regenerate one table (1 or 2)")
		fileStats = flag.Bool("filestats", false, "output-file statistics (§VI-A.2)")
		overhead  = flag.Bool("overhead", false, "layout memory overhead (§VI-B)")
		ablate    = flag.Bool("ablate", false, "ablation studies of the design choices")
		ext       = flag.Bool("extensions", false, "extension experiments (cosmology workload, auto target size)")
		system    = flag.String("system", "both", "system profile: stampede2, summit, or both")
		measured  = flag.Bool("measured", false, "full-fidelity measured pipeline breakdown")
		csv       = flag.Bool("csv", false, "emit CSV")
		outdir    = flag.String("outdir", "", "also save each table as .txt and .csv under this directory")
		dir       = flag.String("dir", "", "directory for materialized datasets (default: in-memory)")
		visRanks  = flag.Int("vis-ranks", 32, "ranks for the materialized visualization benchmarks")
		visScale  = flag.Int64("vis-particles", 300_000, "particles for the materialized benchmarks")
		statsOut  = flag.String("stats", "", "write telemetry from the materialized runs as JSON to this file")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event timeline of the materialized runs to this file")
		jsonOut   = flag.String("json", "", "write machine-readable per-phase timings of the materialized runs to this file")
		buildWkrs = flag.Int("build-workers", 0, "BAT build worker goroutines per aggregator (0 = GOMAXPROCS)")
		readBench = flag.Bool("readbench", false, "run the query-path benchmark and emit a JSON report")
		readOut   = flag.String("readbench-out", "BENCH_read.json", "output path for the -readbench report")
		readScale = flag.Int("read-particles", 400_000, "particles for the -readbench corpus")
		compBench = flag.Bool("compressbench", false, "run the v3 codec benchmark and emit a JSON report")
		compOut   = flag.String("compressbench-out", "BENCH_compress.json", "output path for the -compressbench report")
		compScale = flag.Int("compress-particles", 400_000, "particles for the -compressbench corpus")
		treeBench = flag.Bool("treebench", false, "run the plan-scaling benchmark (centralized vs distributed) and emit a JSON report")
		treeOut   = flag.String("treebench-out", "BENCH_treebuild.json", "output path for the -treebench report")
		treeQuick = flag.Bool("treebench-quick", false, "measure fewer real-fabric world sizes in -treebench (CI smoke)")
		printMax  = flag.Bool("print-gomaxprocs", false, "print effective GOMAXPROCS and exit (scripts/bench.sh)")
	)
	flag.Parse()
	if *printMax {
		fmt.Println(runtime.GOMAXPROCS(0))
		return
	}
	if *buildWkrs < 0 {
		fmt.Fprintf(os.Stderr, "batbench: -build-workers must be >= 0, got %d\n", *buildWkrs)
		os.Exit(2)
	}
	bench.BuildWorkers = *buildWkrs
	obsFlags := cliutil.ObsFlags{StatsPath: *statsOut, TracePath: *traceOut}
	col := obsFlags.Collector()
	if col == nil && *jsonOut != "" {
		// -json needs span telemetry even when -stats/-trace are off.
		col = obs.New()
	}
	if col != nil {
		bench.Observer = col
	}
	if !*all && *fig == 0 && *table == 0 && !*fileStats && !*overhead && !*ablate && !*ext && !*measured && !*readBench && !*compBench && !*treeBench {
		flag.Usage()
		os.Exit(2)
	}

	if *readBench {
		if err := runReadBench(*readScale, *readOut); err != nil {
			fmt.Fprintln(os.Stderr, "batbench:", err)
			os.Exit(1)
		}
	}
	if *compBench {
		if err := runCompressBench(*compScale, *compOut); err != nil {
			fmt.Fprintln(os.Stderr, "batbench:", err)
			os.Exit(1)
		}
	}
	if *treeBench {
		if err := runTreeBench(*treeOut, *treeQuick); err != nil {
			fmt.Fprintln(os.Stderr, "batbench:", err)
			os.Exit(1)
		}
	}

	tableSeq := 0
	emit := func(t *bench.Table, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "batbench:", err)
			os.Exit(1)
		}
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Fprint(os.Stdout)
		}
		if *outdir != "" {
			if err := saveTable(*outdir, tableSeq, t); err != nil {
				fmt.Fprintln(os.Stderr, "batbench: saving table:", err)
				os.Exit(1)
			}
			tableSeq++
		}
	}
	profiles := func() []perf.Profile {
		switch *system {
		case "stampede2":
			return []perf.Profile{perf.Stampede2()}
		case "summit":
			return []perf.Profile{perf.Summit()}
		default:
			return []perf.Profile{perf.Stampede2(), perf.Summit()}
		}
	}
	visCfg := bench.VisReadConfig{
		Ranks:       *visRanks,
		Steps:       []int{0, 50, 100},
		TargetSizes: []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20},
		Dir:         *dir,
	}

	run := func(id int) {
		switch id {
		case 5:
			for _, p := range profiles() {
				emit(bench.Fig5WriteScaling(bench.DefaultWeakScaling(p)))
			}
		case 6:
			for _, p := range profiles() {
				emit(bench.Fig6Breakdown(bench.DefaultWeakScaling(p)))
			}
		case 7:
			for _, p := range profiles() {
				emit(bench.Fig7ReadScaling(bench.DefaultWeakScaling(p)))
			}
		case 8:
			emit(bench.Fig8DatasetStats(1536))
		case 9:
			w, r, err := bench.Fig9CoalBoiler(bench.DefaultCoalBoilerCompare())
			emit(w, err)
			emit(r, nil)
		case 10:
			emit(bench.Fig10Breakdown(bench.DefaultCoalBoilerCompare()))
		case 11:
			for _, big := range []bool{false, true} {
				cfg, total := bench.DefaultDamBreakCompare(big)
				w, r, err := bench.Fig11DamBreak(cfg, total)
				emit(w, err)
				emit(r, nil)
			}
		case 12:
			cfg, total := bench.DefaultDamBreakCompare(true)
			emit(bench.Fig12Breakdown(cfg, total))
		case 13:
			emit(bench.Fig13Quality(visCfg, *visScale))
		default:
			fmt.Fprintf(os.Stderr, "batbench: unknown figure %d\n", id)
			os.Exit(2)
		}
	}
	runTable := func(id int) {
		switch id {
		case 1:
			emit(bench.Table1CoalBoiler(visCfg, *visScale/2, *visScale))
		case 2:
			emit(bench.Table2DamBreak(visCfg, *visScale))
		default:
			fmt.Fprintf(os.Stderr, "batbench: unknown table %d\n", id)
			os.Exit(2)
		}
	}

	if *fig != 0 {
		run(*fig)
	}
	if *table != 0 {
		runTable(*table)
	}
	if *fileStats || *all {
		emit(bench.FileStats(1536, 4501, 8<<20))
	}
	if *overhead || *all {
		emit(bench.Overhead(visCfg, *visScale))
	}
	if *ext || *all {
		emit(bench.CosmoCompare(bench.CompareConfig{
			Profile:     perf.Stampede2(),
			Ranks:       1536,
			Steps:       []int{0, 250, 500, 750, 1000},
			TargetSizes: []int64{8 << 20, 32 << 20},
		}, 20_000_000, 24))
		emit(bench.RecommendCheck(perf.Stampede2(), []int{96, 384, 1536, 6144, 24576},
			bench.UniformPerRank, bench.UniformAttrs, libbat.RecommendTargetSize))
	}
	if *measured || *all {
		emit(bench.MeasuredBreakdown(*visRanks, *visScale, 2<<20))
	}
	if *ablate || *all {
		emit(bench.AblateOverfull(1536, 2501, 8<<20))
		emit(bench.AblateSplitAxes(1536, 1001, 3<<20))
		emit(bench.AblateLOD(*visRanks, *visScale/2))
		emit(bench.AblateBitmapDictionary(int(*visScale)))
		emit(bench.AblateAggregatorSpread(1536, 2501, 8<<20))
	}
	if *all {
		for _, id := range []int{5, 6, 7, 8, 9, 10, 11, 12, 13} {
			run(id)
		}
		runTable(1)
		runTable(2)
	}
	if bench.Observer != nil {
		phases := phaseAgg()
		emit(phaseBreakdown(phases), nil)
		if *jsonOut != "" {
			if err := writePhaseJSON(*jsonOut, phases); err != nil {
				fmt.Fprintln(os.Stderr, "batbench: writing phase timings:", err)
				os.Exit(1)
			}
		}
		if err := obsFlags.Dump(bench.Observer); err != nil {
			fmt.Fprintln(os.Stderr, "batbench:", err)
			os.Exit(1)
		}
	}
}

// phaseTiming is one aggregated phase row, as emitted by -json: phase name,
// span count, and total/mean wall time in nanoseconds.
type phaseTiming struct {
	Phase   string `json:"phase"`
	Spans   int64  `json:"spans"`
	TotalNs int64  `json:"total_ns"`
	MeanNs  int64  `json:"mean_ns"`
}

// phaseAgg condenses the collector's spans into per-phase totals
// (aggregated over ranks and runs), in first-appearance order.
func phaseAgg() []phaseTiming {
	byPhase := map[string]int{}
	var out []phaseTiming
	for _, sp := range bench.Observer.Snapshot().Spans {
		i, ok := byPhase[sp.Name]
		if !ok {
			i = len(out)
			byPhase[sp.Name] = i
			out = append(out, phaseTiming{Phase: sp.Name})
		}
		out[i].Spans += sp.Count
		out[i].TotalNs += int64(sp.TotalNs)
	}
	for i := range out {
		if out[i].Spans > 0 {
			out[i].MeanNs = out[i].TotalNs / out[i].Spans
		}
	}
	return out
}

// phaseBreakdown renders the aggregated phases as a table printed alongside
// the benchmark totals.
func phaseBreakdown(phases []phaseTiming) *bench.Table {
	t := &bench.Table{
		Title:  "Telemetry: per-phase time across all materialized runs",
		Header: []string{"phase", "spans", "total", "mean"},
	}
	for _, p := range phases {
		t.AddRow(p.Phase, fmt.Sprintf("%d", p.Spans),
			time.Duration(p.TotalNs).Round(time.Microsecond).String(),
			time.Duration(p.MeanNs).Round(time.Microsecond).String())
	}
	t.Notes = append(t.Notes, "spans cover the full-fidelity (materialized) pipelines only; modeled runs have no telemetry")
	return t
}

// writePhaseJSON emits the aggregated phase timings as a JSON array, the
// machine-readable form the repo's benchmark trajectory accumulates.
func writePhaseJSON(path string, phases []phaseTiming) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(fh)
	enc.SetIndent("", "  ")
	if err := enc.Encode(phases); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
