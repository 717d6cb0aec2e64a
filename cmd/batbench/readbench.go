// Read-path benchmark: measures the concurrent query engine on one BAT
// file and emits a machine-readable JSON report (BENCH_read.json at the
// repo root via scripts/bench.sh). The report is the performance baseline
// the next PRs diff against; CI only checks that it is produced and
// well-formed, never absolute speed.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// readBenchReport is the schema of BENCH_read.json.
type readBenchReport struct {
	GeneratedBy string `json:"generated_by"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Particles   int    `json:"particles"`
	Treelets    int    `json:"treelets"`
	FileBytes   int    `json:"file_bytes"`

	Runs map[string]readBenchRun `json:"runs"`

	Cache struct {
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Evictions int64   `json:"evictions"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`

	// Warm full-scan speedup of Workers=GOMAXPROCS over Workers=1. On a
	// single-core runner this is ~1.0 by construction; the multi-core
	// number is what the acceptance criterion records.
	ParallelSpeedupWarmFullScan float64 `json:"parallel_speedup_warm_full_scan"`
}

type readBenchRun struct {
	Workers         int     `json:"workers"`
	Seconds         float64 `json:"seconds"`
	Visited         int64   `json:"visited"`
	ParticlesPerSec float64 `json:"particles_per_sec"`
}

// readBenchCorpus builds a seeded mixed corpus: 70% uniform, 30% clustered
// in a corner octant, two attributes — enough structure that box queries
// prune and bitmap filters discriminate.
func readBenchCorpus(n int) (*particles.Set, geom.Box) {
	r := rand.New(rand.NewSource(20240806))
	s := particles.NewSet(particles.NewSchema("mass", "id"), n)
	for i := 0; i < n; i++ {
		var p geom.Vec3
		if i%10 < 7 {
			p = geom.V3(r.Float64(), r.Float64(), r.Float64())
		} else {
			p = geom.V3(r.Float64()*0.25, r.Float64()*0.25, r.Float64()*0.25)
		}
		s.Append(p, []float64{p.X*100 + r.Float64(), float64(i)})
	}
	return s, geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
}

// timeQuery runs one query under cfg and returns the wall time and count.
func timeQuery(f *bat.File, q bat.Query, cfg bat.QueryConfig) (time.Duration, int64, error) {
	var n int64
	f.SetQueryConfig(cfg)
	start := time.Now()
	err := f.Query(q, func(geom.Vec3, []float64) error {
		n++
		return nil
	})
	return time.Since(start), n, err
}

func benchRun(f *bat.File, q bat.Query, cfg bat.QueryConfig) (readBenchRun, error) {
	dur, n, err := timeQuery(f, q, cfg)
	if err != nil {
		return readBenchRun{}, err
	}
	run := readBenchRun{
		Workers: cfg.Workers,
		Seconds: dur.Seconds(),
		Visited: n,
	}
	if dur > 0 {
		run.ParticlesPerSec = float64(n) / dur.Seconds()
	}
	return run, nil
}

// runReadBench executes the benchmark and writes the JSON report to
// outPath, then reads it back and validates the schema so a malformed
// report fails loudly here rather than in a later consumer.
func runReadBench(nParticles int, outPath string) error {
	set, domain := readBenchCorpus(nParticles)
	built, err := bat.Build(set, domain, bat.DefaultBuildConfig())
	if err != nil {
		return fmt.Errorf("readbench: build: %w", err)
	}

	maxProcs := runtime.GOMAXPROCS(0)
	serial := bat.QueryConfig{Workers: 1}
	parallel := bat.QueryConfig{Workers: maxProcs, Readahead: 2}
	box := geom.NewBox(geom.V3(0.2, 0.2, 0.2), geom.V3(0.8, 0.8, 0.8))
	boxQ := bat.Query{Bounds: &box}

	rep := readBenchReport{
		GeneratedBy: "batbench -readbench",
		GoMaxProcs:  maxProcs,
		Particles:   nParticles,
		FileBytes:   len(built.Buf),
		Runs:        map[string]readBenchRun{},
	}

	// Cold runs get a fresh File (empty treelet cache) over the same
	// buffer; warm runs reuse the file the cold scan populated.
	coldSerial, err := bat.FromBuffer(built.Buf)
	if err != nil {
		return err
	}
	if rep.Runs["full_scan_cold_serial"], err = benchRun(coldSerial, bat.Query{}, serial); err != nil {
		return err
	}
	coldSerial.Close()

	coldParallel, err := bat.FromBuffer(built.Buf)
	if err != nil {
		return err
	}
	if rep.Runs["full_scan_cold_parallel"], err = benchRun(coldParallel, bat.Query{}, parallel); err != nil {
		return err
	}
	coldParallel.Close()

	warm, err := bat.FromBuffer(built.Buf)
	if err != nil {
		return err
	}
	defer warm.Close()
	if _, _, err := timeQuery(warm, bat.Query{}, serial); err != nil { // populate the cache
		return err
	}
	if rep.Runs["full_scan_warm_serial"], err = benchRun(warm, bat.Query{}, serial); err != nil {
		return err
	}
	if rep.Runs["full_scan_warm_parallel"], err = benchRun(warm, bat.Query{}, parallel); err != nil {
		return err
	}
	if rep.Runs["box_query_warm_serial"], err = benchRun(warm, boxQ, serial); err != nil {
		return err
	}
	if rep.Runs["box_query_warm_parallel"], err = benchRun(warm, boxQ, parallel); err != nil {
		return err
	}

	st := warm.CacheStats()
	rep.Treelets = int(st.Entries)
	rep.Cache.Hits = st.Hits
	rep.Cache.Misses = st.Misses
	rep.Cache.Evictions = st.Evictions
	rep.Cache.HitRate = st.HitRate()
	if s, p := rep.Runs["full_scan_warm_serial"], rep.Runs["full_scan_warm_parallel"]; p.Seconds > 0 {
		rep.ParallelSpeedupWarmFullScan = s.Seconds / p.Seconds
	}

	// Sanity: every engine configuration must agree on the visit counts.
	wantFull := rep.Runs["full_scan_cold_serial"].Visited
	for name, r := range rep.Runs {
		ref := wantFull
		if name == "box_query_warm_serial" || name == "box_query_warm_parallel" {
			ref = rep.Runs["box_query_warm_serial"].Visited
		}
		if r.Visited != ref {
			return fmt.Errorf("readbench: %s visited %d particles, want %d", name, r.Visited, ref)
		}
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}

	// Validate the written artifact round-trips with the required fields.
	raw, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	var check readBenchReport
	if err := json.Unmarshal(raw, &check); err != nil {
		return fmt.Errorf("readbench: report is not valid JSON: %w", err)
	}
	for _, key := range []string{
		"full_scan_cold_serial", "full_scan_cold_parallel",
		"full_scan_warm_serial", "full_scan_warm_parallel",
		"box_query_warm_serial", "box_query_warm_parallel",
	} {
		r, ok := check.Runs[key]
		if !ok || r.Seconds < 0 || r.ParticlesPerSec < 0 {
			return fmt.Errorf("readbench: report missing or malformed run %q", key)
		}
	}
	if check.GoMaxProcs < 1 || check.Particles != nParticles {
		return fmt.Errorf("readbench: report header malformed")
	}

	fmt.Printf("readbench: %d particles, %d treelets, gomaxprocs %d\n",
		rep.Particles, rep.Treelets, rep.GoMaxProcs)
	fmt.Printf("  full scan  cold: serial %.3fs, parallel %.3fs\n",
		rep.Runs["full_scan_cold_serial"].Seconds, rep.Runs["full_scan_cold_parallel"].Seconds)
	fmt.Printf("  full scan  warm: serial %.3fs, parallel %.3fs (speedup %.2fx)\n",
		rep.Runs["full_scan_warm_serial"].Seconds, rep.Runs["full_scan_warm_parallel"].Seconds,
		rep.ParallelSpeedupWarmFullScan)
	fmt.Printf("  box query  warm: serial %.3fs, parallel %.3fs\n",
		rep.Runs["box_query_warm_serial"].Seconds, rep.Runs["box_query_warm_parallel"].Seconds)
	fmt.Printf("  cache: %d hits / %d misses (rate %.3f), %d evictions\n",
		rep.Cache.Hits, rep.Cache.Misses, rep.Cache.HitRate, rep.Cache.Evictions)
	fmt.Printf("  report: %s\n", outPath)
	return nil
}
