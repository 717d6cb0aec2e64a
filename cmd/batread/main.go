// Command batread runs a collective two-phase read of a dataset written by
// batwrite (or the library) and reports per-rank read statistics, or — with
// -vis — runs the paper's single-threaded progressive visualization read
// benchmark on the dataset.
//
//	batread -in /tmp/ds -name coal-boiler-0050 -ranks 8
//	batread -in /tmp/ds -name coal-boiler-0050 -vis
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"libbat"
	"libbat/internal/bench"
	"libbat/internal/cliutil"
	"libbat/internal/pfs"
)

// filterFlags accumulates repeated -filter attr,min,max arguments.
type filterFlags []libbat.AttrFilter

func (f *filterFlags) String() string { return fmt.Sprintf("%d filters", len(*f)) }

func (f *filterFlags) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) != 3 {
		return fmt.Errorf("want attr,min,max")
	}
	attr, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	min, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return err
	}
	max, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil {
		return err
	}
	*f = append(*f, libbat.AttrFilter{Attr: attr, Min: min, Max: max})
	return nil
}

func main() {
	var filters filterFlags
	var (
		in        = flag.String("in", "bat-out", "dataset directory")
		name      = flag.String("name", "", "dataset base name (required)")
		ranks     = flag.Int("ranks", 8, "number of simulated reader ranks")
		vis       = flag.Bool("vis", false, "run the progressive visualization read benchmark instead")
		quality   = flag.Float64("quality", 1, "LOD quality in (0,1] for -count queries")
		count     = flag.Bool("count", false, "count particles matching -filter/-quality and exit")
		workers   = flag.Int("query-workers", 0, "traversal goroutines per query for -count (0 = GOMAXPROCS, 1 = serial)")
		cacheMB   = flag.Int64("cache-mb", 0, "treelet cache budget in MiB for -count (0 = unbounded)")
		statsOut  = flag.String("stats", "", "write telemetry counters/histograms/spans as JSON to this file")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file (open in Perfetto)")
		accessOut = flag.String("access-out", "", "write the access-telemetry snapshot as a .bata sidecar to this file (batinspect -access reads it)")
		timeout   = flag.Duration("timeout", 0,
			"overall read deadline; on a stalled filesystem the collective read degrades to the healthy leaves and reports the rest as partial (0 = none)")
	)
	flag.Var(&filters, "filter", "attribute filter attr,min,max (repeatable, with -count)")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "batread:", err)
		os.Exit(1)
	}
	if *name == "" {
		fail(fmt.Errorf("-name is required"))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	store, err := libbat.DirStorage(*in)
	if err != nil {
		fail(err)
	}
	obsFlags := cliutil.ObsFlags{StatsPath: *statsOut, TracePath: *traceOut}
	col := obsFlags.Collector()
	if col != nil {
		store = pfs.Observe(store, col)
		bench.Observer = col
	}
	dump := func() {
		if err := obsFlags.Dump(col); err != nil {
			fail(err)
		}
	}
	// writeAccess persists the access-telemetry snapshot as a sidecar file
	// (same format batserve -access-persist writes and batinspect -access
	// reads).
	writeAccess := func(rec *libbat.AccessRecorder) {
		if *accessOut == "" {
			return
		}
		if rec == nil {
			fail(fmt.Errorf("-access-out: no access telemetry was recorded"))
		}
		buf, err := rec.Snapshot().Marshal()
		if err == nil {
			err = os.WriteFile(*accessOut, buf, 0o644)
		}
		if err != nil {
			fail(err)
		}
	}

	if *count {
		ds, err := libbat.OpenDataset(store, *name)
		if err != nil {
			fail(err)
		}
		defer ds.Close()
		qw := *workers
		if qw == 0 {
			qw = -1 // bat: negative means GOMAXPROCS
		}
		ds.SetQueryConfig(libbat.QueryConfig{Workers: qw, Readahead: 2})
		if *cacheMB > 0 {
			ds.SetCacheLimit(*cacheMB << 20)
		}
		if col != nil {
			ds.SetObserver(col)
		}
		if *accessOut != "" {
			ds.SetAccessRecorder(libbat.NewAccessRecorder(*name, ds.Bounds(), libbat.AccessOptions{}))
		}
		n, err := ds.CountCtx(ctx, libbat.Query{Filters: filters, Quality: *quality})
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d of %d particles match (quality %.2f, %d filters)\n",
			n, ds.NumParticles(), *quality, len(filters))
		dump()
		writeAccess(ds.AccessRecorder())
		return
	}

	if *vis {
		res, err := bench.ProgressiveRead(store, *name)
		if err != nil {
			fail(err)
		}
		fmt.Printf("progressive read (quality 0.1..1.0): avg %.2f ms/read, %.0f pts/ms, %d points total\n",
			res.AvgReadMs, res.PtsPerMs, res.TotalPts)
		dump()
		return
	}

	ds, err := libbat.OpenDataset(store, *name)
	if err != nil {
		fail(err)
	}
	domain := ds.Bounds()
	total := ds.NumParticles()
	ds.Close()

	var mu sync.Mutex
	var sumParticles int64
	start := time.Now()
	f := libbat.NewFabric(*ranks)
	f.SetObserver(col)
	var accessReg *libbat.AccessRegistry
	if *accessOut != "" {
		accessReg = libbat.NewAccessRegistry(libbat.AccessOptions{})
		f.SetAccessRegistry(accessReg)
	}
	err = f.Run(func(c *libbat.Comm) error {
		// Each reader takes a slab of the domain along the longest axis.
		axis := domain.LongestAxis()
		lo := domain.Lower.Component(axis) + domain.Size().Component(axis)*float64(c.Rank())/float64(*ranks)
		hi := domain.Lower.Component(axis) + domain.Size().Component(axis)*float64(c.Rank()+1)/float64(*ranks)
		box := domain
		box.Lower = box.Lower.SetComponent(axis, lo)
		box.Upper = box.Upper.SetComponent(axis, hi)
		got, stats, err := libbat.ReadQueryCtx(ctx, c, store, *name, libbat.Query{Bounds: &box, Quality: 1})
		if err != nil && !errors.Is(err, libbat.ErrPartial) {
			return err
		}
		mu.Lock()
		sumParticles += int64(got.Len())
		mu.Unlock()
		if err != nil {
			fmt.Fprintf(os.Stderr, "batread: rank %d: partial read (%d leaves failed): %v\n",
				c.Rank(), len(stats.LeafErrors), err)
		}
		if c.Rank() == 0 {
			fmt.Printf("rank 0: meta=%v fileread=%v transfer=%v (%d files served)\n",
				stats.Metadata.Round(time.Microsecond), stats.FileRead.Round(time.Microsecond),
				stats.Transfer.Round(time.Microsecond), stats.NumFiles)
		}
		return nil
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("read %d particles (dataset holds %d) on %d ranks in %v\n",
		sumParticles, total, *ranks, time.Since(start).Round(time.Millisecond))
	dump()
	if accessReg != nil {
		writeAccess(accessReg.Lookup(*name))
	}
}
