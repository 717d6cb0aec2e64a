package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"libbat"
	"libbat/internal/aggtree"
	"libbat/internal/core"
	"libbat/internal/obs"
	"libbat/internal/workloads"
)

// writeSpec is one collective-write configuration.
type writeSpec struct {
	Ranks    func(scale) int
	Target   int64
	Compress bool // v3 with per-attribute bounds of 1e-3 of each range
	Make     func(ranks int, particles int64) (workloads.Workload, int, error)
}

// coalWrite is the coal-boiler final step: PlanAuto plans centrally, and
// the time goes to fabric exchange, BAT build with v3 encode and writes.
var coalWrite = writeSpec{
	Ranks:    func(s scale) int { return s.CoalRanks },
	Target:   8 << 20,
	Compress: true,
	Make: func(ranks int, particles int64) (workloads.Workload, int, error) {
		cb, err := workloads.NewCoalBoiler(ranks)
		if err != nil {
			return nil, 0, err
		}
		cb.SetGrowth(0, 100, particles/4, particles)
		return cb, 100, nil
	},
}

// damWrite is the dam-break case at the paper's Fig. 12 target: the one
// workload on which PlanAuto runs the distributed planner, written as v2.
var damWrite = writeSpec{
	Ranks:  func(s scale) int { return s.DamRanks },
	Target: 3 << 20,
	Make: func(ranks int, particles int64) (workloads.Workload, int, error) {
		w, err := workloads.NewDamBreak(ranks, particles)
		return w, 0, err
	},
}

// writeInput is a generated timestep ready to be written.
type writeInput struct {
	W      workloads.Workload
	Step   int
	Sets   []*libbat.ParticleSet
	Bounds []libbat.Box
	Cfg    libbat.WriteConfig
	Total  int64
	Domain libbat.Box
}

func prepareWrite(spec writeSpec, sc scale) (*writeInput, error) {
	w, st, err := spec.Make(spec.Ranks(sc), sc.Particles)
	if err != nil {
		return nil, err
	}
	n := w.Decomp().NumRanks()
	in := &writeInput{W: w, Step: st, Sets: make([]*libbat.ParticleSet, n), Bounds: make([]libbat.Box, n),
		Cfg: libbat.DefaultWriteConfig(spec.Target), Domain: w.Decomp().Domain}
	for r := 0; r < n; r++ {
		in.Sets[r] = w.Generate(st, r)
		in.Bounds[r] = w.Decomp().RankBounds(r)
		in.Total += int64(in.Sets[r].Len())
	}
	if spec.Compress {
		nattr := w.Schema().NumAttrs()
		bounds := make([]float64, nattr)
		for a := 0; a < nattr; a++ {
			var lo, hi float64
			first := true
			for _, s := range in.Sets {
				if s.Len() == 0 {
					continue
				}
				r := s.AttrRange(a)
				if first || r.Min < lo {
					lo = r.Min
				}
				if first || r.Max > hi {
					hi = r.Max
				}
				first = false
			}
			bounds[a] = 1e-3 * (hi - lo)
		}
		in.Cfg.BAT.Compress = true
		in.Cfg.BAT.AttrErrorBounds = bounds
	}
	return in, nil
}

// writeRun is what one collective write reports.
type writeRun struct {
	Dur      time.Duration // release of all ranks into Write → last return
	Root     *libbat.WriteStats
	Bytes    int64 // Fabric.BytesSent of this write's fresh fabric
	Messages int64
}

// collectiveWrite runs libbat.Write on a fresh fabric. Every rank is
// released at once after its goroutine started; the clock stops when the
// last rank returns. col, when non-nil, is attached to the fabric so the
// program's own spans show which planner ran.
func collectiveWrite(in *writeInput, store libbat.Storage, base string, col *obs.Collector) (writeRun, error) {
	n := len(in.Sets)
	f := libbat.NewFabric(n)
	f.SetObserver(col)
	var ready sync.WaitGroup
	ready.Add(n)
	release := make(chan struct{})
	ends := make([]time.Time, n)
	var root *libbat.WriteStats
	done := make(chan error, 1)
	go func() {
		done <- f.Run(func(c *libbat.Comm) error {
			r := c.Rank()
			ready.Done()
			<-release
			st, err := libbat.Write(c, store, base, in.Sets[r], in.Bounds[r], in.Cfg)
			ends[r] = time.Now()
			if r == 0 {
				root = st
			}
			return err
		})
	}()
	ready.Wait()
	start := time.Now()
	close(release)
	err := <-done
	run := writeRun{Root: root, Bytes: f.BytesSent(), Messages: f.MessagesSent()}
	for _, e := range ends {
		run.Dur = max(run.Dur, e.Sub(start))
	}
	return run, err
}

// datasetFiles lists the files of the dataset under dir, sorted.
func datasetFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// hashDataset is a SHA-256 over every file name and content, and the
// dataset's total size in bytes.
func hashDataset(dir string) ([32]byte, int64, error) {
	var sum [32]byte
	names, err := datasetFiles(dir)
	if err != nil {
		return sum, 0, err
	}
	h := sha256.New()
	var total int64
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return sum, 0, err
		}
		io.WriteString(h, name)
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return sum, 0, err
		}
		total += n
	}
	copy(sum[:], h.Sum(nil))
	return sum, total, nil
}

// clearDir removes every file of dir, so each write starts from an empty
// directory.
func clearDir(dir string) error {
	names, err := datasetFiles(dir)
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := os.Remove(filepath.Join(dir, n)); err != nil {
			return err
		}
	}
	return nil
}

const writeBase = "ds"

// runWrite measures repeated collective writes of one generated timestep.
// Each write is followed by the time to a reader's first picture (open the
// dataset and answer one seeded quality-0.1 query) and by the gate: the
// files hash the same on every write, and the reopened dataset holds the
// generated particle count (checked by a full-domain Count on the first
// write; identical bytes give identical answers after that).
func runWrite(o options, t *tally, traced bool, spec writeSpec) (metrics, error) {
	m := newMetrics()
	dir := filepath.Join(o.Work, o.Workload)
	defer os.RemoveAll(dir)
	in, setupS, err := timeSetup(func() (*writeInput, error) {
		in, err := prepareWrite(spec, o.Scale)
		if err != nil {
			return nil, err
		}
		return in, os.MkdirAll(dir, 0o755)
	})
	if err != nil {
		return m, err
	}
	store, err := libbat.DirStorage(dir)
	if err != nil {
		return m, err
	}
	gen := newQueryGen(in.Sets, in.Domain)
	m.env["particles"] = in.Total
	m.env["ranks"] = len(in.Sets)
	m.env["target_file_bytes"] = spec.Target
	settle()

	w := &writeLoop{o: o, t: t, in: in, dir: dir, store: store, gen: gen}
	if !traced {
		res, err := w.measure(o.window(), nil)
		if err != nil {
			return m, err
		}
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return m, err
		}
		m.set("op_s", median(res.write), "s")
		m.set("op_p90_s", quantile(res.write, 0.9), "s")
		m.set("first_step_s", median(res.first), "s")
		m.set("points_per_s", float64(in.Total)/mean(res.write), "1/s")
		m.set("stored_bytes_per_particle", float64(w.bytes)/float64(in.Total), "B")
		m.set("setup_s", setupS, "s")
		m.set("peak_rss_mb", rss, "MB")
		m.env["bytes_on_disk"] = w.bytes
		m.env["samples"] = len(res.write)
		return m, nil
	}

	// Traced run: half the window untraced, half with the timing storage
	// decorator, then one probe write with the program's own telemetry
	// attached (its spans name the planner PlanAuto chose) and direct
	// timed calls to that planner.
	plain, err := w.measure(o.window()/2, nil)
	if err != nil {
		return m, err
	}
	tr := newTracer(o)
	res, err := w.measure(o.window()/2, tr)
	if err != nil {
		return m, err
	}
	if len(res.write) == 0 || len(plain.write) == 0 {
		return m, nil // every write failed; error_rate says so
	}
	m.set("trace_overhead_ratio", median(res.write)/median(plain.write), "ratio")
	total := writeLayers(m, res)
	distributed, err := w.probePlanner()
	if err != nil {
		return m, err
	}
	if err := planLayer(m, in, tr, distributed); err != nil {
		return m, err
	}
	m.env["bytes_on_disk"] = w.bytes
	return m, tr.finish(m, writeTable(m, total))
}

type writeLoop struct {
	o     options
	t     *tally
	in    *writeInput
	dir   string
	store libbat.Storage
	gen   *queryGen

	hash    [32]byte // of the reference write
	hashSet bool
	bytes   int64
}

// writeSamples holds one measurement phase's successful writes.
type writeSamples struct {
	write, first []float64
	runs         []writeRun
	pfs          []pfsCounts // traced phase only
}

// measure writes until the writes' summed time reaches window (and at
// least MinOps succeeded); the gates between writes are not timed.
func (w *writeLoop) measure(window time.Duration, tr *tracer) (writeSamples, error) {
	var res writeSamples
	var measured time.Duration
	start := time.Now()
	for i := 0; (measured < window || len(res.write) < w.o.Scale.MinOps) && time.Since(start) < giveUp(window); i++ {
		if err := clearDir(w.dir); err != nil {
			return res, err
		}
		store := w.store
		if w.o.Faults.Store != nil {
			store = w.o.Faults.Store(store)
		}
		var ts *timedStore
		if tr != nil {
			ts = tr.store(store)
			store = ts
		}
		lane := tr.lane()
		sp := tr.start(lane, "libbat.Write")
		run, err := collectiveWrite(w.in, store, writeBase, nil)
		sp.End()
		measured += run.Dur
		if err != nil {
			w.t.record(err, fmt.Sprintf("write %d", i))
			continue
		}
		sp = tr.start(lane, "first-picture")
		first, err := w.firstPicture(i)
		sp.End()
		if err == nil {
			err = w.gate()
		}
		w.t.record(err, fmt.Sprintf("write %d", i))
		if err != nil {
			continue
		}
		res.write = append(res.write, run.Dur.Seconds())
		res.first = append(res.first, (run.Dur + first).Seconds())
		res.runs = append(res.runs, run)
		if ts != nil {
			res.pfs = append(res.pfs, ts.counts())
		}
	}
	return res, nil
}

// probePlanner makes one more write with the program's telemetry attached
// to the fabric and reports whether its spans show distributed planning.
func (w *writeLoop) probePlanner() (bool, error) {
	if err := clearDir(w.dir); err != nil {
		return false, err
	}
	col := obs.New()
	if _, err := collectiveWrite(w.in, w.store, writeBase, col); err != nil {
		return false, err
	}
	for _, s := range col.Spans() {
		if s.Name == "write.dist-plan" {
			return true, nil
		}
	}
	return false, nil
}

// firstPicture is the time for a reader to open the fresh dataset and get
// the complete quality-0.1 answer of one seeded session query.
func (w *writeLoop) firstPicture(i int) (time.Duration, error) {
	start := time.Now()
	ds, err := libbat.OpenDataset(w.store, writeBase)
	if err != nil {
		return 0, err
	}
	defer ds.Close()
	var d digest
	err = ds.Query(step(w.gen.session(w.o.Seed, i), 1), d.visit)
	return time.Since(start), err
}

// gate checks the written dataset. The first write that passes every
// check becomes the reference the later writes' bytes must match.
func (w *writeLoop) gate() error {
	sum, bytes, err := hashDataset(w.dir)
	if err != nil {
		return err
	}
	if w.hashSet && sum != w.hash {
		return fmt.Errorf("dataset bytes differ from the first write's")
	}
	ds, err := libbat.OpenDataset(w.store, writeBase)
	if err != nil {
		return err
	}
	defer ds.Close()
	if got := ds.NumParticles(); got != w.in.Total {
		return fmt.Errorf("reopened dataset holds %d particles, wrote %d", got, w.in.Total)
	}
	if !w.hashSet {
		n, err := ds.Count(libbat.Query{Quality: 1})
		if err != nil {
			return err
		}
		if n != w.in.Total {
			return fmt.Errorf("full-domain Count = %d, wrote %d", n, w.in.Total)
		}
		w.hash, w.hashSet, w.bytes = sum, true, bytes
	}
	return nil
}

// writeLayers sets the core, fabric and pfs metrics from the traced write
// of median duration: rank 0's phases, the critical-path maxima, and the
// write's traffic. core.unattributed_s is that write's time minus rank 0's
// phases, so the table adds up exactly. It returns the write's time.
func writeLayers(m metrics, res writeSamples) float64 {
	i := medianIndex(res.write)
	med := res.write[i]
	run, st := res.runs[i], res.runs[i].Root
	pm := st.PhaseMax
	if pm == nil {
		pm = &core.PhaseTimes{}
	}
	phases := []struct {
		name     string
		own, max time.Duration
	}{
		{"plan", st.TreeBuild, pm.TreeBuild},
		{"gather_scatter", st.GatherScatter, pm.GatherScatter},
		{"transfer", st.Transfer, pm.Transfer},
		{"bat_build", st.BATBuild, pm.BATBuild},
		{"file_write", st.FileWrite, pm.FileWrite},
		{"metadata", st.Metadata, pm.Metadata},
	}
	rest := med
	for _, p := range phases {
		m.secs("core."+p.name+"_s", p.own)
		m.secs("core.max_"+p.name+"_s", p.max)
		rest -= p.own.Seconds()
	}
	m.set("core.unattributed_s", rest, "s")
	m.set("fabric.bytes_sent", float64(run.Bytes), "B")
	m.set("fabric.messages_sent", float64(run.Messages), "count")
	c := res.pfs[i]
	m.set("pfs.write_calls", float64(c.WriteCalls), "count")
	m.set("pfs.write_bytes", float64(c.WriteBytes), "B")
	m.secs("pfs.write_s", c.Write)
	return med
}

// planLayer times a direct call to the planner PlanAuto picked, fed the
// workload's rank infos: aggtree.DistributedBuild on a fresh fabric of the
// write's size, or aggtree.Build.
func planLayer(m metrics, in *writeInput, tr *tracer, distributed bool) error {
	infos := workloads.RankInfos(in.W, in.Step)
	cfg := in.Cfg.Tree
	cfg.TargetFileSize = in.Cfg.TargetFileSize
	cfg.BytesPerParticle = in.W.Schema().BytesPerParticle()
	lane := tr.lane()
	var durs []float64
	var rounds, leaves int
	for rep := 0; rep < 3; rep++ {
		sp := tr.start(lane, "aggtree.plan")
		start := time.Now()
		if distributed {
			var maxRounds atomic.Int64
			var numLeaves atomic.Int64
			err := libbat.Run(len(infos), func(c *libbat.Comm) error {
				p, err := aggtree.DistributedBuild(c, infos[c.Rank()], aggtree.DistConfig{Config: cfg})
				if err != nil {
					return err
				}
				for {
					cur := maxRounds.Load()
					if int64(p.Stats.Rounds) <= cur || maxRounds.CompareAndSwap(cur, int64(p.Stats.Rounds)) {
						break
					}
				}
				numLeaves.Store(int64(p.NumLeaves))
				return nil
			})
			if err != nil {
				return err
			}
			rounds, leaves = int(maxRounds.Load()), int(numLeaves.Load())
		} else {
			tree, err := aggtree.Build(infos, cfg)
			if err != nil {
				return err
			}
			rounds, leaves = 0, len(tree.Leaves)
		}
		durs = append(durs, time.Since(start).Seconds())
		sp.End()
	}
	m.set("aggtree.plan_s", median(durs), "s")
	m.set("aggtree.rounds", float64(rounds), "count")
	m.set("aggtree.leaves", float64(leaves), "count")
	planner := "centralized"
	if distributed {
		planner = "distributed"
	}
	m.env["planner"] = planner
	return nil
}
