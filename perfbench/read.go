package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"libbat"
	"libbat/internal/bat"
)

// dataset is a written coal-boiler dataset plus the generator of its
// session queries.
type dataset struct {
	dir   string
	store libbat.Storage
	gen   *queryGen
	total int64
	bytes int64
}

// writeDataset writes the coal-boiler final step under dir with spec's
// configuration (v3 for read_progressive_cold, v2 for serve_points_warm).
func writeDataset(dir string, spec writeSpec, sc scale) (*dataset, error) {
	in, err := prepareWrite(spec, sc)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := libbat.DirStorage(dir)
	if err != nil {
		return nil, err
	}
	if _, err := collectiveWrite(in, store, writeBase, nil); err != nil {
		return nil, err
	}
	_, bytes, err := hashDataset(dir)
	if err != nil {
		return nil, err
	}
	return &dataset{dir: dir, store: store, gen: newQueryGen(in.Sets, in.Domain), total: in.Total, bytes: bytes}, nil
}

// session is one progressive session's outcome.
type session struct {
	query       libbat.Query
	open, first time.Duration // first: to the complete quality-0.1 answer
	total       time.Duration
	steps       [steps]digest
	err         error
	alloc       uint64 // in-process: bytes allocated during the session

	pool int       // serve_points_warm: index of the pooled query
	reqs []float64 // serve_points_warm, traced: request latencies
}

func (s *session) points() int64 {
	var n int64
	for _, d := range s.steps {
		n += d.n
	}
	return n
}

func (s *session) union() digest {
	var u digest
	for _, d := range s.steps {
		u.add(d)
	}
	return u
}

// coldSession opens the dataset fresh, so the treelet cache starts empty,
// and steps quality 0.1→1.0 with the Dataset's default (serial) engine.
// The returned Dataset is still open, for the gate and replays.
func coldSession(o options, store libbat.Storage, q libbat.Query, tr *tracer, lane int) (*session, *libbat.Dataset) {
	s := &session{query: q}
	sp := tr.start(lane, "session")
	defer sp.End()
	start := time.Now()
	osp := tr.start(lane, "libbat.OpenDataset")
	ds, err := libbat.OpenDataset(store, writeBase)
	osp.End()
	s.open = time.Since(start)
	if err != nil {
		s.err = err
		s.total = s.open
		return s, nil
	}
	for k := 1; k <= steps; k++ {
		visit := libbat.Visitor(s.steps[k-1].visit)
		if o.Faults.Visit != nil {
			visit = o.Faults.Visit(visit)
		}
		qsp := tr.start(lane, fmt.Sprintf("libbat.Dataset.Query q=%.1f", float64(k)/steps))
		err := ds.Query(step(q, k), visit)
		qsp.End()
		if err != nil {
			s.err = err
			break
		}
		if k == 1 {
			s.first = time.Since(start)
		}
	}
	s.total = time.Since(start)
	return s, ds
}

// tiles checks that the session's increments add up to one quality-1
// query of the same box and filter on the same Dataset.
func tiles(ds *libbat.Dataset, s *session) error {
	full := s.query
	full.PrevQuality, full.Quality = 0, 1
	var want digest
	if err := ds.Query(full, want.visit); err != nil {
		return err
	}
	if got := s.union(); got != want {
		return fmt.Errorf("increments hold %d points (digest %x), quality-1 query %d (digest %x)", got.n, got.sum, want.n, want.sum)
	}
	return nil
}

// bruteCheck compares the first session's answers with a brute-force box
// and filter scan of ReadAll.
func bruteCheck(store libbat.Storage, ss []*session) error {
	if len(ss) == 0 {
		return nil
	}
	ds, err := libbat.OpenDataset(store, writeBase)
	if err != nil {
		return err
	}
	defer ds.Close()
	all, err := ds.ReadAll()
	if err != nil {
		return err
	}
	if s := ss[0]; s.err == nil {
		if got, want := s.union(), bruteForce(all, s.query); got != want {
			s.err = fmt.Errorf("session holds %d points (digest %x), brute-force scan %d (digest %x)", got.n, got.sum, want.n, want.sum)
		}
	}
	return nil
}

func runReadCold(o options, t *tally, traced bool) (metrics, error) {
	m := newMetrics()
	dir := filepath.Join(o.Work, o.Workload)
	defer os.RemoveAll(dir)
	d, setupS, err := timeSetup(func() (*dataset, error) { return writeDataset(dir, coalWrite, o.Scale) })
	if err != nil {
		return m, err
	}
	m.env["particles"] = d.total
	m.env["bytes_on_disk"] = d.bytes
	settle()

	store := d.store
	if o.Faults.Store != nil {
		store = o.Faults.Store(store)
	}
	if !traced {
		ss, measured := coldSessions(o, store, d.gen, o.window(), 0, o.Scale.MinSessions, nil)
		ok, err := gateSessions(t, d.store, ss)
		if err != nil {
			return m, err
		}
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return m, err
		}
		setSessionMetrics(m, ok, measured)
		m.set("stored_bytes_per_particle", float64(d.bytes)/float64(d.total), "B")
		m.set("setup_s", setupS, "s")
		m.set("peak_rss_mb", rss, "MB")
		m.env["samples"] = len(ok)
		return m, nil
	}

	// Traced run: half the window untraced (it also measures allocation),
	// half traced, each traced session followed by a warm replay on the
	// same Dataset and a per-leaf QueryWithStats replay.
	plain, _ := coldSessions(o, store, d.gen, o.window()/2, 0, o.Scale.MinOps, nil)
	plainOK, err := gateSessions(t, d.store, plain)
	if err != nil {
		return m, err
	}
	var points, alloc uint64
	for _, s := range plainOK {
		points += uint64(s.points())
		alloc += s.alloc
	}
	m.set("libbat.alloc_bytes_per_point", float64(alloc)/float64(max(points, 1)), "B")

	lay := &readLayers{tr: newTracer(o), raw: d.store}
	lay.ts = lay.tr.store(store)
	tss, _ := coldSessions(o, lay.ts, d.gen, o.window()/2, len(plain), o.Scale.MinOps, lay)
	for i, s := range tss {
		t.record(s.err, fmt.Sprintf("traced session %d", i))
	}
	if len(lay.session) == 0 || len(plainOK) == 0 {
		return m, nil // every session failed; error_rate says so
	}
	var plainTotal []float64
	for _, s := range plainOK {
		plainTotal = append(plainTotal, s.total.Seconds())
	}
	m.set("trace_overhead_ratio", median(lay.session)/median(plainTotal), "ratio")
	lay.set(m)
	return m, lay.tr.finish(m, lay.table(m))
}

// coldSessions runs sessions first, first+1, ... until their summed time
// reaches window (and at least minOps ran), checking after each that its
// increments tile one quality-1 query. It returns the sessions and their
// summed time. With lay set, each session is traced and replayed. The
// allocation count brackets the session alone, outside its clock.
func coldSessions(o options, store libbat.Storage, gen *queryGen, window time.Duration, first, minOps int, lay *readLayers) ([]*session, time.Duration) {
	var ss []*session
	var measured time.Duration
	start := time.Now()
	for i := first; (measured < window || len(ss) < minOps) && time.Since(start) < giveUp(window); i++ {
		lane := lay.lane()
		c0 := lay.counts()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, ds := coldSession(o, store, gen.session(o.Seed, i), lay.tracer(), lane)
		runtime.ReadMemStats(&after)
		s.alloc = after.TotalAlloc - before.TotalAlloc
		ss = append(ss, s)
		measured += s.total
		if ds == nil {
			continue
		}
		if s.err == nil && lay != nil {
			lay.record(ds, s, lane, c0)
		}
		if s.err == nil {
			s.err = tiles(ds, s)
		}
		ds.Close()
	}
	return ss, measured
}

// gateSessions runs the brute-force check and records every session in
// the tally, returning the correct ones.
func gateSessions(t *tally, store libbat.Storage, ss []*session) ([]*session, error) {
	if err := bruteCheck(store, ss); err != nil {
		return nil, err
	}
	var ok []*session
	for i, s := range ss {
		t.record(s.err, fmt.Sprintf("session %d", i))
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	return ok, nil
}

// setSessionMetrics sets the session end-to-end metrics; wall is the
// measured phase's duration.
func setSessionMetrics(m metrics, ok []*session, wall time.Duration) {
	var total, first []float64
	var points int64
	for _, s := range ok {
		total = append(total, s.total.Seconds())
		first = append(first, s.first.Seconds())
		points += s.points()
	}
	m.set("op_s", median(total), "s")
	m.set("op_p90_s", quantile(total, 0.9), "s")
	m.set("first_step_s", median(first), "s")
	m.set("points_per_s", float64(points)/wall.Seconds(), "1/s")
}

// readLayers accumulates the traced sessions' per-layer samples. A nil
// *readLayers traces nothing.
type readLayers struct {
	tr  *tracer
	ts  *timedStore    // the sessions' storage decorator
	raw libbat.Storage // undecorated store for the per-leaf replay

	session, open, warm []float64
	pfs                 []pfsCounts
	cache               []libbat.CacheStats
	stats               []libbat.QueryStats
}

func (l *readLayers) tracer() *tracer {
	if l == nil {
		return nil
	}
	return l.tr
}

func (l *readLayers) lane() int { return l.tracer().lane() }

func (l *readLayers) counts() pfsCounts {
	if l == nil {
		return pfsCounts{}
	}
	return l.ts.counts()
}

// record takes a finished traced session's samples: its pfs traffic since
// c0, its cache counters and the two replays.
func (l *readLayers) record(ds *libbat.Dataset, s *session, lane int, c0 pfsCounts) {
	pc := l.ts.counts().sub(c0)
	cs := ds.CacheStats()
	if err := l.replay(ds, s, lane); err != nil {
		s.err = err
		return
	}
	l.session = append(l.session, s.total.Seconds())
	l.open = append(l.open, s.open.Seconds())
	l.pfs = append(l.pfs, pc)
	l.cache = append(l.cache, cs)
}

// replay re-runs the session's queries twice: warm on the same Dataset
// (bat.traverse_s), and per leaf through bat.File.QueryWithStats for the
// traversal counters. Leaves are opened from the undecorated store so the
// replay does not count as the session's pfs traffic.
func (l *readLayers) replay(ds *libbat.Dataset, s *session, lane int) error {
	sp := l.tr.start(lane, "warm-replay")
	start := time.Now()
	for k := 1; k <= steps; k++ {
		var d digest
		if err := ds.Query(step(s.query, k), d.visit); err != nil {
			sp.End()
			return err
		}
	}
	l.warm = append(l.warm, time.Since(start).Seconds())
	sp.End()

	sp = l.tr.start(lane, "per-leaf-replay")
	defer sp.End()
	var total libbat.QueryStats
	for _, leaf := range ds.Leaves() {
		if s.query.Bounds != nil && !s.query.Bounds.Overlaps(leaf.Bounds) {
			continue
		}
		h, err := l.raw.Open(leaf.FileName)
		if err != nil {
			return err
		}
		f, err := bat.Decode(h, h.Size())
		if err != nil {
			h.Close()
			return err
		}
		for k := 1; k <= steps; k++ {
			st, err := f.QueryWithStats(step(s.query, k), func(libbat.Vec3, []float64) error { return nil })
			if err != nil {
				h.Close()
				return err
			}
			total.Visited += st.Visited
			total.FalsePositives += st.FalsePositives
			total.PrunedSubtrees += st.PrunedSubtrees
			total.Treelets += st.Treelets
		}
		h.Close()
	}
	l.stats = append(l.stats, total)
	return nil
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) int64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = float64(f(x))
	}
	return median(vs)
}

// set sets the bat, libbat and pfs read metrics it has samples for.
func (l *readLayers) set(m metrics) {
	if l.session == nil {
		m.set("bat.traverse_s", median(l.warm), "s")
	} else {
		// Times come from the traced session of median duration, so open,
		// traverse and load/decode add up to it exactly.
		i := medianIndex(l.session)
		m.set("libbat.open_s", l.open[i], "s")
		m.set("bat.traverse_s", l.warm[i], "s")
		m.set("bat.load_decode_s", l.session[i]-l.open[i]-l.warm[i], "s")
		m.secs("pfs.read_s", l.pfs[i].Read)
	}
	if l.pfs != nil {
		m.set("pfs.open_calls", medianOf(l.pfs, func(c pfsCounts) int64 { return c.OpenCalls }), "count")
		m.set("pfs.read_calls", medianOf(l.pfs, func(c pfsCounts) int64 { return c.ReadCalls }), "count")
		m.set("pfs.read_bytes", medianOf(l.pfs, func(c pfsCounts) int64 { return c.ReadBytes }), "B")
	}
	if l.cache != nil {
		var hits, misses int64
		for _, c := range l.cache {
			hits += c.Hits
			misses += c.Misses
		}
		m.set("bat.cache_hits", medianOf(l.cache, func(c libbat.CacheStats) int64 { return c.Hits }), "count")
		m.set("bat.cache_misses", medianOf(l.cache, func(c libbat.CacheStats) int64 { return c.Misses }), "count")
		m.set("bat.cache_evictions", medianOf(l.cache, func(c libbat.CacheStats) int64 { return c.Evictions }), "count")
		m.set("bat.cache_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "ratio")
	}
	var visited, fp int64
	for _, s := range l.stats {
		visited += s.Visited
		fp += s.FalsePositives
	}
	m.set("bat.visited", medianOf(l.stats, func(s libbat.QueryStats) int64 { return s.Visited }), "count")
	m.set("bat.false_positives", medianOf(l.stats, func(s libbat.QueryStats) int64 { return s.FalsePositives }), "count")
	m.set("bat.pruned_subtrees", medianOf(l.stats, func(s libbat.QueryStats) int64 { return s.PrunedSubtrees }), "count")
	m.set("bat.treelets", medianOf(l.stats, func(s libbat.QueryStats) int64 { return s.Treelets }), "count")
	m.set("bat.filter_precision", float64(visited)/float64(max(1, visited+fp)), "ratio")
}

func (l *readLayers) table(m metrics) string {
	total := l.session[medianIndex(l.session)]
	return breakdown(fmt.Sprintf("traced cold session (median op_s), trace_overhead_ratio %.3f; pfs.read_s %.6f s is part of bat.load_decode_s",
		m.out["trace_overhead_ratio"].Value, m.out["pfs.read_s"].Value), total,
		[]part{{"libbat.open_s", m.out["libbat.open_s"].Value}, {"bat.traverse_s", m.out["bat.traverse_s"].Value}},
		"bat.load_decode_s")
}
