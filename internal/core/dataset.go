package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"sync"
	"time"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/meta"
	"libbat/internal/obs"
	"libbat/internal/obs/access"
	"libbat/internal/particles"
	"libbat/internal/pfs"
)

// Dataset is single-process read access to a written dataset, treating the
// whole collection of leaf files as one queryable store (paper §III-D, §V).
// It is also the collective read's leaf reader: each ReadQueryCtx serves
// the leaves assigned to its rank through one Dataset.
//
// A Dataset is safe for concurrent use: any number of goroutines may run
// Query/Count/ReadAll/Histogram at the same time. Leaf files are opened
// lazily with singleflight deduplication, and each leaf's treelet cache is
// itself concurrent. Close must not be called while queries are in flight
// (servers should fence it with their own lock, as cmd/batserve does).
type Dataset struct {
	store pfs.Storage
	meta  *meta.Meta

	mu         sync.Mutex // guards files and the config fields below
	files      map[int]*leafSlot
	qcfg       bat.QueryConfig
	cacheLimit int64 // total budget across leaves; 0 = unbounded
	col        *obs.Collector
	obsLabels  []obs.Label
	accessRec  *access.Recorder
}

// leafSlot is one leaf file's singleflight slot: ready is closed once f/err
// are set, so concurrent queries needing the same unopened leaf open it
// exactly once and share the handle.
type leafSlot struct {
	ready chan struct{}
	f     *bat.File
	err   error
}

// OpenDataset reads the metadata of the dataset written under base in
// store. Leaf files are opened on first use.
func OpenDataset(ctx context.Context, store pfs.Storage, base string) (d *Dataset, err error) {
	name := MetaFileName(base)
	f, err := pfs.OpenContext(ctx, store, name)
	if err != nil {
		return nil, err
	}
	// The handle is read-only, but a failing Close can still be the first
	// sign of a flaky mount: surface it instead of dropping it.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			d, err = nil, fmt.Errorf("core: closing %s: %w", name, cerr)
		}
	}()
	buf := make([]byte, f.Size())
	if _, rerr := pfs.ReadAtContext(ctx, f, buf, 0); rerr != nil && rerr != io.EOF {
		return nil, rerr
	}
	m, err := meta.Decode(buf)
	if err != nil {
		return nil, err
	}
	return &Dataset{store: store, meta: m, files: make(map[int]*leafSlot)}, nil
}

// eachFile calls fn for every leaf in slots whose open succeeded. With
// wait it first waits out opens still in flight, so a setter does not miss
// a leaf that is mid-open; without, it skips them.
func eachFile(slots map[int]*leafSlot, wait bool, fn func(li int, f *bat.File)) {
	for li, s := range slots {
		if wait {
			<-s.ready
		} else {
			select {
			case <-s.ready:
			default:
				continue
			}
		}
		if s.err == nil {
			fn(li, s.f)
		}
	}
}

// slots snapshots the leaf slots, applying set to the configuration first
// under the same lock, so every open either sees the new configuration or
// lands in the snapshot.
func (d *Dataset) slots(set func()) map[int]*leafSlot {
	d.mu.Lock()
	defer d.mu.Unlock()
	set()
	return maps.Clone(d.files)
}

// Close releases all opened leaf files, waiting for any still mid-open.
func (d *Dataset) Close() error {
	var files map[int]*leafSlot
	d.slots(func() { files, d.files = d.files, make(map[int]*leafSlot) })
	var errs []error
	eachFile(files, true, func(_ int, f *bat.File) { errs = append(errs, f.Close()) })
	return errors.Join(errs...)
}

// SetQueryConfig sets the traversal configuration applied to every leaf
// query (existing and future opens). Safe to call concurrently with
// queries; in-flight traversals keep their old configuration.
func (d *Dataset) SetQueryConfig(cfg bat.QueryConfig) {
	slots := d.slots(func() { d.qcfg = cfg })
	eachFile(slots, true, func(_ int, f *bat.File) { f.SetQueryConfig(cfg) })
}

// SetCacheLimit bounds the total treelet-cache memory across all leaf
// files (0 = unbounded). The budget is split evenly per leaf.
func (d *Dataset) SetCacheLimit(bytes int64) {
	var per int64
	slots := d.slots(func() { d.cacheLimit = bytes; per = d.perLeafLimitLocked() })
	eachFile(slots, true, func(_ int, f *bat.File) { f.SetCacheLimit(per) })
}

// SetObserver mirrors per-leaf treelet cache counters into col.
func (d *Dataset) SetObserver(col *obs.Collector, labels ...obs.Label) {
	slots := d.slots(func() { d.col, d.obsLabels = col, labels })
	eachFile(slots, true, func(_ int, f *bat.File) { f.SetObserver(col, labels...) })
}

// SetAccessRecorder attaches an access-telemetry recorder to the dataset:
// every query then records which treelets, heatmap cells, and attributes
// it touched, and a structured record of itself in the recorder's
// recent-query ring. Applies to open and future leaf files; nil detaches
// (future queries pay only nil checks).
func (d *Dataset) SetAccessRecorder(rec *access.Recorder) {
	slots := d.slots(func() { d.accessRec = rec })
	eachFile(slots, true, func(li int, f *bat.File) { f.SetAccessRecorder(rec, li) })
}

// AccessRecorder returns the attached recorder (nil when telemetry is off).
func (d *Dataset) AccessRecorder() *access.Recorder {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.accessRec
}

// CacheStats aggregates treelet cache counters across open leaf files.
// Leaves still mid-open have no counters yet and are skipped, so a query
// on warm leaves never waits behind another query's stalled open.
func (d *Dataset) CacheStats() bat.CacheStats {
	var total bat.CacheStats
	eachFile(d.slots(func() {}), false, func(_ int, f *bat.File) {
		st := f.CacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.Entries += st.Entries
		total.Bytes += st.Bytes
	})
	return total
}

// openedLeaves counts the leaf files this Dataset has open.
func (d *Dataset) openedLeaves() int {
	n := 0
	eachFile(d.slots(func() {}), false, func(int, *bat.File) { n++ })
	return n
}

func (d *Dataset) perLeafLimitLocked() int64 {
	if d.cacheLimit <= 0 {
		return 0
	}
	n := int64(len(d.meta.Leaves))
	if n < 1 {
		n = 1
	}
	per := d.cacheLimit / n
	if per < 1 {
		per = 1
	}
	return per
}

// Schema returns the dataset's attribute schema.
func (d *Dataset) Schema() particles.Schema { return d.meta.Schema }

// Bounds returns the dataset's spatial domain.
func (d *Dataset) Bounds() geom.Box { return d.meta.Domain }

// NumParticles returns the dataset's total particle count.
func (d *Dataset) NumParticles() int64 { return d.meta.TotalCount() }

// NumFiles returns the number of leaf files.
func (d *Dataset) NumFiles() int { return len(d.meta.Leaves) }

// Compression returns the dataset's codec declaration from the top-level
// metadata, or nil when the leaf files are uncompressed.
func (d *Dataset) Compression() *meta.CompressionMeta {
	if d.meta.Compression == nil {
		return nil
	}
	cm := *d.meta.Compression
	cm.ErrorBounds = append([]float64(nil), cm.ErrorBounds...)
	return &cm
}

// AttrRange returns the global value range of an attribute.
func (d *Dataset) AttrRange(attr int) (min, max float64, err error) {
	if attr < 0 || attr >= d.meta.Schema.NumAttrs() {
		return 0, 0, fmt.Errorf("core: attribute %d out of range", attr)
	}
	r := d.meta.GlobalRanges[attr]
	return r.Min, r.Max, nil
}

// leaf opens (and caches) leaf file li. Concurrent callers for the same
// unopened leaf block on one open; open errors are not cached, so the next
// caller retries. The singleflight carries the same detach semantics as
// the treelet cache: a canceled waiter returns ctx.Err() without touching
// the shared slot, and a waiter whose own ctx is live retries after the
// opening goroutine died of its caller's cancellation.
func (d *Dataset) leaf(ctx context.Context, li int) (*bat.File, error) {
	var s *leafSlot
	for {
		d.mu.Lock()
		var ok bool
		if s, ok = d.files[li]; !ok {
			break
		}
		d.mu.Unlock()
		select {
		case <-s.ready:
		case <-ctx.Done():
			return nil, ctx.Err() // detach; the open continues without us
		}
		if s.err == nil {
			return s.f, nil
		}
		if pfs.IsContextErr(s.err) && ctx.Err() == nil {
			continue // the opener was canceled, we were not: retry
		}
		return nil, s.err
	}
	s = &leafSlot{ready: make(chan struct{})}
	d.files[li] = s
	cfg, per, col, labels, rec := d.qcfg, d.perLeafLimitLocked(), d.col, d.obsLabels, d.accessRec
	d.mu.Unlock()

	s.f, s.err = d.openLeaf(ctx, li, cfg, per, col, labels, rec)
	if s.err != nil {
		d.mu.Lock()
		if d.files[li] == s {
			delete(d.files, li)
		}
		d.mu.Unlock()
	}
	close(s.ready)
	return s.f, s.err
}

func (d *Dataset) openLeaf(ctx context.Context, li int, cfg bat.QueryConfig, cacheLimit int64, col *obs.Collector, labels []obs.Label, rec *access.Recorder) (*bat.File, error) {
	h, err := pfs.OpenContext(ctx, d.store, d.meta.Leaves[li].FileName)
	if err != nil {
		return nil, err
	}
	f, err := bat.DecodeCtx(ctx, h, h.Size())
	if err != nil {
		if cerr := h.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	f.SetCloser(h)
	f.SetQueryConfig(cfg)
	f.SetCacheLimit(cacheLimit)
	if col != nil {
		f.SetObserver(col, labels...)
	}
	if rec != nil {
		f.SetAccessRecorder(rec, li)
	}
	return f, nil
}

// selectLeaves returns the leaves q can touch: the Aggregation Tree prunes
// spatially and by the global attribute bitmaps before any file is opened.
func (d *Dataset) selectLeaves(q bat.Query) []int {
	var filters []meta.AttrFilter
	for _, f := range q.Filters {
		filters = append(filters, meta.AttrFilter{Attr: f.Attr, Min: f.Min, Max: f.Max})
	}
	return d.meta.SelectLeaves(q.Bounds, filters)
}

// serveLeaf runs q against leaf li, opening the leaf on first use. It is
// the one per-leaf query of the module: QueryBatches loops over it, and the
// collective read's aggregators serve every leaf through it. Failures name
// the leaf and its file.
func (d *Dataset) serveLeaf(ctx context.Context, li int, q bat.Query, visit bat.BatchVisitor) (st bat.QueryStats, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("leaf %d (%s): %w", li, d.meta.Leaves[li].FileName, err)
		}
	}()
	if err := ctx.Err(); err != nil {
		return st, err
	}
	f, err := d.leaf(ctx, li)
	if err != nil {
		return st, err
	}
	return f.QueryBatches(ctx, q, visit)
}

// record logs one served query in rec's recent-query ring. r carries what
// only the caller knows (source tag, serving rank, workers, cache hit
// ratio); the rest comes from q and its stats.
func (d *Dataset) record(rec *access.Recorder, r access.QueryRecord, q bat.Query, st bat.QueryStats, start time.Time) {
	r.Box = access.BoxRecord(q.Bounds)
	for _, flt := range q.Filters {
		name := fmt.Sprintf("attr%d", flt.Attr)
		if flt.Attr >= 0 && flt.Attr < d.meta.Schema.NumAttrs() {
			name = d.meta.Schema.Attrs[flt.Attr].Name
		}
		r.Filters = append(r.Filters, access.FilterRange{Attr: name, Min: flt.Min, Max: flt.Max})
	}
	r.PrevQuality, r.Quality = q.PrevQuality, q.Quality
	r.Treelets, r.Particles = st.Treelets, st.Visited
	r.Pruned, r.FalsePositives = st.PrunedSubtrees, st.FalsePositives
	r.Seconds = time.Since(start).Seconds()
	rec.Record(r)
}

// Query runs a visualization read over the whole dataset (paper §V): the
// Aggregation Tree prunes leaf files spatially and by attribute bitmap
// before each surviving file's BAT is traversed. Progressive quality
// windows apply per leaf file.
func (d *Dataset) Query(q bat.Query, visit bat.Visitor) error {
	_, err := d.QueryBatches(context.Background(), "dataset", q, visit.Batches())
	return err
}

// QueryBatches is the dataset's query entry point, which every other
// query method consumes: the Aggregation Tree prunes leaf files, then each
// surviving leaf's engine hands visit one batch per treelet with matches.
// source tags the query in the access-telemetry recent-query log (e.g.
// "batserve:/points"). When ctx ends, leaf opens and treelet traversals
// abort promptly and an error wrapping ctx.Err() is returned; leaf files
// and treelets already cached stay valid for later queries.
func (d *Dataset) QueryBatches(ctx context.Context, source string, q bat.Query, visit bat.BatchVisitor) (bat.QueryStats, error) {
	d.mu.Lock()
	rec, workers := d.accessRec, d.qcfg.Workers
	d.mu.Unlock()

	var start time.Time
	var before bat.CacheStats
	if rec != nil {
		start, before = time.Now(), d.CacheStats()
	}
	var total bat.QueryStats
	var qerr error
	for _, li := range d.selectLeaves(q) {
		st, err := d.serveLeaf(ctx, li, q, visit)
		total.Add(st)
		if err != nil {
			qerr = err
			break
		}
	}
	if rec == nil {
		return total, qerr
	}
	after := d.CacheStats()
	// Cache hit ratio over this query's lookups, from the counter delta.
	// Approximate when queries overlap — concurrent lookups land in the
	// same window — but exact in the common serial-server case.
	var ratio float64
	lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses)
	if lookups > 0 {
		ratio = float64(after.Hits-before.Hits) / float64(lookups)
	}
	d.record(rec, access.QueryRecord{Source: source, Workers: workers, CacheHitRatio: ratio}, q, total, start)
	return total, qerr
}

// Count returns the number of particles a query would visit.
func (d *Dataset) Count(q bat.Query) (int64, error) {
	return d.CountCtx(context.Background(), q)
}

// CountCtx is Count honoring ctx.
func (d *Dataset) CountCtx(ctx context.Context, q bat.Query) (int64, error) {
	st, err := d.QueryBatches(ctx, "dataset", q, func(*bat.Batch) error { return nil })
	return st.Visited, err
}

// ReadAll collects every particle into one set.
func (d *Dataset) ReadAll() (*particles.Set, error) {
	out := particles.NewSet(d.meta.Schema, int(d.meta.TotalCount()))
	_, err := d.QueryBatches(context.Background(), "dataset", bat.Query{}, bat.Collect(out))
	return out, err
}

// LeafInfo describes one leaf file of a dataset.
type LeafInfo struct {
	FileName string
	Bounds   geom.Box
	Count    int64
}

// Leaves returns the dataset's leaf files in aggregation order.
func (d *Dataset) Leaves() []LeafInfo {
	out := make([]LeafInfo, len(d.meta.Leaves))
	for i, l := range d.meta.Leaves {
		out[i] = LeafInfo{FileName: l.FileName, Bounds: l.Bounds, Count: l.Count}
	}
	return out
}

// Histogram bins the values of one attribute matched by a query into
// `bins` equal-width buckets over the attribute's global range — a typical
// analysis pass over the layout. Quality below 1 computes the histogram
// from the LOD subset only, trading exactness for latency (§V-B).
func (d *Dataset) Histogram(attr, bins int, q bat.Query) ([]int64, error) {
	if attr < 0 || attr >= d.meta.Schema.NumAttrs() {
		return nil, fmt.Errorf("core: attribute %d out of range", attr)
	}
	if bins < 1 {
		return nil, fmt.Errorf("core: need at least 1 bin")
	}
	r := d.meta.GlobalRanges[attr]
	width := r.Max - r.Min
	out := make([]int64, bins)
	_, err := d.QueryBatches(context.Background(), "dataset", q, func(b *bat.Batch) error {
		col := b.Attrs[attr]
		for _, j := range b.Sel {
			k := 0
			if width > 0 {
				k = min(max(int((col[j]-r.Min)/width*float64(bins)), 0), bins-1)
			}
			out[k]++
		}
		return nil
	})
	return out, err
}
