package bat

import (
	"context"
	"errors"
	"math"
	"sync/atomic"

	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// maxSaneDepth bounds treelet traversal: a treelet with 2^64 leaves is
// impossible, so deeper recursion means a corrupt file with cyclic links.
const maxSaneDepth = 64

var errCyclicTreelet = errors.New("bat: treelet node links form a cycle (corrupt file)")

// AttrFilter restricts a query to particles whose attribute lies in
// [Min, Max].
type AttrFilter struct {
	Attr     int
	Min, Max float64
}

// Query describes a visualization read (paper §V): an optional bounding box
// for spatial filtering, a set of attribute filters, and a progressive
// quality window. Quality ranges over [0, 1]: 0 loads nothing, 1 the entire
// data set; the value is log-remapped to a maximum treelet depth since the
// number of LOD particles doubles each level (§V-B). Setting PrevQuality to
// the previously queried level makes the read progressive, processing only
// the new particles for the quality increment.
type Query struct {
	Bounds      *geom.Box
	Filters     []AttrFilter
	PrevQuality float64
	Quality     float64
}

// Visitor receives each particle matched by a query. Returning a non-nil
// error aborts the traversal. attrs is reused between calls: it is valid
// only until the visitor returns.
type Visitor func(p geom.Vec3, attrs []float64) error

// Batch is one treelet's share of a query's answer: views of the treelet's
// decoded columns plus the selection vector Sel of the indices that passed
// every check, in visit order. The i-th matching particle is at
// (X[Sel[i]], Y[Sel[i]], Z[Sel[i]]) with attribute a in Attrs[a][Sel[i]].
//
// The columns are the cached treelet itself, shared with concurrent
// queries, and Sel is reused for the next batch: a Batch is valid only
// during the BatchVisitor call, and neither may be modified.
type Batch struct {
	X, Y, Z []float32
	Attrs   [][]float64
	Sel     []uint32
}

// Pos returns the position of the i-th selected particle.
func (b *Batch) Pos(i int) geom.Vec3 {
	j := b.Sel[i]
	return geom.V3(float64(b.X[j]), float64(b.Y[j]), float64(b.Z[j]))
}

// Collect returns a batch visitor that appends every selected particle to
// s, whose schema must be the file's.
func Collect(s *particles.Set) BatchVisitor {
	return func(b *Batch) error {
		for _, j := range b.Sel {
			s.X = append(s.X, b.X[j])
			s.Y = append(s.Y, b.Y[j])
			s.Z = append(s.Z, b.Z[j])
		}
		for a, col := range b.Attrs {
			dst := s.Attrs[a]
			for _, j := range b.Sel {
				dst = append(dst, col[j])
			}
			s.Attrs[a] = dst
		}
		return nil
	}
}

// BatchVisitor receives the non-empty batches of a query, one call per
// matching treelet, never concurrently. Returning a non-nil error aborts
// the traversal.
type BatchVisitor func(b *Batch) error

// Batches adapts a per-particle visitor to batches. One attribute buffer
// serves every particle of every batch.
func (visit Visitor) Batches() BatchVisitor {
	var attrs []float64
	return func(b *Batch) error {
		if attrs == nil {
			attrs = make([]float64, len(b.Attrs))
		}
		for i, j := range b.Sel {
			for a, col := range b.Attrs {
				attrs[a] = col[j]
			}
			if err := visit(b.Pos(i), attrs); err != nil {
				return err
			}
		}
		return nil
	}
}

// QueryConfig tunes how a traversal executes. It never changes which
// particles a query matches — only how the work is scheduled.
//
// The zero value runs the engine inline on the calling goroutine: visits
// in deterministic tree order, no readahead.
type QueryConfig struct {
	// Workers is the number of traversal goroutines. 0 or 1 runs the
	// engine inline on the caller's goroutine. Negative selects
	// GOMAXPROCS.
	Workers int

	// Ordered, when true with Workers > 1, delivers batches in the same
	// deterministic treelet order as Workers=1 (completed treelets are
	// buffered until their turn). When false, batches arrive as treelets
	// complete — same particle multiset, lower latency and memory.
	Ordered bool

	// Readahead is the number of upcoming candidate treelets to prefetch
	// while one is being traversed (0 = off). Prefetches are best-effort
	// and bounded; they only warm the cache.
	Readahead int
}

// qualityToDepth log-remaps a quality level in [0,1] to a continuous
// treelet depth: the number of particles per level doubles, so quality q
// maps to the depth t at which the cumulative particle count reaches a
// fraction q of the total, t = log2(1 + q*(2^(maxDepth+1)-1)). It returns
// the integer maximum depth to traverse and the fraction of each node's
// particles to process at that depth (§V-B).
func qualityToDepth(q float64, maxDepth int) (depth int, frac float64) {
	if q <= 0 {
		return 0, 0
	}
	if q >= 1 {
		return maxDepth, 1
	}
	t := math.Log2(1 + q*(math.Exp2(float64(maxDepth+1))-1))
	depth = int(t)
	if depth > maxDepth {
		return maxDepth, 1
	}
	frac = t - float64(depth)
	return depth, frac
}

// portion returns the fraction of a node's particles processed at depth d
// for a quality window endpoint (D, frac).
func portion(d, depth int, frac float64) float64 {
	switch {
	case d < depth:
		return 1
	case d == depth:
		return frac
	default:
		return 0
	}
}

// queryState is the precomputed, read-only filter state of one traversal.
// It is shared by every worker goroutine of a query, so nothing in it may
// be mutated after prepare returns.
type queryState struct {
	q     Query
	masks []bitmap.Bitmap // query bitmap per filter, in Filters order
	prevD int
	prevF float64
	curD  int
	curF  float64
}

// prepare validates the query against the file and computes the bitmap
// masks. It reports whether the query can match anything at all.
func (f *File) prepare(q Query) (*queryState, bool) {
	if q.Quality <= 0 {
		q.Quality = 1
	}
	s := &queryState{q: q}
	s.prevD, s.prevF = qualityToDepth(q.PrevQuality, f.MaxTreeletDepth)
	s.curD, s.curF = qualityToDepth(q.Quality, f.MaxTreeletDepth)
	if q.PrevQuality >= q.Quality {
		return s, false
	}
	if q.Bounds != nil && !q.Bounds.Overlaps(f.Domain) {
		return s, false
	}
	s.masks = make([]bitmap.Bitmap, len(q.Filters))
	for i, flt := range q.Filters {
		// !(Min <= Max) also rejects NaN bounds, which match nothing.
		if flt.Attr < 0 || flt.Attr >= f.Schema.NumAttrs() || !(flt.Min <= flt.Max) {
			return s, false
		}
		// Bitmaps and ranges summarize values before storage, but the
		// exact checks see decoded values: prune with the interval widened
		// by the largest declared (LOD-scaled) error so no decoded match
		// is cut off.
		var maxErr float64
		if f.attrBounds != nil {
			maxErr = f.attrBounds[flt.Attr] * f.lodScale
		}
		lo, hi := f.Schema.Attrs[flt.Attr].Type.PruneInterval(flt.Min, flt.Max, maxErr)
		m := bitmap.OfQuery(lo, hi, f.Ranges[flt.Attr])
		if m == 0 {
			// The filter interval misses the file's local range entirely.
			return s, false
		}
		s.masks[i] = m
	}
	return s, true
}

// nodePassesBitmaps tests a node's bitmap IDs against every filter mask.
func (s *queryState) nodePassesBitmaps(f *File, ids []bitmap.ID) bool {
	for i, m := range s.masks {
		if !f.dict.Lookup(ids[s.q.Filters[i].Attr]).Overlaps(m) {
			return false
		}
	}
	return true
}

// QueryStats reports what a traversal did: how many particles reached the
// visitor, how many were rejected by the exact (false-positive) checks,
// and how many subtrees the bitmaps and bounds pruned without touching
// their particles.
type QueryStats struct {
	Visited        int64
	FalsePositives int64
	PrunedSubtrees int64
	// Treelets is the number of treelets actually loaded and traversed
	// (candidates that survived shallow-tree pruning).
	Treelets int64
}

// Add accumulates o into s.
func (s *QueryStats) Add(o QueryStats) {
	s.Visited += o.Visited
	s.FalsePositives += o.FalsePositives
	s.PrunedSubtrees += o.PrunedSubtrees
	s.Treelets += o.Treelets
}

// Query traverses the file, invoking visit for every particle matching the
// query, using the File's configured QueryConfig (inline by default).
// Particles are visited treelet by treelet in increasing depth order within
// each treelet; with Workers > 1 and Ordered false, treelets may complete
// out of order but the visited multiset is identical.
//
// Query is safe to call from multiple goroutines concurrently; the visitor
// of any single call is never invoked concurrently with itself.
func (f *File) Query(q Query, visit Visitor) error {
	_, err := f.QueryWithStats(q, visit)
	return err
}

// QueryWithStats is Query returning traversal statistics.
func (f *File) QueryWithStats(q Query, visit Visitor) (QueryStats, error) {
	return f.QueryBatches(context.Background(), q, visit.Batches())
}

// QueryBatches is the engine's entry point: it runs q under the File's
// configured QueryConfig, handing visit one batch per treelet with
// matches. Every other query method of File is a consumer of it. When ctx
// ends the traversal stops promptly (workers observe the shared cancel
// flag per tree node, storage reads abort) and ctx.Err() is returned.
func (f *File) QueryBatches(ctx context.Context, q Query, visit BatchVisitor) (QueryStats, error) {
	return f.query(ctx, q, f.queryConfig(), visit)
}

// query runs one traversal under cfg. The context is bridged to the
// traversal's cancel flag via context.AfterFunc, so per-node cancellation
// checks stay a single atomic load.
func (f *File) query(ctx context.Context, q Query, cfg QueryConfig, visit BatchVisitor) (QueryStats, error) {
	s, ok := f.prepare(q)
	if !ok || len(f.leaves) == 0 {
		return QueryStats{}, ctx.Err()
	}
	for _, flt := range q.Filters {
		f.access.TouchAttr(f.Schema.Attrs[flt.Attr].Name, 1)
	}
	cancel := new(atomic.Bool)
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { cancel.Store(true) })
		defer stop()
	}
	var st QueryStats
	cands, err := f.selectTreelets(s, &st)
	if err == nil && len(cands) > 0 {
		err = f.run(ctx, s, cands, cfg, &st, visit, cancel)
	}
	// A traversal stopped by ctx surfaces the context's error rather than
	// the internal sentinel.
	if cerr := ctx.Err(); cerr != nil && (err == nil || err == errTraversalCancelled) {
		err = cerr
	}
	return st, err
}

// selectTreelets walks the shallow tree serially — it is in-memory and tiny
// relative to the treelets — pruning by bounds and bitmaps, and returns the
// surviving treelet leaves in deterministic left-to-right order. This list
// is the unit of parallelism: the engine traverses exactly these treelets,
// and Workers=1 or Ordered delivers them in this order.
func (f *File) selectTreelets(s *queryState, st *QueryStats) ([]int, error) {
	if len(f.shallow) == 0 {
		// Single-treelet file: the treelet's root node carries the bitmap
		// summary, so traversal handles all pruning.
		return []int{0}, nil
	}
	out := make([]int, 0, len(f.leaves))
	var walk func(ref int32, bounds geom.Box, depth int) error
	walk = func(ref int32, bounds geom.Box, depth int) error {
		if li, isLeaf := isShallowLeaf(ref); isLeaf {
			if !s.nodePassesBitmaps(f, f.leaves[li].ids) {
				st.PrunedSubtrees++
				return nil
			}
			out = append(out, li)
			return nil
		}
		if depth > maxSaneDepth {
			return errCyclicTreelet
		}
		n := &f.shallow[ref]
		if s.q.Bounds != nil && !s.q.Bounds.Overlaps(bounds) {
			st.PrunedSubtrees++
			return nil
		}
		if !s.nodePassesBitmaps(f, n.ids) {
			st.PrunedSubtrees++
			return nil
		}
		lo, hi := bounds.SplitAt(n.axis, n.pos)
		if err := walk(n.left, lo, depth+1); err != nil {
			return err
		}
		return walk(n.right, hi, depth+1)
	}
	err := walk(0, f.Domain, 0)
	return out, err
}

// isShallowLeaf decodes a shallow-tree child reference.
func isShallowLeaf(ref int32) (int, bool) {
	if ref < 0 {
		return int(^ref), true
	}
	return 0, false
}

// errTraversalCancelled is returned (and swallowed by callers) when a
// worker observes the shared cancel flag mid-treelet.
var errTraversalCancelled = errors.New("bat: traversal cancelled")

// treeletScan is one treelet's traversal: it walks the node tree
// depth-first and appends to sel every particle of each node's progressive
// window that passes the exact checks. It counts pruned subtrees and false
// positives into st; delivery counts visits. cancel is polled at each node
// so aborted queries stop promptly.
type treeletScan struct {
	s      *queryState
	f      *File
	t      *parsedTreelet
	st     *QueryStats
	sel    []uint32
	cancel *atomic.Bool
}

func (sc *treeletScan) node(ni int32, depth int) error {
	s := sc.s
	if len(sc.t.nodes) == 0 || depth > s.curD {
		return nil
	}
	// Defense against corrupt files whose child links form a cycle.
	if depth > maxSaneDepth {
		return errCyclicTreelet
	}
	if sc.cancel.Load() {
		return errTraversalCancelled
	}
	n := &sc.t.nodes[ni]
	if !s.nodePassesBitmaps(sc.f, n.ids) {
		sc.st.PrunedSubtrees++
		return nil
	}
	// Select this node's particle window for the quality increment.
	p0 := portion(depth, s.prevD, s.prevF)
	p1 := portion(depth, s.curD, s.curF)
	if p1 > p0 {
		// Floor both window edges so consecutive progressive reads
		// tile exactly: a later read's lower edge equals this read's
		// upper edge.
		lo := uint32(float64(n.count) * p0)
		hi := min(uint32(float64(n.count)*p1), n.count)
		sc.window(n.start+lo, n.start+hi)
	}
	if n.axis == uint8(leafAxis) {
		return nil
	}
	// Spatial pruning against the split plane.
	if s.q.Bounds != nil {
		ax := geom.Axis(n.axis)
		if s.q.Bounds.Lower.Component(ax) >= n.pos {
			return sc.node(n.right, depth+1)
		}
		if s.q.Bounds.Upper.Component(ax) < n.pos {
			return sc.node(n.left, depth+1)
		}
	}
	if err := sc.node(n.left, depth+1); err != nil {
		return err
	}
	return sc.node(n.right, depth+1)
}

// window applies the exact false-positive checks (§V-A) to particles
// [lo, hi) as compare loops over the columns: the box test selects into
// sel, then each attribute interval compacts the new selection in place.
// The tests are written as v >= Min && v <= Max so a NaN never matches.
func (sc *treeletScan) window(lo, hi uint32) {
	base := len(sc.sel)
	if b := sc.s.q.Bounds; b != nil {
		x, y, z := sc.t.x, sc.t.y, sc.t.z
		for i := lo; i < hi; i++ {
			px, py, pz := float64(x[i]), float64(y[i]), float64(z[i])
			if px >= b.Lower.X && px <= b.Upper.X &&
				py >= b.Lower.Y && py <= b.Upper.Y &&
				pz >= b.Lower.Z && pz <= b.Upper.Z {
				sc.sel = append(sc.sel, i)
			}
		}
	} else {
		for i := lo; i < hi; i++ {
			sc.sel = append(sc.sel, i)
		}
	}
	for _, flt := range sc.s.q.Filters {
		col := sc.t.attrs[flt.Attr]
		kept := sc.sel[:base]
		for _, i := range sc.sel[base:] {
			if v := col[i]; v >= flt.Min && v <= flt.Max {
				kept = append(kept, i)
			}
		}
		sc.sel = kept
	}
	sc.st.FalsePositives += int64(hi-lo) - int64(len(sc.sel)-base)
}

// CollectBox gathers every particle inside bounds into a new set; this is
// the spatial read used by the parallel read pipeline's data servers.
func (f *File) CollectBox(bounds geom.Box) (*particles.Set, error) {
	out := particles.NewSet(f.Schema, 0)
	_, err := f.QueryBatches(context.Background(), Query{Bounds: &bounds}, Collect(out))
	return out, err
}

// ReadAll gathers every particle in the file into a new set.
func (f *File) ReadAll() (*particles.Set, error) {
	out := particles.NewSet(f.Schema, int(f.NumParticles))
	_, err := f.QueryBatches(context.Background(), Query{}, Collect(out))
	return out, err
}

// CountMatching returns the number of particles a query would visit; useful
// for sizing receive buffers before a data transfer. The engine already
// sums the selection lengths into QueryStats.Visited.
func (f *File) CountMatching(q Query) (int64, error) {
	st, err := f.QueryBatches(context.Background(), q, func(*Batch) error { return nil })
	return st.Visited, err
}
