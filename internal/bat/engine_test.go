package bat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// bruteCount counts the particles of a decoded set that satisfy q's box
// and filters (q must be a full-quality query).
func bruteCount(all *particles.Set, q Query) int64 {
	var n int64
	for i := 0; i < all.Len(); i++ {
		if q.Bounds != nil && !q.Bounds.Contains(all.Position(i)) {
			continue
		}
		ok := true
		for _, flt := range q.Filters {
			if v := all.Attrs[flt.Attr][i]; !(v >= flt.Min && v <= flt.Max) {
				ok = false
			}
		}
		if ok {
			n++
		}
	}
	return n
}

// TestCompressedFilterEdge pins the v3 pruning fix: bitmaps and file
// ranges summarize values before quantization, but the exact check sees
// decoded values. A value just outside a filter interval can decode just
// inside it, and pruning must not cut it off. Filter edges placed exactly
// on decoded values — including decoded values outside the file's
// original [Min, Max] — must give the brute-force answer over ReadAll.
func TestCompressedFilterEdge(t *testing.T) {
	for _, lodScale := range []float64{1, 4} {
		s, domain := cosmoSet(6000, 309)
		cfg := compressedConfig([]float64{0.05, 7, 0.01, 0})
		cfg.LODErrorScale = lodScale
		f, _ := buildAndOpen(t, s, domain, cfg)
		all, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		outside := 0
		for a := 0; a < 3; a++ {
			r, col := f.Ranges[a], all.Attrs[a]
			var qs []Query
			for i, v := range col {
				if v > r.Max || v < r.Min {
					// Seed-309 shape at the range edge: the original lies
					// outside [v, v], the decoded value inside.
					outside++
					qs = append(qs, Query{Filters: []AttrFilter{{Attr: a, Min: v, Max: v}}})
				}
				if i%397 == 0 {
					// Interior edges on decoded values.
					lo, hi := v, col[(i*7919+13)%len(col)]
					if lo > hi {
						lo, hi = hi, lo
					}
					qs = append(qs,
						Query{Filters: []AttrFilter{{Attr: a, Min: lo, Max: hi}}},
						Query{Filters: []AttrFilter{{Attr: a, Min: hi, Max: math.Inf(1)}}},
						Query{Filters: []AttrFilter{{Attr: a, Min: math.Inf(-1), Max: lo}}})
				}
			}
			for _, q := range qs {
				got, err := f.CountMatching(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteCount(all, q); got != want {
					t.Fatalf("lodScale %v attr %d filter %+v: Query %d, brute force %d",
						lodScale, a, q.Filters[0], got, want)
				}
			}
		}
		if outside == 0 {
			t.Fatalf("lodScale %v: no decoded value outside the file's original range; the test lost its edge case", lodScale)
		}
	}
}

// TestBuildRejectsNonFinite is the non-finite input contract at the BAT
// level: the 1000-particle NaN/Inf set that once answered a [0,500]
// filter with 503 particles is now rejected with a typed error naming the
// first offending value.
func TestBuildRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(s *particles.Set)
	}{
		{"mass", func(s *particles.Set) { s.Attrs[0][500] = math.NaN() }},
		{"id", func(s *particles.Set) { s.Attrs[1][7] = math.Inf(1) }},
		{"y", func(s *particles.Set) { s.Y[999] = float32(math.Inf(-1)) }},
	} {
		s, domain := randomSet(1000, 3)
		for i := 0; i < s.Len(); i += 100 {
			s.Attrs[0][i] = 600 // out of the filter below, finite
		}
		tc.set(s)
		_, err := Build(s, domain, DefaultBuildConfig())
		var nf *particles.NonFiniteError
		if !errors.As(err, &nf) || nf.Field != tc.field {
			t.Fatalf("%s: Build error %v, want *NonFiniteError on %s", tc.field, err, tc.field)
		}
	}
}

// TestSelectionRejectsNaN runs the exact-check loop over a hand-made
// treelet holding NaN and ±Inf values (as files from writers predating the
// input contract may): NaN matches no interval, ±Inf only one that
// reaches it.
func TestSelectionRejectsNaN(t *testing.T) {
	vals := []float64{1, math.NaN(), 2, math.Inf(1), math.NaN(), 3, math.Inf(-1)}
	tr := &parsedTreelet{
		x: make([]float32, len(vals)), y: make([]float32, len(vals)), z: make([]float32, len(vals)),
		attrs: [][]float64{vals},
	}
	for _, tc := range []struct {
		min, max float64
		want     []uint32
	}{
		{0, 500, []uint32{0, 2, 5}},
		{math.Inf(-1), math.Inf(1), []uint32{0, 2, 3, 5, 6}},
		{2, math.Inf(1), []uint32{2, 3, 5}},
	} {
		var st QueryStats
		s := &queryState{q: Query{Filters: []AttrFilter{{Attr: 0, Min: tc.min, Max: tc.max}}}}
		sc := treeletScan{s: s, t: tr, st: &st}
		sc.window(0, uint32(len(vals)))
		if fmt.Sprint(sc.sel) != fmt.Sprint(tc.want) {
			t.Errorf("[%v,%v]: selected %v, want %v", tc.min, tc.max, sc.sel, tc.want)
		}
		if st.FalsePositives != int64(len(vals)-len(tc.want)) {
			t.Errorf("[%v,%v]: %d false positives, want %d", tc.min, tc.max, st.FalsePositives, len(vals)-len(tc.want))
		}
	}
}

// TestQueryAllocsScaleWithTreelets is the allocation guard of the batch
// engine: a warm Count and a warm per-particle Query allocate per query,
// never per particle, so a file ten times larger costs the same number of
// allocations.
func TestQueryAllocsScaleWithTreelets(t *testing.T) {
	q := Query{Filters: []AttrFilter{{Attr: 0, Min: 20, Max: 80}}, PrevQuality: 0.1, Quality: 0.9}
	noop := func(geom.Vec3, []float64) error { return nil }
	var counts, queries [2]float64
	for i, n := range []int{10_000, 100_000} {
		s, domain := randomSet(n, 5)
		f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
		if _, err := f.CountMatching(q); err != nil { // warm the cache
			t.Fatal(err)
		}
		counts[i] = testing.AllocsPerRun(5, func() { f.CountMatching(q) })
		queries[i] = testing.AllocsPerRun(5, func() { f.Query(q, noop) })
		t.Logf("%d particles, %d treelets: Count %v allocs, Query %v allocs", n, f.NumTreelets(), counts[i], queries[i])
	}
	if counts[0] != counts[1] || queries[0] != queries[1] {
		t.Fatalf("allocations grow with the file: Count %v -> %v, Query %v -> %v", counts[0], counts[1], queries[0], queries[1])
	}
	// The per-particle adapter adds its closure and one attribute buffer.
	if queries[0] > counts[0]+2 {
		t.Fatalf("Query allocates %v, Count %v: the adapter allocates more than its buffer", queries[0], counts[0])
	}
}

// TestBatchVisitorMatchesVisitor checks the batch entry point against the
// per-particle adapter at every worker count: batches are non-empty,
// expand to exactly the visit sequence, add up to QueryStats.Visited, and
// a batch visitor's error aborts the query with that error.
func TestBatchVisitorMatchesVisitor(t *testing.T) {
	s, domain := clusteredSet(20000, 8)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.6, 0.6, 0.6))
	q := Query{Bounds: &box, Filters: []AttrFilter{{Attr: 0, Min: 0.3, Max: 8}}}
	for _, cfg := range []QueryConfig{{}, {Workers: 2, Ordered: true}, {Workers: 4, Ordered: true, Readahead: 2}} {
		want, _ := collectVisits(t, f, q, cfg)
		f.SetQueryConfig(cfg)
		var got []visitRec
		st, err := f.QueryBatches(context.Background(), q, func(b *Batch) error {
			if len(b.Sel) == 0 {
				t.Error("empty batch delivered")
			}
			for i, j := range b.Sel {
				got = append(got, visitRec{p: b.Pos(i), attrs: []float64{b.Attrs[0][j]}})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Visited != int64(len(got)) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%+v: batches hold %d particles (Visited %d), visitor sequence %d, or order differs",
				cfg, len(got), st.Visited, len(want))
		}
		stop := errors.New("stop")
		calls := 0
		_, err = f.QueryBatches(context.Background(), q, func(*Batch) error {
			calls++
			return stop
		})
		if err != stop || calls != 1 {
			t.Fatalf("%+v: batch visitor error gave %v after %d calls", cfg, err, calls)
		}
	}
}

// TestBatchViewsSurviveEviction runs concurrent batch queries on a File
// whose cache holds almost nothing, so treelets are evicted while batches
// still view them. Each batch's columns must stay intact through its
// callback: every query sees the uncached answer.
func TestBatchViewsSurviveEviction(t *testing.T) {
	s, domain := randomSet(20000, 9)
	cfg := DefaultBuildConfig()
	cfg.MaxLeafSize = 8 // many small treelets, several per cache shard
	f, _ := buildAndOpen(t, s, domain, cfg)
	q := Query{Filters: []AttrFilter{{Attr: 0, Min: 10, Max: 90}}}
	f.SetCacheLimit(1)
	want := digestBatches(t, f, q)
	f.SetQueryConfig(QueryConfig{Workers: 4})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := digestBatches(t, f, q); got != want {
					t.Errorf("digest %v under eviction, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if f.CacheStats().Evictions == 0 {
		t.Fatal("no evictions: the test did not exercise eviction")
	}
}

// digestBatches is an order-independent digest of a batch query's answer:
// wrapping sums of the value bits.
func digestBatches(t *testing.T, f *File, q Query) [2]uint64 {
	var d [2]uint64
	_, err := f.QueryBatches(context.Background(), q, func(b *Batch) error {
		for _, j := range b.Sel {
			d[0] += uint64(math.Float32bits(b.X[j])) + uint64(math.Float32bits(b.Y[j]))<<16 + uint64(math.Float32bits(b.Z[j]))<<32
			for _, col := range b.Attrs {
				d[1] += math.Float64bits(col[j])
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	return d
}
