package libbat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"libbat/internal/bat"
	"libbat/internal/particles"
)

// oracleSchema mixes a float64 and a float32 attribute, so pruning is
// checked against both stored precisions.
var oracleSchema = Schema{Attrs: []AttrDesc{
	{Name: "temp", Type: particles.Float64},
	{Name: "phi", Type: particles.Float32},
}}

// oracleTarget is one read surface under test, bat.File or Dataset, with
// its three consumers: per-particle Visitor, batch visitor and Count.
type oracleTarget struct {
	setConfig func(QueryConfig)
	setCache  func(int64)
	visit     func(Query, Visitor) error
	batches   func(Query, BatchVisitor) (QueryStats, error)
	count     func(Query) (int64, error)
	readAll   func() (*ParticleSet, error)
	cache     func() CacheStats
}

// oracleParticles fills a set with clustered positions in [lo, lo+1)³ and
// attributes smooth in space plus noise.
func oracleParticles(r *rand.Rand, lo Vec3, n int) *ParticleSet {
	s := NewParticleSet(oracleSchema, n)
	for i := 0; i < n; i++ {
		p := lo.Add(V3(r.Float64(), r.Float64(), r.Float64()))
		if i%3 != 0 {
			c := V3(0.3+0.1*r.NormFloat64(), 0.6+0.1*r.NormFloat64(), 0.5)
			p = lo.Add(c.Max(V3(0, 0, 0)).Min(V3(0.999, 0.999, 0.999)))
		}
		s.Append(p, []float64{p.X*100 + r.Float64()*5, math.Sin(p.Y*6) + 0.01*r.NormFloat64()})
	}
	return s
}

func fileTarget(t *testing.T, compress bool) oracleTarget {
	set := oracleParticles(rand.New(rand.NewSource(7)), V3(0, 0, 0), 6000)
	cfg := bat.DefaultBuildConfig()
	// Tiny leaves: deep treelets, and dozens of them per file, several per
	// cache shard, so the tiny cache evicts.
	cfg.MaxLeafSize, cfg.LODPerNode = 2, 2
	if compress {
		cfg.Compress, cfg.AttrErrorBounds, cfg.LODErrorScale = true, []float64{0.4, 0.005}, 4
	}
	built, err := bat.Build(set, NewBox(V3(0, 0, 0), V3(1, 1, 1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bat.FromBuffer(built.Buf)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	return oracleTarget{
		setConfig: f.SetQueryConfig,
		setCache:  f.SetCacheLimit,
		visit:     f.Query,
		batches:   func(q Query, v BatchVisitor) (QueryStats, error) { return f.QueryBatches(ctx, q, v) },
		count:     f.CountMatching,
		readAll:   f.ReadAll,
		cache:     f.CacheStats,
	}
}

func datasetTarget(t *testing.T, compress bool) oracleTarget {
	store := MemStorage()
	err := Run(4, func(c *Comm) error {
		lo := V3(float64(c.Rank()%2), float64(c.Rank()/2), 0)
		local := oracleParticles(rand.New(rand.NewSource(int64(11+c.Rank()))), lo, 1500)
		cfg := DefaultWriteConfig(100 << 10)
		cfg.BAT.MaxLeafSize, cfg.BAT.LODPerNode = 2, 2
		if compress {
			cfg.BAT.Compress, cfg.BAT.AttrErrorBounds, cfg.BAT.LODErrorScale = true, []float64{0.4, 0.005}, 4
		}
		_, err := Write(c, store, "oracle", local, NewBox(lo, lo.Add(V3(1, 1, 1))), cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(store, "oracle")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if ds.NumFiles() < 2 {
		t.Fatalf("dataset has %d leaf files; the oracle needs several", ds.NumFiles())
	}
	ctx := context.Background()
	return oracleTarget{
		setConfig: ds.SetQueryConfig,
		setCache:  ds.SetCacheLimit,
		visit:     ds.Query,
		batches: func(q Query, v BatchVisitor) (QueryStats, error) {
			return ds.QueryBatches(ctx, "oracle", q, v)
		},
		count:   ds.Count,
		readAll: ds.ReadAll,
		cache:   ds.CacheStats,
	}
}

// particleHash identifies a particle by the bits of its position and
// attributes.
func particleHash(x, y, z float32, attr func(a int) float64, nA int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(math.Float32bits(x)))
	mix(uint64(math.Float32bits(y)))
	mix(uint64(math.Float32bits(z)))
	for a := 0; a < nA; a++ {
		mix(math.Float64bits(attr(a)))
	}
	return h
}

// oracleQueries builds the seeded query table over the decoded set: boxes,
// an empty box, random, inverted and point intervals (point intervals on
// decoded values, including values outside the writer's original range),
// quality 0 and 1, an empty window, and one progressive session whose
// increments must tile the full query.
func oracleQueries(all *ParticleSet, r *rand.Rand) (full []Query, session []Query) {
	dom := all.Bounds()
	randBox := func() *Box {
		a := V3(dom.Lower.X+r.Float64()*dom.Size().X, dom.Lower.Y+r.Float64()*dom.Size().Y, dom.Lower.Z+r.Float64()*dom.Size().Z)
		b := V3(dom.Lower.X+r.Float64()*dom.Size().X, dom.Lower.Y+r.Float64()*dom.Size().Y, dom.Lower.Z+r.Float64()*dom.Size().Z)
		box := NewBox(a.Min(b), a.Max(b))
		return &box
	}
	empty := NewBox(V3(50, 50, 50), V3(60, 60, 60))
	full = []Query{
		{}, {Quality: 1}, {Bounds: &empty},
		{Bounds: randBox()}, {Bounds: randBox()}, {Bounds: randBox()},
		{Filters: []AttrFilter{{Attr: 0, Min: 120, Max: 60}}},
		{Filters: []AttrFilter{{Attr: 0, Min: 40, Max: 130}, {Attr: 1, Min: -0.5, Max: 0.7}}, Bounds: randBox()},
	}
	for a := 0; a < all.Schema.NumAttrs(); a++ {
		col := all.Attrs[a]
		lo, hi := slices.Min(col), slices.Max(col)
		for _, v := range []float64{lo, hi, col[r.Intn(len(col))], col[r.Intn(len(col))]} {
			full = append(full, Query{Filters: []AttrFilter{{Attr: a, Min: v, Max: v}}})
		}
		full = append(full, Query{Filters: []AttrFilter{{Attr: a, Min: col[r.Intn(len(col))], Max: hi}}})
	}
	box := randBox()
	filters := []AttrFilter{{Attr: 0, Min: 20, Max: 150}}
	for _, w := range [][2]float64{{0, 0.1}, {0.1, 0.35}, {0.35, 0.35}, {0.35, 0.7}, {0.7, 1}} {
		session = append(session, Query{Bounds: box, Filters: filters, PrevQuality: w[0], Quality: w[1]})
	}
	return full, session
}

// bruteForce returns the sorted hashes of the decoded particles matching a
// full-quality query.
func bruteForce(all *ParticleSet, q Query) []uint64 {
	out := []uint64{}
	for i := 0; i < all.Len(); i++ {
		if q.Bounds != nil && !q.Bounds.Contains(all.Position(i)) {
			continue
		}
		ok := true
		for _, f := range q.Filters {
			if v := all.Attrs[f.Attr][i]; !(v >= f.Min && v <= f.Max) {
				ok = false
			}
		}
		if ok {
			out = append(out, particleHash(all.X[i], all.Y[i], all.Z[i], func(a int) float64 { return all.Attrs[a][i] }, all.Schema.NumAttrs()))
		}
	}
	slices.Sort(out)
	return out
}

func sortedCopy(s []uint64) []uint64 {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// TestEngineOracle is the differential oracle of the query engine. At
// bat.File and Dataset level, for v2 and v3 files, it runs every
// combination of Workers {1,2,4}, Ordered, consumer (per-particle Visitor,
// batch visitor, Count) and cache (unbounded, or tiny so treelets are
// evicted while in use) over a seeded query table, and checks:
//   - full-quality answers equal a brute-force scan of the decoded set
//     (as multisets; Count equals the brute-force count);
//   - Ordered and Workers=1 runs reproduce the serial visit sequence;
//   - progressive increments are disjoint pieces that tile the full query.
func TestEngineOracle(t *testing.T) {
	for _, level := range []string{"file", "dataset"} {
		for _, compress := range []bool{false, true} {
			name := fmt.Sprintf("%s/v2", level)
			if compress {
				name = fmt.Sprintf("%s/v3", level)
			}
			t.Run(name, func(t *testing.T) {
				runOracle(t, func() oracleTarget {
					if level == "file" {
						return fileTarget(t, compress)
					}
					return datasetTarget(t, compress)
				})
			})
		}
	}
}

// runOracle checks the targets mk opens (each with a cold cache).
func runOracle(t *testing.T, mk func() oracleTarget) {
	tg := mk()
	all, err := tg.readAll()
	if err != nil {
		t.Fatal(err)
	}
	full, session := oracleQueries(all, rand.New(rand.NewSource(42)))
	queries := append(slices.Clone(full), session...)

	// The serial per-particle sequence is the reference every
	// configuration is compared with.
	ref := make([][]uint64, len(queries))
	for i, q := range queries {
		ref[i] = []uint64{}
		err := tg.visit(q, func(p Vec3, attrs []float64) error {
			ref[i] = append(ref[i], particleHash(float32(p.X), float32(p.Y), float32(p.Z), func(a int) float64 { return attrs[a] }, len(attrs)))
			return nil
		})
		if err != nil {
			t.Fatalf("query %d %+v: %v", i, q, err)
		}
	}
	for i, q := range full {
		if got, want := sortedCopy(ref[i]), bruteForce(all, q); !slices.Equal(got, want) {
			t.Fatalf("query %d %+v: engine answers %d particles, brute force %d", i, q, len(got), len(want))
		}
	}
	var tiled []uint64
	for i := range session {
		tiled = append(tiled, ref[len(full)+i]...)
	}
	whole := session[0]
	whole.PrevQuality, whole.Quality = 0, 1
	if got, want := sortedCopy(tiled), bruteForce(all, whole); !slices.Equal(got, want) {
		t.Fatalf("progressive increments hold %d particles, the full query %d (overlap or gap)", len(got), len(want))
	}

	for _, cache := range []int64{0, 1} {
		tg := mk()
		tg.setCache(cache)
		for _, workers := range []int{1, 2, 4} {
			for _, ordered := range []bool{true, false} {
				tg.setConfig(QueryConfig{Workers: workers, Ordered: ordered, Readahead: workers - 1})
				sequenced := workers == 1 || ordered
				for i, q := range queries {
					cfg := fmt.Sprintf("cache %d workers %d ordered %v query %d", cache, workers, ordered, i)
					var seqV, seqB []uint64
					err := tg.visit(q, func(p Vec3, attrs []float64) error {
						seqV = append(seqV, particleHash(float32(p.X), float32(p.Y), float32(p.Z), func(a int) float64 { return attrs[a] }, len(attrs)))
						return nil
					})
					if err != nil {
						t.Fatalf("%s visitor: %v", cfg, err)
					}
					st, err := tg.batches(q, func(b *Batch) error {
						for _, j := range b.Sel {
							seqB = append(seqB, particleHash(b.X[j], b.Y[j], b.Z[j], func(a int) float64 { return b.Attrs[a][j] }, len(b.Attrs)))
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s batches: %v", cfg, err)
					}
					n, err := tg.count(q)
					if err != nil {
						t.Fatalf("%s count: %v", cfg, err)
					}
					if n != int64(len(ref[i])) || st.Visited != n {
						t.Fatalf("%s: Count %d, batch Visited %d, reference %d", cfg, n, st.Visited, len(ref[i]))
					}
					for consumer, seq := range map[string][]uint64{"visitor": seqV, "batches": seqB} {
						if sequenced {
							if !slices.Equal(seq, ref[i]) {
								t.Fatalf("%s %s: sequence differs from the serial one", cfg, consumer)
							}
						} else if !slices.Equal(sortedCopy(seq), sortedCopy(ref[i])) {
							t.Fatalf("%s %s: multiset differs from the serial one", cfg, consumer)
						}
					}
				}
			}
		}
		if ev := tg.cache().Evictions; (cache == 1) != (ev > 0) {
			t.Fatalf("cache limit %d: %d evictions", cache, ev)
		}
	}
}

// TestWriteRejectsNonFinite is the non-finite input contract of the
// collective write: the 1000-particle set with NaN and +Inf attributes
// that once let a [0,500] filter return 503 particles is rejected on every
// rank, the holding rank gets the typed error, and no dataset remains.
func TestWriteRejectsNonFinite(t *testing.T) {
	store := MemStorage()
	errs := make([]error, 2)
	Run(2, func(c *Comm) error {
		r := rand.New(rand.NewSource(int64(c.Rank())))
		lo := V3(float64(c.Rank()), 0, 0)
		local := NewParticleSet(NewSchema("v"), 500)
		for i := 0; i < 500; i++ {
			p := lo.Add(V3(r.Float64(), r.Float64(), r.Float64()))
			v := r.Float64() * 490
			if c.Rank() == 1 && i%100 == 0 {
				v = math.NaN()
			} else if c.Rank() == 1 && i%100 == 1 {
				v = math.Inf(1)
			}
			local.Append(p, []float64{v})
		}
		_, errs[c.Rank()] = Write(c, store, "nan", local, NewBox(lo, lo.Add(V3(1, 1, 1))), DefaultWriteConfig(8<<10))
		return nil
	})
	var nf *NonFiniteError
	if !errors.As(errs[1], &nf) || nf.Index != 0 || nf.Field != "v" || !math.IsNaN(nf.Value) {
		t.Fatalf("rank 1: %v, want a *NonFiniteError for particle 0's v", errs[1])
	}
	if errs[0] == nil {
		t.Fatal("rank 0 accepted the write")
	}
	if names, _ := ListDatasets(store, "nan"); len(names) != 0 {
		t.Fatalf("rejected write left datasets %v", names)
	}
}
