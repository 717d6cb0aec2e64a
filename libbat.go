// Package libbat is a Go reproduction of "Adaptive Spatially Aware I/O for
// Multiresolution Particle Data Layouts" (Usher et al., IPDPS 2021): a
// parallel I/O library for particle data that aggregates ranks through an
// adaptive k-d tree over their spatial bounds and writes each aggregation
// group as a Binned Attribute Tree (BAT) — a multiresolution, bitmap-
// indexed layout directly usable for visualization and analysis.
//
// The library has three layers:
//
//   - Collective I/O: Write and Read are called by every rank of a Fabric
//     (a simulated MPI world; ranks are goroutines) and implement the
//     paper's two-phase pipelines.
//   - Datasets: OpenDataset gives single-process access to a written
//     dataset as if it were one file, with spatial and attribute filtered
//     progressive multiresolution queries.
//   - Building blocks: the aggregation tree, the AUG baseline, the BAT
//     layout, the IOR-style baselines and the Stampede2/Summit cost models
//     live in internal packages and power the benchmark harness
//     (cmd/batbench) that regenerates the paper's tables and figures.
package libbat

import (
	"context"
	"sort"
	"strings"

	"libbat/internal/bat"
	"libbat/internal/core"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/meta"
	"libbat/internal/obs/access"
	"libbat/internal/particles"
	"libbat/internal/pfs"
)

// Re-exported core types. These aliases are the public names of the
// library's data model; the internal packages are implementation detail.
type (
	// Vec3 is a 3D point.
	Vec3 = geom.Vec3
	// Box is an axis-aligned bounding box.
	Box = geom.Box
	// Schema describes a particle's attributes.
	Schema = particles.Schema
	// AttrDesc names one attribute.
	AttrDesc = particles.AttrDesc
	// ParticleSet is the structure-of-arrays particle container.
	ParticleSet = particles.Set
	// Comm is one rank's communicator handle.
	Comm = fabric.Comm
	// Fabric connects the ranks of a collective run.
	Fabric = fabric.Fabric
	// Storage is the output namespace (directory or memory).
	Storage = pfs.Storage
	// WriteConfig configures collective writes.
	WriteConfig = core.WriteConfig
	// WriteStats reports per-phase write timings.
	WriteStats = core.WriteStats
	// ReadStats reports per-phase read timings.
	ReadStats = core.ReadStats
	// Strategy selects adaptive or AUG aggregation.
	Strategy = core.Strategy
	// Query describes a visualization read.
	Query = bat.Query
	// AttrFilter restricts a query to an attribute interval.
	AttrFilter = bat.AttrFilter
	// Visitor receives query results one particle at a time.
	Visitor = bat.Visitor
	// Batch is one treelet's query results: column views plus a selection
	// vector, valid only during the BatchVisitor call.
	Batch = bat.Batch
	// BatchVisitor receives query results one batch at a time.
	BatchVisitor = bat.BatchVisitor
	// NonFiniteError is returned by Write for NaN or ±Inf input.
	NonFiniteError = particles.NonFiniteError
	// QueryConfig tunes query execution: traversal workers, ordered vs.
	// order-tolerant delivery, and treelet readahead.
	QueryConfig = bat.QueryConfig
	// QueryStats reports what a traversal visited, rejected, and pruned.
	QueryStats = bat.QueryStats
	// CacheStats snapshots treelet cache hit/miss/eviction counters.
	CacheStats = bat.CacheStats
	// CompressionInfo describes a BAT v3 leaf file's codec configuration
	// (per-attribute error bounds, LOD error scale, payload ratio).
	CompressionInfo = bat.CompressionInfo
	// CompressionMeta is the dataset-level codec declaration mirrored
	// into the top-level metadata at write time.
	CompressionMeta = meta.CompressionMeta
	// Layout is the pluggable leaf file format (paper §VII extension);
	// the default is the BAT.
	Layout = core.Layout
	// LayoutResult is a built leaf image plus its metadata summary.
	LayoutResult = core.LayoutResult
	// RawLayout writes flat particle arrays (template for custom layouts).
	RawLayout = core.RawLayout
	// AccessRecorder captures which treelets, spatial regions, and
	// attributes queries touch (nil = telemetry disabled).
	AccessRecorder = access.Recorder
	// AccessRegistry holds one AccessRecorder per dataset.
	AccessRegistry = access.Registry
	// AccessOptions shapes recorders: heatmap resolution, query-ring size.
	AccessOptions = access.Options
	// AccessSnapshot is a point-in-time export of an AccessRecorder,
	// persistable to a checksummed sidecar and mergeable across replicas.
	AccessSnapshot = access.Snapshot
	// AccessQueryRecord is one entry of the recent-query ring.
	AccessQueryRecord = access.QueryRecord
	// Dataset is single-process read access to a written dataset, treating
	// the whole collection of leaf files as one queryable store (paper
	// §III-D, §V). Safe for concurrent queries; see core.Dataset.
	Dataset = core.Dataset
	// LeafInfo describes one leaf file of a dataset.
	LeafInfo = core.LeafInfo
	// AttrSummary holds streaming statistics of one attribute over a query.
	AttrSummary = core.AttrSummary
)

// NewAccessRecorder creates an enabled access-telemetry recorder for a
// dataset with the given spatial domain.
func NewAccessRecorder(name string, bounds Box, opts AccessOptions) *AccessRecorder {
	return access.New(name, bounds, opts)
}

// NewAccessRegistry creates a registry of per-dataset access recorders.
func NewAccessRegistry(opts AccessOptions) *AccessRegistry {
	return access.NewRegistry(opts)
}

// Aggregation strategies.
const (
	Adaptive = core.Adaptive
	AUG      = core.AUG
)

// Receive wildcards for Comm.Recv/Irecv/Probe.
const (
	AnySource = fabric.AnySource
	AnyTag    = fabric.AnyTag
)

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return geom.V3(x, y, z) }

// UnmarshalParticles reverses ParticleSet.Marshal (used when moving
// particle payloads over the fabric by hand, e.g. migration exchanges).
func UnmarshalParticles(buf []byte, schema Schema) (*ParticleSet, error) {
	return particles.Unmarshal(buf, schema)
}

// Exchange performs an all-to-all particle migration: outgoing[r] is sent
// to rank r, and the result is everything addressed to this rank. Use it
// to rebalance particles onto their owning ranks before a collective
// Write.
func Exchange(c *Comm, schema Schema, outgoing []*ParticleSet) (*ParticleSet, error) {
	return core.Exchange(c, schema, outgoing)
}

// NewBox constructs a Box.
func NewBox(lower, upper Vec3) Box { return geom.NewBox(lower, upper) }

// NewSchema builds a schema of float64 attributes.
func NewSchema(names ...string) Schema { return particles.NewSchema(names...) }

// NewParticleSet returns an empty particle set with capacity for n.
func NewParticleSet(schema Schema, n int) *ParticleSet { return particles.NewSet(schema, n) }

// NewFabric connects size ranks.
func NewFabric(size int) *Fabric { return fabric.New(size) }

// Run spawns size ranks running body and waits for all of them.
func Run(size int, body func(c *Comm) error) error { return fabric.Run(size, body) }

// DirStorage opens (creating if needed) a directory as dataset storage.
func DirStorage(dir string) (Storage, error) { return pfs.NewOS(dir) }

// MemStorage returns an in-memory store (tests, in-transit pipelines).
func MemStorage() Storage { return pfs.NewMem() }

// DefaultWriteConfig returns the paper's evaluation configuration for a
// target file size (adaptive aggregation, overfull leaves up to 1.5x at
// balance ratio 4, 12-bit subprefix BATs with 8 LOD particles per node).
func DefaultWriteConfig(targetFileSize int64) WriteConfig {
	return core.DefaultWriteConfig(targetFileSize)
}

// Write performs the collective spatially aware adaptive two-phase write
// (paper §III). Every rank calls it with its local particles and bounds;
// leaf BAT files and a top-level metadata file are written under base.
// NaN or ±Inf positions or attributes fail the write on every rank; the
// rank holding them gets an error wrapping a *NonFiniteError.
func Write(c *Comm, store Storage, base string, local *ParticleSet, bounds Box, cfg WriteConfig) (*WriteStats, error) {
	return core.Write(c, store, base, local, bounds, cfg)
}

// Read performs the collective two-phase read (paper §IV), returning the
// particles inside bounds.
func Read(c *Comm, store Storage, base string, bounds Box) (*ParticleSet, *ReadStats, error) {
	return core.Read(c, store, base, bounds)
}

// ReadQuery is the collective read with a full query per rank — spatial
// bounds, attribute filters, and a progressive quality window — the
// distributed in situ analytics path of paper §IV-B.
func ReadQuery(c *Comm, store Storage, base string, q Query) (*ParticleSet, *ReadStats, error) {
	return core.ReadQuery(c, store, base, q)
}

// ReadQueryCtx is ReadQuery honoring ctx. Cancellation never abandons the
// collective protocol (the other ranks would hang); instead this rank's
// leaf serves fail fast with the context's error and the call returns
// ErrPartial with per-leaf errors once the collective completes.
func ReadQueryCtx(ctx context.Context, c *Comm, store Storage, base string, q Query) (*ParticleSet, *ReadStats, error) {
	return core.ReadQueryCtx(ctx, c, store, base, q)
}

// ErrPartial marks a collective read that completed the protocol but could
// not serve every requested leaf (fault or cancellation); the returned set
// holds the particles that were served.
var ErrPartial = core.ErrPartial

// RecommendTargetSize implements the paper's tuning guidance (§VI-A.2) as
// an automatic policy, a future-work item of §VII-A: small aggregation
// factors (1:1 to 4:1) at low rank or particle counts, growing to 16:1 and
// beyond at scale so the file count stays bounded.
func RecommendTargetSize(ranks int, bytesPerRank int64) int64 {
	factor := int64(1)
	switch {
	case ranks >= 16384:
		factor = 32
	case ranks >= 4096:
		factor = 16
	case ranks >= 1024:
		factor = 8
	case ranks >= 256:
		factor = 4
	case ranks >= 64:
		factor = 2
	}
	target := factor * bytesPerRank
	const minTarget = 1 << 20
	if target < minTarget {
		return minTarget
	}
	return target
}

// ListDatasets returns the base names of all datasets in store with the
// given prefix ("" for all), sorted — a simulation's time series.
func ListDatasets(store Storage, prefix string) ([]string, error) {
	all, err := store.List()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, n := range all {
		if strings.HasSuffix(n, metaSuffix) && strings.HasPrefix(n, prefix) {
			names = append(names, strings.TrimSuffix(n, metaSuffix))
		}
	}
	sort.Strings(names)
	return names, nil
}

const metaSuffix = ".batm"

// OpenDataset opens the dataset written under base in store.
func OpenDataset(store Storage, base string) (*Dataset, error) {
	return core.OpenDataset(context.Background(), store, base)
}
