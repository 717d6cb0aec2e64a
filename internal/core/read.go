package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"libbat/internal/bat"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/obs"
	"libbat/internal/obs/access"
	"libbat/internal/particles"
	"libbat/internal/pfs"
)

// ReadStats reports what one rank observed during a collective read.
type ReadStats struct {
	Metadata  time.Duration // reading + parsing the aggregation tree file
	FileRead  time.Duration // opening and querying leaf files (aggregator side)
	Transfer  time.Duration // waiting for and receiving remote replies
	NumFiles  int           // leaf files this rank served as read aggregator
	Particles int           // particles returned to this rank

	// LeafErrors records, per selected leaf index, why that leaf's data
	// could not be returned to this rank (damaged file, failed checksum,
	// server-side error). A key of -1 marks a reply too mangled to name
	// its leaf. When non-empty, ReadQuery returns the surviving particles
	// together with an error wrapping ErrPartial.
	LeafErrors map[int]error
}

// Total returns the rank's end-to-end read time.
func (s *ReadStats) Total() time.Duration {
	return s.Metadata + s.FileRead + s.Transfer
}

// ReadAggregator returns the rank assigned to read leaf li of nLeaves in a
// world of size ranks: with more ranks than files, readers are spread
// evenly through the rank space as in the write phase; with fewer, files
// are dealt round-robin over the ranks (§IV-A).
func ReadAggregator(li, nLeaves, size int) int {
	if nLeaves <= size {
		return li * size / nLeaves
	}
	return li % size
}

// Read performs the two-phase parallel read (Figure 3). It is collective:
// every rank calls it with the spatial bounds it wants (a checkpoint
// restart read passes the rank's own domain bounds). It returns the
// particles inside bounds.
func Read(c *fabric.Comm, store pfs.Storage, base string, bounds geom.Box) (*particles.Set, *ReadStats, error) {
	return ReadQuery(c, store, base, bat.Query{Bounds: &bounds})
}

// ReadQuery is the general form of Read: each rank supplies a full
// visualization-style query (spatial bounds, attribute filters, and a
// progressive quality window), which the read aggregators evaluate against
// their leaf files. This is the distributed in situ analytics access path
// the paper's §IV-B describes. Ranks may pass different queries; a rank
// wanting nothing passes a query with empty bounds.
//
// Damaged leaf files degrade the read instead of killing it: the healthy
// leaves' particles are returned alongside an error wrapping ErrPartial,
// with per-leaf diagnostics in ReadStats.LeafErrors. A rank that cannot
// read the metadata fails the whole collective — via the same
// error-agreement collective the write pipeline ends with — since query
// routing needs every rank to share the leaf assignment.
func ReadQuery(c *fabric.Comm, store pfs.Storage, base string, q bat.Query) (*particles.Set, *ReadStats, error) {
	return ReadQueryCtx(context.Background(), c, store, base, q)
}

// ReadQueryCtx is ReadQuery honoring ctx. Cancellation never abandons the
// collective protocol — every rank still exchanges every message and exits
// the loop — but leaf serving aborts: a canceled rank answers its remaining
// leaf queries (its own and other ranks') with error replies instead of
// data. The requesters record those as per-leaf failures, so a rank whose
// deadline fires gets the particles already gathered plus an error wrapping
// ErrPartial, exactly like a damaged-leaf degraded read. A cancellation
// before the metadata is agreed on fails the whole collective, since query
// routing needs every rank to share the leaf assignment.
func ReadQueryCtx(ctx context.Context, c *fabric.Comm, store pfs.Storage, base string, q bat.Query) (*particles.Set, *ReadStats, error) {
	stats := &ReadStats{}

	col := c.Observer()
	whole := col.Start(c.Rank(), "read")
	defer whole.End()

	// Phase a: every rank reads the aggregation tree metadata.
	metaStart := time.Now()
	metaSp := col.Start(c.Rank(), "read.meta")
	// The aggregator side serves its leaves through this Dataset, which
	// opens each leaf file once and shares it across every query for it.
	ds, err := OpenDataset(ctx, store, base)
	metaSp.End()
	if err == nil {
		defer ds.Close()
	}
	// Agree on the metadata status before any queries are routed: a rank
	// returning here while others proceed would leave their queries to it
	// unanswered forever.
	if aerr := agreeOnError(c, "read metadata", err); aerr != nil {
		return nil, nil, aerr
	}
	stats.Metadata = time.Since(metaStart)
	m := ds.meta
	// Access telemetry (nil registry → nil recorder → no-ops throughout):
	// the aggregator side records which treelets and regions each served
	// leaf query touches, keyed by dataset base name.
	rec := c.AccessRegistry().Get(base, m.Domain)
	ds.SetAccessRecorder(rec)
	nLeaves := len(m.Leaves)
	if nLeaves == 0 {
		c.Barrier()
		return particles.NewSet(m.Schema, 0), stats, nil
	}

	// Phase b: determine which leaves this rank's query can touch and who
	// reads them; the assignment is computed locally on every rank
	// (§IV-A). The aggregation tree prunes spatially and by the global
	// attribute bitmaps before any file is contacted.
	want := ds.selectLeaves(q)

	// Phase c: client-server query loop with a nonblocking barrier
	// (§IV-B). Queries to leaves this rank reads itself are answered
	// locally after the remote queries are issued.
	xferStart := time.Now()
	out := particles.NewSet(m.Schema, 0)
	var selfLeaves []int
	pending := 0
	qm := queryMsg{Bounds: q.Bounds, Filters: q.Filters, PrevQ: q.PrevQuality, Quality: q.Quality}
	for _, li := range want {
		reader := ReadAggregator(li, nLeaves, c.Size())
		if reader == c.Rank() {
			selfLeaves = append(selfLeaves, li)
			continue
		}
		qm.Leaf = li
		c.Isend(reader, tagQuery, encode(qm))
		pending++
	}

	// Serve queries for the leaves assigned to this rank while collecting
	// replies. Leaf work — opening, decoding, and traversing files — runs on
	// a worker pool so one rank services many in-flight client queries and
	// many of its own files concurrently; the Dataset opens each file once
	// and shares it across queries. The fabric communicator is
	// documented single-goroutine, so this main loop remains the only
	// goroutine touching c: it receives queries, feeds the pool, sends the
	// pool's finished replies, and collects this rank's own replies.
	//
	// Errors must not abandon the collective protocol — the rank keeps
	// serving and answering with error replies so every rank exits the
	// loop. A damaged leaf costs only that leaf (recorded per requester in
	// LeafErrors); protocol corruption (an undecodable query) fails the
	// rank outright.
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var firstLeafErr error
	noteLeaf := func(li int, err error) {
		if stats.LeafErrors == nil {
			stats.LeafErrors = map[int]error{}
		}
		if _, dup := stats.LeafErrors[li]; !dup {
			stats.LeafErrors[li] = err
		}
		if firstLeafErr == nil {
			firstLeafErr = err
		}
	}
	served := c.Observer().Counter("core_queries_served_total", obs.Rank(c.Rank()))
	replyBytes := c.Observer().Counter("core_reply_bytes_total", obs.Rank(c.Rank()))

	nWorkers := runtime.GOMAXPROCS(0)
	if nWorkers < 1 {
		nWorkers = 1
	}
	jobs := make(chan serveJob, nWorkers)
	results := make(chan serveResult, 2*nWorkers)
	var workers sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range jobs {
				results <- serveLeafJob(ctx, col, c.Rank(), ds, rec, j)
			}
		}()
	}

	// Queue this rank's own leaves up front (§IV-B: "if a rank requires
	// data from itself, it performs these queries locally") so local file
	// work overlaps the wait for remote replies.
	var jobQueue []serveJob
	selfPending := 0
	for _, li := range selfLeaves {
		jobQueue = append(jobQueue, serveJob{source: -1, leaf: li, q: q})
		selfPending++
		served.Inc()
	}

	applyResult := func(r serveResult) {
		stats.FileRead += r.fileRead
		if r.source < 0 {
			selfPending--
			if r.err != nil {
				noteLeaf(r.leaf, r.err)
			} else {
				out.AppendSet(r.sub)
			}
			return
		}
		replyBytes.Add(int64(len(r.reply)))
		c.Isend(r.source, tagReply, r.reply)
	}
	acceptOne := func() bool {
		st, ok := c.Probe(fabric.AnySource, tagQuery)
		if !ok {
			return false
		}
		raw, _ := c.Recv(st.Source, tagQuery)
		served.Inc()
		var rq queryMsg
		if err := decode(raw, &rq); err != nil {
			note(err)
			c.Isend(st.Source, tagReply, replyError(-1, err))
			return true
		}
		jobQueue = append(jobQueue, serveJob{source: st.Source, leaf: rq.Leaf, q: rq.toBAT()})
		return true
	}
	recvOne := func() bool {
		if pending == 0 {
			return false
		}
		st, ok := c.Probe(fabric.AnySource, tagReply)
		if !ok {
			return false
		}
		raw, _ := c.Recv(st.Source, tagReply)
		leaf, part, err := parseReply(raw, m.Schema)
		if err != nil {
			noteLeaf(leaf, fmt.Errorf("core: leaf %d via rank %d: %w", leaf, st.Source, err))
		} else {
			out.AppendSet(part)
		}
		pending--
		return true
	}

	var barrier *fabric.BarrierRequest
	for {
		progress := false
		for acceptOne() {
			progress = true
		}
		for len(jobQueue) > 0 {
			select {
			case jobs <- jobQueue[0]:
				jobQueue = jobQueue[1:]
				progress = true
				continue
			default:
			}
			break
		}
		for {
			select {
			case r := <-results:
				applyResult(r)
				progress = true
				continue
			default:
			}
			break
		}
		if recvOne() {
			progress = true
		}
		if barrier == nil && pending == 0 && selfPending == 0 {
			// All of this rank's data has arrived and its own leaves are
			// answered: enter the nonblocking barrier and keep serving
			// until everyone is done.
			barrier = c.Ibarrier()
		}
		if barrier != nil && barrier.Test() {
			break
		}
		if !progress {
			// The collective loop must keep polling through cancellation to
			// finish the protocol, so this brief backoff is deliberately not
			// interruptible.
			time.Sleep(20 * time.Microsecond) //batlint:ignore ctxsleep progress backoff inside the collective loop, must survive ctx cancellation
		}
	}
	// Barrier completion implies every rank received every reply, so no
	// remote job can still be queued or in flight; drain defensively all
	// the same so a protocol bug degrades to extra replies, never a hang.
	for len(jobQueue) > 0 {
		select {
		case jobs <- jobQueue[0]:
			jobQueue = jobQueue[1:]
		case r := <-results:
			applyResult(r)
		}
	}
	close(jobs)
	go func() {
		workers.Wait()
		close(results)
	}()
	for r := range results {
		applyResult(r)
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	stats.NumFiles = ds.openedLeaves()
	stats.Transfer = time.Since(xferStart) - stats.FileRead
	if stats.Transfer < 0 {
		stats.Transfer = 0
	}
	stats.Particles = out.Len()
	if len(stats.LeafErrors) > 0 {
		return out, stats, fmt.Errorf("%w: %d of %d selected leaves failed (first: %v)",
			ErrPartial, len(stats.LeafErrors), len(want), firstLeafErr)
	}
	return out, stats, nil
}

// Reply framing: one status byte (0 = data, 1 = error), the leaf index as
// a little-endian u32 (so the requester can attribute failures per leaf;
// ^0 when the server could not decode the query), then either a marshaled
// particle set or an error string.
const (
	replyOK      = 0
	replyFail    = 1
	replyHdrSize = 5
)

func replyHeader(status byte, leaf int) []byte {
	hdr := make([]byte, replyHdrSize)
	hdr[0] = status
	binary.LittleEndian.PutUint32(hdr[1:], uint32(leaf))
	return hdr
}

func replyData(leaf int, s *particles.Set) []byte {
	return append(replyHeader(replyOK, leaf), s.Marshal()...)
}

func replyError(leaf int, err error) []byte {
	return append(replyHeader(replyFail, leaf), err.Error()...)
}

func parseReply(raw []byte, schema particles.Schema) (int, *particles.Set, error) {
	if len(raw) < replyHdrSize {
		return -1, nil, fmt.Errorf("short reply (%d bytes)", len(raw))
	}
	leaf := int(int32(binary.LittleEndian.Uint32(raw[1:])))
	if raw[0] == replyFail {
		return leaf, nil, fmt.Errorf("server error: %s", raw[replyHdrSize:])
	}
	s, err := particles.Unmarshal(raw[replyHdrSize:], schema)
	return leaf, s, err
}

// serveJob is one leaf query for the aggregator worker pool: a remote
// rank's request, or (source == -1) one of this rank's own leaves.
type serveJob struct {
	source int
	leaf   int
	q      bat.Query
}

// serveResult is a finished serveJob. Remote jobs carry the encoded wire
// reply for the main loop to Isend; self jobs carry the particle set (or
// error) directly.
type serveResult struct {
	source   int
	leaf     int
	reply    []byte
	sub      *particles.Set
	err      error
	fileRead time.Duration
}

// serveLeafJob runs on a pool worker: serve the leaf through ds and
// package the outcome. It never touches the communicator. With a recorder
// attached, every serve is logged in the recent-query ring under the
// serving rank.
func serveLeafJob(ctx context.Context, col *obs.Collector, rank int, ds *Dataset, rec *access.Recorder, j serveJob) serveResult {
	sp := col.Start(rank, "read.serve")
	defer sp.End()
	start := time.Now()
	sub := particles.NewSet(ds.meta.Schema, 0)
	st, err := ds.serveLeaf(ctx, j.leaf, j.q, bat.Collect(sub))
	if rec != nil {
		ds.record(rec, access.QueryRecord{Source: "core.read", Rank: rank}, j.q, st, start)
	}
	res := serveResult{source: j.source, leaf: j.leaf, fileRead: time.Since(start)}
	if j.source < 0 {
		res.sub = sub
		if err != nil {
			res.err = fmt.Errorf("core: %w", err)
		}
		return res
	}
	if err != nil {
		// The requester records the leaf failure; serving it must not
		// poison this rank's own read.
		res.reply = replyError(j.leaf, err)
	} else {
		res.reply = replyData(j.leaf, sub)
	}
	return res
}
