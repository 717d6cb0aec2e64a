// Query engine: workers claim candidate treelets in list order, fill each
// into a selection-vector batch, and a single emitter (the caller's
// goroutine) hands batches to the visitor, never concurrently. Workers=1
// runs the same fill and delivery inline.
//
// Memory is bounded by a fixed set of 2×workers tasks. A worker takes a
// free task BEFORE claiming a treelet and the emitter frees it after
// delivery; claims ascend, so the lowest undelivered index always owns a
// task, which makes Ordered delivery deadlock-free.
package bat

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// task is one candidate treelet's traversal, in flight between the worker
// that filled it and the emitter that delivers it. Its Batch views the
// treelet's columns, which keeps the treelet alive through delivery even
// if the cache evicts it meanwhile; Sel is reused from treelet to treelet.
type task struct {
	Batch
	idx int        // position in the candidate list, for ordered delivery
	st  QueryStats // this treelet's counters, merged on delivery
	err error      // treelet load, corruption or cancellation error
}

// fill loads candidate treelet li and runs the exact checks into t.
func (f *File) fill(ctx context.Context, s *queryState, li int, t *task, cancel *atomic.Bool) {
	t.st, t.err = QueryStats{}, nil
	if t.Sel == nil {
		select {
		case t.Sel = <-f.selFree:
		default:
			t.Sel = make([]uint32, 0, f.maxTreeletPoints)
		}
	}
	tr, err := f.loadTreelet(ctx, li)
	if err != nil {
		t.err = err
		return
	}
	t.st.Treelets++
	ref := &f.leaves[li]
	f.access.Treelet(f.accessLeaf, li, int64(ref.byteLen), ref.bounds.Center())
	t.X, t.Y, t.Z, t.Attrs = tr.x, tr.y, tr.z, tr.attrs
	sc := treeletScan{s: s, f: f, t: tr, st: &t.st, sel: t.Sel[:0], cancel: cancel}
	t.err = sc.node(0, 0)
	t.Sel = sc.sel
}

// recycle offers t's selection vector for reuse by later queries; no
// batch is in use once the query returns.
func (f *File) recycle(t *task) {
	if t.Sel == nil {
		return
	}
	select {
	case f.selFree <- t.Sel:
	default:
	}
}

// deliver merges t's counters into st and hands its batch to visit.
// Treelets with no matches are not delivered.
func deliver(t *task, st *QueryStats, visit BatchVisitor) error {
	if t.err != nil {
		return t.err
	}
	t.st.Visited = int64(len(t.Sel))
	st.Add(t.st)
	if len(t.Sel) == 0 {
		return nil
	}
	return visit(&t.Batch)
}

// run traverses the candidate treelets and delivers their batches to visit
// on the calling goroutine. With one worker it runs inline; otherwise it
// fans out to a pool. cancel is the shared abort flag, polled per tree
// node: set when ctx ends or delivery fails.
func (f *File) run(ctx context.Context, s *queryState, cands []int, cfg QueryConfig, st *QueryStats, visit BatchVisitor, cancel *atomic.Bool) error {
	w := cfg.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = min(w, len(cands))
	if w <= 1 {
		var t task
		defer f.recycle(&t)
		for i, li := range cands {
			// The AfterFunc that sets the flag runs on its own goroutine and
			// may lag on a busy scheduler; a direct per-treelet check keeps
			// cancellation prompt regardless.
			if err := ctx.Err(); err != nil {
				return err
			}
			if cfg.Readahead > 0 {
				if i == 0 {
					for j := 1; j <= cfg.Readahead && j < len(cands); j++ {
						f.prefetch(ctx, cands[j], cfg.Readahead)
					}
				} else if i+cfg.Readahead < len(cands) {
					f.prefetch(ctx, cands[i+cfg.Readahead], cfg.Readahead)
				}
			}
			f.fill(ctx, s, li, &t, cancel)
			if err := deliver(&t, st, visit); err != nil {
				return err
			}
		}
		return nil
	}

	// free holds the tasks not claimed by a worker; results is sized to the
	// task count so workers never block sending.
	maxInflight := 2 * w
	tasks := make([]task, maxInflight)
	free := make(chan *task, maxInflight)
	for i := range tasks {
		free <- &tasks[i]
	}
	defer func() {
		for i := range tasks {
			f.recycle(&tasks[i])
		}
	}()
	results := make(chan *task, maxInflight)
	var next atomic.Int64

	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancel.Load() {
					return
				}
				t := <-free // take a task before claiming (see file comment)
				idx := int(next.Add(1)) - 1
				if idx >= len(cands) || cancel.Load() {
					free <- t
					return
				}
				if cfg.Readahead > 0 {
					// Warm the treelet this worker is likely to claim next.
					if j := idx + w; j < len(cands) {
						f.prefetch(ctx, cands[j], cfg.Readahead)
					}
				}
				t.idx = idx
				f.fill(ctx, s, cands[idx], t, cancel)
				results <- t
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var firstErr error
	// emit delivers one batch and frees its task. Once a batch has failed,
	// later ones are only drained, so workers get their tasks back and
	// exit. A cancellation observed between batches also stops delivery:
	// already-traversed batches must not keep streaming to a caller that
	// asked to stop.
	emit := func(t *task) {
		if firstErr == nil {
			if firstErr = ctx.Err(); firstErr == nil {
				firstErr = deliver(t, st, visit)
			}
			if firstErr != nil {
				cancel.Store(true)
			}
		}
		free <- t
	}

	if !cfg.Ordered {
		for t := range results {
			emit(t)
		}
	} else {
		// Stash out-of-order completions; the undelivered claimed indices
		// always lie in [nextIdx, nextIdx+maxInflight), so a ring indexed
		// by idx mod maxInflight never collides.
		pending := make([]*task, maxInflight)
		nextIdx := 0
		for t := range results {
			pending[t.idx%maxInflight] = t
			for {
				nt := pending[nextIdx%maxInflight]
				if nt == nil {
					break
				}
				pending[nextIdx%maxInflight] = nil
				nextIdx++
				emit(nt)
			}
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}
