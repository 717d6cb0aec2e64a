package libbat

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"libbat/internal/core"
	"libbat/internal/leakcheck"
	"libbat/internal/pfs"
)

// TestDatasetQueryCtxStalledLeaf: a Dataset over storage whose leaf reads
// stall indefinitely must return from a ctx query within the caller's
// deadline, leak nothing, and serve complete results once the stall
// clears — the Dataset-level half of the acceptance criterion.
func TestDatasetQueryCtxStalledLeaf(t *testing.T) {
	leakcheck.Check(t)
	store, total := writeTestDataset(t, "stall", 20*1024)
	fau := pfs.NewFaulty(store, pfs.FaultConfig{})
	ds, err := OpenDataset(fau, "stall")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.SetQueryConfig(QueryConfig{Workers: 2})

	fau.StallReads(core.LeafFileName("stall", 0))
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ds.QueryBatches(ctx, "dataset", Query{}, func(*Batch) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled query = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled query returned after %v, want bounded by the 200ms deadline", elapsed)
	}

	// Release the stall: the leaf slot must not be wedged or poisoned by
	// the canceled open.
	fau.ReleaseStalls()
	var n int64
	if err := ds.Query(Query{}, func(Vec3, []float64) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != int64(total) {
		t.Fatalf("post-release scan visited %d, want %d", n, total)
	}
}

// TestDatasetQueryCtxDetach: while one query is blocked opening a stalled
// leaf, a second query with a live context for the same leaf must share
// the singleflight slot, detach when its own deadline fires, and — after
// the stall clears — a third query must load the leaf fresh.
func TestDatasetQueryCtxDetach(t *testing.T) {
	leakcheck.Check(t)
	store, total := writeTestDataset(t, "detach", 20*1024)
	fau := pfs.NewFaulty(store, pfs.FaultConfig{})
	ds, err := OpenDataset(fau, "detach")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	fau.StallReads(core.LeafFileName("detach", 0))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(),
				time.Duration(50+i*25)*time.Millisecond)
			defer cancel()
			_, err := ds.QueryBatches(ctx, "dataset", Query{}, func(*Batch) error { return nil })
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("waiter %d = %v, want DeadlineExceeded", i, err)
			}
		}(i)
	}
	wg.Wait()

	fau.ReleaseStalls()
	n, err := ds.Count(Query{})
	if err != nil || n != int64(total) {
		t.Fatalf("post-detach count = %d, %v; want %d, nil", n, err, total)
	}
}

// TestDatasetCacheStatsSkipsInflightOpens: with an access recorder
// attached, every query snapshots the cache counters before and after it
// runs. A query that touches only warm leaves must not wait, deaf to its
// own deadline, behind another query's stalled open of a different leaf.
func TestDatasetCacheStatsSkipsInflightOpens(t *testing.T) {
	leakcheck.Check(t)
	store, _ := writeTestDataset(t, "inflight", 20*1024)
	fau := pfs.NewFaulty(store, pfs.FaultConfig{})
	ds, err := OpenDataset(fau, "inflight")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.SetAccessRecorder(NewAccessRecorder("inflight", ds.Bounds(), AccessOptions{}))

	// A query box inside some leaf other than 0 that leaf 0 cannot match.
	leaves := ds.Leaves()
	var q Query
	for _, l := range leaves[1:] {
		c, h := l.Bounds.Center(), l.Bounds.Size().Scale(0.25)
		box := NewBox(c.Sub(h), c.Add(h))
		if !box.Overlaps(leaves[0].Bounds) {
			q = Query{Bounds: &box}
			break
		}
	}
	if q.Bounds == nil {
		t.Fatal("no leaf is disjoint from leaf 0")
	}
	if n, err := ds.Count(q); err != nil || n == 0 {
		t.Fatalf("warming count = %d, %v", n, err)
	}

	fau.StallOpens(core.LeafFileName("inflight", 0))
	scan := make(chan error, 1)
	go func() {
		_, err := ds.Count(Query{})
		scan <- err
	}()
	for fau.Stalled() == 0 {
		time.Sleep(time.Millisecond)
	}

	warm := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		_, err := ds.QueryBatches(ctx, "dataset", q, func(*Batch) error { return nil })
		warm <- err
	}()
	select {
	case err := <-warm:
		if err != nil {
			t.Errorf("warm query = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Error("warm query still blocked after 3s behind another query's stalled open")
		fau.ReleaseStalls()
		<-warm
	}
	fau.ReleaseStalls()
	if err := <-scan; err != nil {
		t.Fatalf("full scan after release = %v", err)
	}
}
