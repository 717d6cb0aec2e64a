package libbat

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"libbat/internal/bat"
)

// TestDatasetLeafErrorsNameFile: a checksum failure in one leaf must name
// that leaf's file, once, in the error Dataset.Query returns and in the
// collective ReadQuery's LeafErrors, while errors.Is still finds
// bat.ErrChecksum wherever the error did not cross the wire.
func TestDatasetLeafErrorsNameFile(t *testing.T) {
	store, _ := writeTestDataset(t, "corrupt", 20*1024)
	ds, err := OpenDataset(store, "corrupt")
	if err != nil {
		t.Fatal(err)
	}
	victim := ds.Leaves()[0].FileName
	ds.Close()
	h, err := store.Open(victim)
	if err != nil {
		t.Fatal(err)
	}
	clean := make([]byte, h.Size())
	if _, err := h.ReadAt(clean, 0); err != nil {
		t.Fatal(err)
	}
	h.Close()

	// Flip payload bytes until a query trips a checksum.
	var qerr error
	for off := len(clean) / 2; off < len(clean) && !errors.Is(qerr, bat.ErrChecksum); off += 97 {
		mut := append([]byte(nil), clean...)
		mut[off] ^= 0x5a
		if err := store.WriteFile(victim, mut); err != nil {
			t.Fatal(err)
		}
		ds, err := OpenDataset(store, "corrupt")
		if err != nil {
			t.Fatal(err)
		}
		qerr = ds.Query(Query{}, func(Vec3, []float64) error { return nil })
		ds.Close()
	}
	if !errors.Is(qerr, bat.ErrChecksum) {
		t.Fatalf("no flip produced a checksum error (last: %v)", qerr)
	}
	if n := strings.Count(qerr.Error(), victim); n != 1 {
		t.Errorf("Dataset.Query error names %s %d times: %v", victim, n, qerr)
	}

	// One rank serves every leaf itself; with two, rank 1 gets leaf 0's
	// failure as an error reply from rank 0.
	for _, ranks := range []int{1, 2} {
		err := Run(ranks, func(c *Comm) error {
			_, st, err := ReadQuery(c, store, "corrupt", Query{})
			if !errors.Is(err, ErrPartial) {
				return fmt.Errorf("rank %d: err = %v, want ErrPartial", c.Rank(), err)
			}
			lerr := st.LeafErrors[0]
			if lerr == nil || !strings.Contains(lerr.Error(), victim) {
				return fmt.Errorf("rank %d: LeafErrors[0] = %v, want it to name %s", c.Rank(), lerr, victim)
			}
			if c.Rank() == 0 && !errors.Is(lerr, bat.ErrChecksum) {
				return fmt.Errorf("rank 0: LeafErrors[0] = %v, want ErrChecksum", lerr)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%d ranks: %v", ranks, err)
		}
	}
}
