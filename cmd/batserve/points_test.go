package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"

	"libbat"
)

// TestPointsBodyMatchesOrderedSequence pins the /points wire format: the
// body, with and without attr, is byte-identical to the float32
// little-endian encoding of the in-process Ordered visit sequence.
func TestPointsBodyMatchesOrderedSequence(t *testing.T) {
	s, _ := testServer(t)
	s.qcfg = libbat.QueryConfig{Workers: 2, Ordered: true}
	ds, err := libbat.OpenDataset(s.store, s.names[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.SetQueryConfig(libbat.QueryConfig{Workers: 4, Ordered: true})
	box := libbat.NewBox(libbat.V3(0.2, 0.1, 0.1), libbat.V3(2.5, 0.9, 0.8))
	for _, tc := range []struct {
		params string
		q      libbat.Query
		attr   int
	}{
		{"quality=1", libbat.Query{Quality: 1}, -1},
		{"quality=1&attr=0", libbat.Query{Quality: 1}, 0},
		{"prev=0.2&quality=0.6&attr=0", libbat.Query{PrevQuality: 0.2, Quality: 0.6}, 0},
		{"box=0.2,0.1,0.1,2.5,0.9,0.8&filter=0,0.5,2.2", libbat.Query{Quality: 1, Bounds: &box,
			Filters: []libbat.AttrFilter{{Attr: 0, Min: 0.5, Max: 2.2}}}, -1},
	} {
		var want bytes.Buffer
		err := ds.Query(tc.q, func(p libbat.Vec3, attrs []float64) error {
			vals := []float64{p.X, p.Y, p.Z}
			if tc.attr >= 0 {
				vals = append(vals, attrs[tc.attr])
			}
			for _, v := range vals {
				want.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(float32(v))))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.points(rec, httptest.NewRequest("GET", "/points?"+tc.params, nil))
		got, _ := io.ReadAll(rec.Body)
		if rec.Code != 200 || want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: status %d, body %d bytes, in-process sequence %d bytes (or bytes differ)",
				tc.params, rec.Code, len(got), want.Len())
		}
	}
}

// shortWriter accepts limit body bytes, then fails every write, keeping
// the accepted prefix of the failing one (a connection reset mid-write).
type shortWriter struct {
	*httptest.ResponseRecorder
	limit int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.Body.Len(); room < len(p) {
		n, _ := w.ResponseRecorder.Write(p[:max(room, 0)])
		return n, errors.New("connection reset by peer")
	}
	return w.ResponseRecorder.Write(p)
}

// TestPointsMidStreamErrorCountsWholePoints: when the connection fails
// mid-stream, the X-Batserve-Points trailer counts only the whole points
// that reached the wire, not the partial one nor the rest of the batch.
func TestPointsMidStreamErrorCountsWholePoints(t *testing.T) {
	s, _ := testServer(t)
	for _, tc := range []struct {
		params string
		stride int
	}{{"quality=1", 12}, {"quality=1&attr=0", 16}} {
		w := &shortWriter{ResponseRecorder: httptest.NewRecorder(), limit: 100*tc.stride + 5}
		s.points(w, httptest.NewRequest("GET", "/points?"+tc.params, nil))
		if got := w.Body.Len(); got != w.limit {
			t.Fatalf("%s: %d bytes reached the wire, want %d", tc.params, got, w.limit)
		}
		if st, n := w.Header().Get("X-Batserve-Status"), w.Header().Get("X-Batserve-Points"); st != "error" || n != strconv.Itoa(100) {
			t.Fatalf("%s: trailers status %q points %q, want error and 100", tc.params, st, n)
		}
	}
}
