package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"libbat"
)

// serveData is the v2 coal-boiler dataset batserve serves: the same
// particles and layout as the v3 dataset of read_progressive_cold, without
// compression.
var serveData = writeSpec{Ranks: coalWrite.Ranks, Target: coalWrite.Target, Make: coalWrite.Make}

// servePool is the number of distinct seeded session queries the clients
// cycle through. The server's cache is warm either way; the pool bounds the
// in-process recount that checks every answer.
const servePool = 128

// server is a batserve subprocess with its default flags.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
}

func startServer(bin, dir string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-in", dir, "-name", writeBase, "-addr", addr)
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping it, the server goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting batserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.base + "/info")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("batserve exited before serving: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("batserve did not start serving within 60s")
		}
	}
}

// stop sends SIGTERM (batserve drains and exits) and waits for the process;
// it kills the process if it has not exited after 20 s.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// scrape sums every series of each metric name on /metrics.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// fetch is one /points request and its checked response.
type fetch struct {
	points  int64
	latency time.Duration
}

// points requests one progressive step and checks the response: status
// 200, X-Batserve-Status complete, and a body of 12 bytes per point of
// X-Batserve-Points. An empty answer is a 200 with an empty body and no
// trailers, which is how batserve answers a query that matches nothing.
func points(hc *http.Client, base string, q libbat.Query) (fetch, error) {
	v := url.Values{}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	v.Set("prev", f(q.PrevQuality))
	v.Set("quality", f(q.Quality))
	if b := q.Bounds; b != nil {
		v.Set("box", strings.Join([]string{f(b.Lower.X), f(b.Lower.Y), f(b.Lower.Z), f(b.Upper.X), f(b.Upper.Y), f(b.Upper.Z)}, ","))
	}
	for _, flt := range q.Filters {
		v.Add("filter", fmt.Sprintf("%d,%s,%s", flt.Attr, f(flt.Min), f(flt.Max)))
	}
	start := time.Now()
	resp, err := hc.Get(base + "/points?" + v.Encode())
	if err != nil {
		return fetch{}, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r := fetch{latency: time.Since(start)}
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d", resp.StatusCode)
	}
	status, pts := resp.Trailer.Get("X-Batserve-Status"), resp.Trailer.Get("X-Batserve-Points")
	if n == 0 && status == "" && pts == "" {
		return r, nil
	}
	if status != "complete" {
		return r, fmt.Errorf("X-Batserve-Status %q", status)
	}
	if r.points, err = strconv.ParseInt(pts, 10, 64); err != nil {
		return r, fmt.Errorf("X-Batserve-Points %q", pts)
	}
	if n != 12*r.points {
		return r, fmt.Errorf("body of %d bytes for %d points", n, r.points)
	}
	return r, nil
}

// served is a written dataset and the batserve process serving it.
type served struct {
	d   *dataset
	srv *server
}

func runServe(o options, t *tally, traced bool) (metrics, error) {
	m := newMetrics()
	dir := filepath.Join(o.Work, o.Workload)
	defer os.RemoveAll(dir)
	setup := func() (*served, error) {
		d, err := writeDataset(dir, serveData, o.Scale)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(o.Batserve, dir)
		if err != nil {
			return nil, err
		}
		// One full pass caches the whole working set in the server.
		full, err := points(http.DefaultClient, srv.base, libbat.Query{Quality: 1})
		http.DefaultClient.CloseIdleConnections()
		if err == nil && full.points != d.total {
			err = fmt.Errorf("full pass returned %d of %d points", full.points, d.total)
		}
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		return &served{d: d, srv: srv}, nil
	}
	poolOf := func(d *dataset) []libbat.Query {
		queries := make([]libbat.Query, servePool)
		for i := range queries {
			queries[i] = d.gen.session(o.Seed, i)
		}
		return queries
	}
	m.env["clients"] = clients

	if !traced {
		// Each set-up is followed by its share of the window on that server
		// instance, so the run's medians pool several server processes.
		var setupS, rss []float64
		var ok []*session
		var wall time.Duration
		var first int // sessions continue through the pool across instances
		want := map[int][steps]int64{}
		for rep := 0; rep < setups; rep++ {
			runtime.GC()
			start := time.Now()
			sv, err := setup()
			if err != nil {
				return m, err
			}
			setupS = append(setupS, time.Since(start).Seconds())
			ss, w := o.runClients(sv.srv.base, poolOf(sv.d), first, o.window()/setups, nil)
			first += len(ss)
			wall += w
			good, err := gateServed(t, sv.d.store, ss, want, nil)
			if err == nil {
				var r float64
				r, err = peakRSSMB(sv.srv.pid())
				rss = append(rss, r)
			}
			sv.srv.stop()
			if err != nil {
				return m, err
			}
			ok = append(ok, good...)
			m.env["particles"] = sv.d.total
			m.env["bytes_on_disk"] = sv.d.bytes
			m.set("stored_bytes_per_particle", float64(sv.d.bytes)/float64(sv.d.total), "B")
		}
		setSessionMetrics(m, ok, wall)
		m.set("setup_s", median(setupS), "s")
		m.set("peak_rss_mb", median(rss), "MB")
		m.env["samples"] = len(ok)
		return m, nil
	}

	sv, err := setup()
	if err != nil {
		return m, err
	}
	defer sv.srv.stop()
	m.env["particles"] = sv.d.total
	m.env["bytes_on_disk"] = sv.d.bytes
	queries := poolOf(sv.d)

	// Traced run: half the window untraced, half with spans and request
	// latencies, bracketed by /metrics and /proc samples of the server.
	plain, _ := o.runClients(sv.srv.base, queries, 0, o.window()/2, nil)
	plainOK, err := gateServed(t, sv.d.store, plain, map[int][steps]int64{}, nil)
	if err != nil {
		return m, err
	}
	tr := newTracer(o)
	before, err := sampleServer(sv.srv)
	if err != nil {
		return m, err
	}
	ss, _ := o.runClients(sv.srv.base, queries, len(plain), o.window()/2, tr)
	after, err := sampleServer(sv.srv)
	if err != nil {
		return m, err
	}
	lay := &readLayers{tr: tr, raw: sv.d.store}
	ok, err := gateServed(t, sv.d.store, ss, map[int][steps]int64{}, lay)
	if err != nil {
		return m, err
	}
	if len(ok) == 0 || len(plainOK) == 0 {
		return m, nil // every session failed; error_rate says so
	}
	var tot, plainTot []float64
	var reqs []float64
	for _, s := range ok {
		tot = append(tot, s.total.Seconds())
		reqs = append(reqs, s.reqs...)
	}
	for _, s := range plainOK {
		plainTot = append(plainTot, s.total.Seconds())
	}
	m.set("trace_overhead_ratio", median(tot)/median(plainTot), "ratio")
	lay.set(m)
	n := float64(len(ss))
	d := func(k string) float64 { return after.metrics[k] - before.metrics[k] }
	queryS := d("query_duration_seconds_sum") / max(1, d("query_duration_seconds_count"))
	m.set("batserve.query_s", queryS, "s")
	m.set("batserve.request_overhead_s", mean(reqs)-queryS, "s")
	m.set("batserve.cpu_s_per_session", (after.cpu-before.cpu)/n, "s")
	m.set("batserve.rejected", d("bat_admission_rejected_total"), "count")
	m.set("pfs.read_bytes", (after.rchar-before.rchar)/n, "B")
	hits, misses := d("bat_treelet_cache_hits_total"), d("bat_treelet_cache_misses_total")
	m.set("bat.cache_hits", hits/n, "count")
	m.set("bat.cache_misses", misses/n, "count")
	m.set("bat.cache_evictions", d("bat_treelet_cache_evictions_total")/n, "count")
	m.set("bat.cache_hit_ratio", hits/max(1, hits+misses), "ratio")
	// Means, not medians: ten requests' mean latency adds up to the mean
	// session, with the client's gaps between requests as the remainder.
	table := breakdown(fmt.Sprintf("traced HTTP session (mean op_s, %d clients), trace_overhead_ratio %.3f",
		clients, m.out["trace_overhead_ratio"].Value), mean(tot),
		[]part{
			{"10 × batserve.query_s", steps * queryS},
			{"10 × batserve.request_overhead_s", steps * (mean(reqs) - queryS)},
		}, "client between requests")
	return m, tr.finish(m, table)
}

type serverSample struct {
	metrics    map[string]float64
	cpu, rchar float64
}

func sampleServer(s *server) (serverSample, error) {
	var out serverSample
	var err error
	if out.metrics, err = s.scrape(); err != nil {
		return out, err
	}
	if out.cpu, err = procCPUSeconds(s.pid()); err != nil {
		return out, err
	}
	out.rchar, err = procRchar(s.pid())
	return out, err
}

// runClients runs the closed-loop clients, each over its own
// connection, each starting its next session only when the previous one
// has completed, until window has passed. Sessions are numbered from
// first, and session i uses query i mod the pool. It returns the sessions
// and the wall time of the phase.
func (o options) runClients(base string, queries []libbat.Query, first int, window time.Duration, tr *tracer) ([]*session, time.Duration) {
	var mu sync.Mutex
	var ss []*session
	var next atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
		if o.Faults.Transport != nil {
			rt = o.Faults.Transport(rt)
		}
		hc := &http.Client{Transport: rt, Timeout: time.Minute}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer hc.CloseIdleConnections()
			for time.Since(start) < window {
				i := int(next.Add(1) - 1)
				s := &session{query: queries[i%len(queries)], pool: i % len(queries)}
				lane := tr.lane()
				sp := tr.start(lane, "session")
				t0 := time.Now()
				for k := 1; k <= steps; k++ {
					rsp := tr.start(lane, fmt.Sprintf("GET /points q=%.1f", float64(k)/steps))
					f, err := points(hc, base, step(s.query, k))
					rsp.End()
					s.reqs = append(s.reqs, f.latency.Seconds())
					s.steps[k-1].n = f.points
					if err != nil {
						s.err = fmt.Errorf("step %d: %w", k, err)
						break
					}
					if k == 1 {
						s.first = time.Since(t0)
					}
				}
				s.total = time.Since(t0)
				sp.End()
				mu.Lock()
				ss = append(ss, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ss, time.Since(start)
}

// gateServed checks every served step's point count against an
// in-process Dataset.Count of the same query, then records each session.
// want memoizes the counts by pooled query across server instances, whose
// datasets are byte-identical writes. With lay set, it also replays each
// pooled query on the in-process Dataset for the traversal metrics.
func gateServed(t *tally, store libbat.Storage, ss []*session, want map[int][steps]int64, lay *readLayers) ([]*session, error) {
	ds, err := libbat.OpenDataset(store, writeBase)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	var todo []*session // one session per pooled query not yet counted
	for _, s := range ss {
		if _, done := want[s.pool]; !done {
			want[s.pool] = [steps]int64{}
			todo = append(todo, s)
		}
	}
	// Count on every CPU: the Dataset is safe for concurrent queries.
	counts := make([][steps]int64, len(todo))
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(todo); j = int(next.Add(1) - 1) {
				for k := 1; k <= steps && errs[j] == nil; k++ {
					counts[j][k-1], errs[j] = ds.Count(step(todo[j].query, k))
				}
			}
		}()
	}
	wg.Wait()
	for j, s := range todo {
		if errs[j] != nil {
			return nil, errs[j]
		}
		want[s.pool] = counts[j]
		if lay != nil {
			if err := lay.replay(ds, s, 0); err != nil {
				return nil, err
			}
		}
	}
	var ok []*session
	for i, s := range ss {
		if s.err == nil {
			for k, w := range want[s.pool] {
				if got := s.steps[k].n; got != w {
					s.err = fmt.Errorf("step %d served %d points, in-process Count %d", k+1, got, w)
					break
				}
			}
		}
		t.record(s.err, fmt.Sprintf("served session %d", i))
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	return ok, nil
}
