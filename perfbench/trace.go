package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"libbat"
	"libbat/internal/obs"
)

// tracer records the traced run's spans on the obs collector: one lane
// (Chrome-trace thread) per session or write, so every span is linked to
// the operation it belongs to. A nil *tracer records nothing.
type tracer struct {
	col   *obs.Collector
	next  atomic.Int64 // next lane id
	cur   atomic.Int64 // lane the storage decorator attributes spans to
	dir   string
	label string
}

func newTracer(o options) *tracer {
	return &tracer{col: obs.New(), dir: filepath.Join(o.Work, "trace"),
		label: fmt.Sprintf("%s-seed%d", o.Workload, o.Seed)}
}

// lane opens a new lane and makes it current.
func (t *tracer) lane() int {
	if t == nil {
		return 0
	}
	l := t.next.Add(1)
	t.cur.Store(l)
	return int(l)
}

func (t *tracer) start(lane int, name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.col.Start(lane, name)
}

// store wraps s in the timing decorator, attributing spans to the current
// lane.
func (t *tracer) store(s libbat.Storage) *timedStore {
	return &timedStore{Storage: s, col: t.col, lane: &t.cur}
}

// finish writes the spans as a Chrome trace and the per-layer table next
// to it, and prints the table on stderr.
func (t *tracer) finish(m metrics, table string) error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(t.dir, t.label+".trace.json"))
	if err != nil {
		return err
	}
	if err := t.col.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString(table)
	sb.WriteString("\nall per-layer metrics:\n")
	names := make([]string, 0, len(m.out))
	for n := range m.out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-32s %16.6g %s\n", n, m.out[n].Value, m.out[n].Unit)
	}
	spans := t.col.Spans()
	type agg struct {
		n     int
		total time.Duration
	}
	byName := map[string]*agg{}
	var order []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.n++
		a.total += s.Dur
	}
	sort.Strings(order)
	fmt.Fprintf(&sb, "spans: %d over %d lanes (Chrome trace in %s.trace.json)\n", len(spans), t.next.Load(), t.label)
	for _, n := range order {
		a := byName[n]
		fmt.Fprintf(&sb, "  %-32s %7d spans %12.6f s total %12.6f s mean\n", n, a.n, a.total.Seconds(), a.total.Seconds()/float64(a.n))
	}
	fmt.Fprint(os.Stderr, sb.String())
	return os.WriteFile(filepath.Join(t.dir, t.label+".layers.txt"), []byte(sb.String()), 0o644)
}

// part is one named share of a traced end-to-end time, in seconds.
type part struct {
	name string
	s    float64
}

// breakdown renders total = Σ parts + remainder as a table, so the layer
// times visibly add up to the traced end-to-end time.
func breakdown(title string, total float64, parts []part, remainder string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	rest := total
	for _, p := range parts {
		rest -= p.s
		fmt.Fprintf(&sb, "  %-32s %12.6f s  %5.1f%%\n", p.name, p.s, 100*p.s/total)
	}
	fmt.Fprintf(&sb, "  %-32s %12.6f s  %5.1f%%\n", remainder, rest, 100*rest/total)
	fmt.Fprintf(&sb, "  %-32s %12.6f s  100.0%%\n", "= total", total)
	return sb.String()
}

func writeTable(m metrics, total float64) string {
	var parts []part
	for _, p := range []string{"plan", "gather_scatter", "transfer", "bat_build", "file_write", "metadata"} {
		parts = append(parts, part{"core." + p + "_s", m.out["core."+p+"_s"].Value})
	}
	return breakdown(fmt.Sprintf("traced collective write (median op_s), trace_overhead_ratio %.3f",
		m.out["trace_overhead_ratio"].Value), total, parts, "core.unattributed_s")
}
