package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"libbat"
)

// scale fixes the workload sizes. Particle counts never depend on the seed.
type scale struct {
	Particles int64 // per dataset
	CoalRanks int   // ranks of the coal-boiler writes and datasets
	DamRanks  int   // ranks of the dam-break write
	MinOps    int   // operations measured even when -seconds runs out first
	// MinSessions is MinOps for the untraced cold-read sessions: enough
	// that op_p90_s has at least ten sessions beyond it.
	MinSessions int
}

var fullScale = scale{
	Particles:   2_000_000,
	CoalRanks:   64,
	DamRanks:    512,
	MinOps:      3,
	MinSessions: 100,
}

const (
	setups  = 3 // set-up repetitions behind setup_s
	clients = 2 // closed-loop HTTP clients of serve_points_warm, one per CPU
)

// faults are benchmark-side injections used by the gate self-test; the
// zero value injects nothing.
type faults struct {
	// Store wraps the storage the measured operations run against.
	Store func(libbat.Storage) libbat.Storage
	// Visit wraps the visitor of every measured session query.
	Visit func(libbat.Visitor) libbat.Visitor
	// Transport wraps the HTTP clients' transport.
	Transport func(http.RoundTripper) http.RoundTripper
}

type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Work     string
	Batserve string
	Scale    scale
	Faults   faults
}

func (o options) window() time.Duration { return time.Duration(o.Seconds * float64(time.Second)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects a run's named metrics and the environment facts the
// workload contributes (particle counts, bytes on disk).
type metrics struct {
	out map[string]metric
	env map[string]any
}

func newMetrics() metrics {
	return metrics{out: map[string]metric{}, env: map[string]any{}}
}

func (m metrics) set(name string, v float64, unit string) { m.out[name] = metric{Value: v, Unit: unit} }

func (m metrics) secs(name string, d time.Duration) { m.set(name, d.Seconds(), "s") }

// tally counts attempted and failed operations; each operation is
// recorded once, after every gate on its answer has run. A wrong answer is
// a failure; the first failures' reasons go to stderr.
type tally struct {
	mu      sync.Mutex
	n, fail int64
}

func (t *tally) record(err error, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	if err != nil {
		t.fail++
		if t.fail <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s: %v\n", what, err)
		}
	}
}

func (t *tally) attempted() int64 { t.mu.Lock(); defer t.mu.Unlock(); return t.n }
func (t *tally) failed() int64    { t.mu.Lock(); defer t.mu.Unlock(); return t.fail }

func (t *tally) rate() float64 {
	if n := t.attempted(); n > 0 {
		return float64(t.failed()) / float64(n)
	}
	return 0
}

// median and quantile use the nearest-rank definition on a sorted copy, so
// p90 of n samples has n-ceil(0.9n) samples beyond it.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// medianIndex is the index of the sample median returns.
func medianIndex(xs []float64) int {
	med := median(xs)
	for i, x := range xs {
		if x == med {
			return i
		}
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// giveUp bounds a measured phase's wall time when operations keep failing
// (a failed operation adds little or nothing to the measured time).
func giveUp(window time.Duration) time.Duration { return 4*window + 30*time.Second }

// timeSetup runs setup several times, each from a collected heap, keeping
// the last result and returning the median duration.
func timeSetup[T any](setup func() (T, error)) (T, float64, error) {
	var durs []float64
	var cur T
	for i := 0; i < setups; i++ {
		var zero T
		cur = zero
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return cur, 0, err
		}
		durs = append(durs, time.Since(start).Seconds())
		cur = v
	}
	return cur, median(durs), nil
}

// settle frees what set-up left behind and restarts the process's peak-RSS
// counter, so peak_rss_mb covers only the measured phase.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset peak RSS, peak_rss_mb includes set-up:", err)
	}
}

// procField reads one "Key: value" line of /proc/<pid>/<file>.
func procField(pid int, file, key string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc/%d/%s", key, pid, file)
}

// peakRSSMB is VmHWM of pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	v, err := procField(pid, "status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	return kb / 1024, err
}

// procCPUSeconds is utime+stime of pid, in seconds of USER_HZ=100 ticks.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (u + st) / 100, nil
}

// procRchar is the bytes pid has read through read-type syscalls.
func procRchar(pid int) (float64, error) {
	v, err := procField(pid, "io", "rchar")
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(v, 64)
}

// queryGen is the seeded session generator: a box spanning 30–80% of each
// axis of the domain and one attribute filter between a low and a high
// quantile of that attribute's values.
type queryGen struct {
	domain libbat.Box
	attrs  []int       // attributes whose values vary
	sorted [][]float64 // per attribute: sorted value sample
}

func newQueryGen(sets []*libbat.ParticleSet, domain libbat.Box) *queryGen {
	g := &queryGen{domain: domain}
	nattr := sets[0].Schema.NumAttrs()
	g.sorted = make([][]float64, nattr)
	const stride = 101
	for _, s := range sets {
		for a := 0; a < nattr; a++ {
			for i := 0; i < s.Len(); i += stride {
				g.sorted[a] = append(g.sorted[a], s.Attrs[a][i])
			}
		}
	}
	for a := range g.sorted {
		sort.Float64s(g.sorted[a])
		if v := g.sorted[a]; len(v) > 0 && v[0] < v[len(v)-1] {
			g.attrs = append(g.attrs, a)
		}
	}
	return g
}

// session returns the box and filter of session i under seed. The box's
// three sides and three places follow Kronecker sequences frac(½ + i·√p),
// p the first six primes, and the filtered attribute cycles through the
// varying ones: a fixed low-discrepancy design, so any run of sessions
// covers box sizes, places and attributes evenly. The seed draws the
// offsets of the filter bounds' sequences. A session's cost spans more
// than an order of magnitude with its box, so seeding the geometry too
// made a run's median depend on which boxes its seed happened to draw.
func (g *queryGen) session(seed int64, i int) libbat.Query {
	r := rand.New(rand.NewSource(seed))
	var u [8]float64
	for d, p := range [8]float64{2, 3, 5, 7, 11, 13, 17, 19} {
		c := 0.5
		if d >= 6 {
			c = r.Float64()
		}
		_, u[d] = math.Modf(c + float64(i)*math.Sqrt(p))
	}
	lo, size := g.domain.Lower, g.domain.Size()
	axis := func(l, s, uw, ux float64) (float64, float64) {
		w := (0.3 + 0.5*uw) * s
		a := l + ux*(s-w)
		return a, a + w
	}
	x0, x1 := axis(lo.X, size.X, u[0], u[1])
	y0, y1 := axis(lo.Y, size.Y, u[2], u[3])
	z0, z1 := axis(lo.Z, size.Z, u[4], u[5])
	box := libbat.NewBox(libbat.V3(x0, y0, z0), libbat.V3(x1, y1, z1))
	q := libbat.Query{Bounds: &box}
	if len(g.attrs) > 0 {
		a := g.attrs[i%len(g.attrs)]
		v := g.sorted[a]
		pick := func(p float64) float64 { return v[min(len(v)-1, int(p*float64(len(v))))] }
		q.Filters = []libbat.AttrFilter{{Attr: a, Min: pick(0.25 * u[6]), Max: pick(0.75 + 0.25*u[7])}}
	}
	return q
}

// steps is the paper's Table I/II progression: quality 0.1 to 1.0 in
// increments of 0.1, each query fetching only the increment.
const steps = 10

func step(base libbat.Query, k int) libbat.Query {
	q := base
	q.PrevQuality = float64(k-1) / steps
	q.Quality = float64(k) / steps
	return q
}

// digest is an order-independent fingerprint of a point multiset: a count
// and a wrapping sum of per-point hashes over position and attributes.
type digest struct {
	n   int64
	sum uint64
}

func (d *digest) add(o digest) { d.n += o.n; d.sum += o.sum }

func (d *digest) visit(p libbat.Vec3, attrs []float64) error {
	h := mix(math.Float64bits(p.X)) ^ mix(math.Float64bits(p.Y)+1) ^ mix(math.Float64bits(p.Z)+2)
	for i, a := range attrs {
		h ^= mix(math.Float64bits(a) + uint64(i+3))
	}
	d.n++
	d.sum += mix(h)
	return nil
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// bruteForce is the reference answer of q (quality 1) by a scan of set.
func bruteForce(set *libbat.ParticleSet, q libbat.Query) digest {
	var d digest
	attrs := make([]float64, set.Schema.NumAttrs())
	for i := 0; i < set.Len(); i++ {
		p := set.Position(i)
		if q.Bounds != nil && !q.Bounds.Contains(p) {
			continue
		}
		pass := true
		for _, f := range q.Filters {
			if v := set.Attrs[f.Attr][i]; v < f.Min || v > f.Max {
				pass = false
			}
		}
		if !pass {
			continue
		}
		for a := range attrs {
			attrs[a] = set.Attrs[a][i]
		}
		d.visit(p, attrs)
	}
	return d
}

// environment is what every result records about the machine and inputs.
func environment(o options, fromWorkload map[string]any) map[string]any {
	env := map[string]any{
		"workload":     o.Workload,
		"seed":         o.Seed,
		"seconds":      o.Seconds,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"go_version":   runtime.Version(),
		"git_revision": gitRevision(),
		"llc_bytes":    llcBytes(),
		"flush_policy": "DirStorage default: write to a temp file, then atomic rename; no fsync",
		"note":         "datasets are read back from the OS page cache, so read latencies are this machine's memory and syscall costs, not a storage device's",
	}
	for k, v := range fromWorkload {
		env[k] = v
	}
	return env
}

func gitRevision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// llcBytes is the size of the largest cache level cpu0 reports, or 0.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}
