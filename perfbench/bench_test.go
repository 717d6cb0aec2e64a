package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"libbat"
	"libbat/internal/pfs"
)

// toyScale runs every workload in well under a second of measurement.
var toyScale = scale{
	Particles:   20_000,
	CoalRanks:   8,
	DamRanks:    16,
	MinOps:      2,
	MinSessions: 2,
}

var batserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	batserveBin = filepath.Join(dir, "batserve")
	out, err := exec.Command("go", "build", "-o", batserveBin, "libbat/cmd/batserve").CombinedOutput()
	if err != nil {
		panic("building batserve: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func toyOptions(t *testing.T, workload string) options {
	return options{
		Workload: workload,
		Seed:     7,
		Seconds:  0.2,
		Work:     t.TempDir(),
		Batserve: batserveBin,
		Scale:    toyScale,
	}
}

// TestWorkloadsPassGate runs every workload untraced and traced at toy
// size: every operation passes its gate and every metric is reported.
func TestWorkloadsPassGate(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				res, _, err := run(toyOptions(t, name), workloadFns[name], traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < int64(toyScale.MinOps) {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := len(endToEnd)
				if traced {
					want = len(perLayer)
				}
				if len(res.Metrics) != want {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), want)
				}
				if !traced {
					for k, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("%s = %v, want > 0", k, v.Value)
						}
					}
				} else if r := res.Metrics["trace_overhead_ratio"].Value; r <= 0 {
					t.Errorf("trace_overhead_ratio = %v", r)
				}
			})
		}
	}
}

// dropLeafWrites pretends every other write of the first leaf file
// succeeded without storing it.
type dropLeafWrites struct {
	libbat.Storage
	n *atomic.Int64 // shared by the decorators of successive writes
}

func (d *dropLeafWrites) WriteFile(name string, data []byte) error {
	if strings.HasSuffix(name, ".l00000.bat") && d.n.Add(1)%2 == 0 {
		return nil
	}
	return d.Storage.WriteFile(name, data)
}

// dropTail hides the last point of a response body, keeping its trailers.
type dropTail struct{ rt http.RoundTripper }

func (d dropTail) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := d.rt.RoundTrip(r)
	if err != nil || !strings.HasPrefix(r.URL.Path, "/points") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(body) >= 12 {
		body = body[:len(body)-12]
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestGateCatchesInjectedFaults injects faults from the benchmark side and
// checks that each shows up as failed operations.
func TestGateCatchesInjectedFaults(t *testing.T) {
	cases := []struct {
		name, workload string
		faults         faults
	}{
		{"write drops a leaf file", "write_coalboiler_64", faults{
			Store: func() func(libbat.Storage) libbat.Storage {
				var n atomic.Int64
				return func(s libbat.Storage) libbat.Storage { return &dropLeafWrites{Storage: s, n: &n} }
			}(),
		}},
		{"pfs fault injector fails reads", "read_progressive_cold", faults{
			Store: func(s libbat.Storage) libbat.Storage {
				return pfs.NewFaulty(s, pfs.FaultConfig{Seed: 1, ReadFailProb: 0.2})
			},
		}},
		{"read drops points", "read_progressive_cold", faults{
			Visit: func(v libbat.Visitor) libbat.Visitor {
				var n int
				return func(p libbat.Vec3, attrs []float64) error {
					if n++; n%97 == 0 {
						return nil
					}
					return v(p, attrs)
				}
			},
		}},
		{"response loses its last point", "serve_points_warm", faults{
			Transport: func(rt http.RoundTripper) http.RoundTripper { return dropTail{rt} },
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			o := toyOptions(t, c.workload)
			o.Faults = c.faults
			res, _, err := run(o, workloadFns[c.workload], true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 || res.Metrics["error_rate"].Value <= 0 {
				t.Fatalf("fault not caught: correct=%v attempted=%d failed=%d error_rate=%v",
					res.Correct, res.Attempted, res.Failed, res.Metrics["error_rate"].Value)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program has %v", got, workloadNames())
	}
	same := func(list string, json []struct{ Name, Unit string }, prog []struct{ name, unit string }) {
		if len(json) != len(prog) {
			t.Errorf("%s lists %d metrics, program reports %d", list, len(json), len(prog))
			return
		}
		for i, m := range json {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", list, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
