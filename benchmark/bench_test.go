package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestManifestMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("manifest workloads %v, benchmark has %v", names, workloadNames)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: manifest lists %d metrics, benchmark prints %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			l := listed[i]
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: bad or repeated name or unit: %q %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s[%d]: manifest has %+v, benchmark has %+v", kind, i, l, d)
			}
			switch {
			case !bounded && l.Bound != nil:
				t.Errorf("%s: per-layer metric has a bound", d.name)
			case bounded && (l.Bound == nil || *l.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound in the manifest and %v in the benchmark differ or are out of range", d.name, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

func TestFast10(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5, 3, 7}, 3}, // fewer than 30 samples: the fastest three
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 11, 12, 13, 14}, 2}, // still three
		{ramp(40), 2.5}, // a tenth of 40 is four: 1, 2, 3, 4
		{ramp(41), 3},   // rounds up: five
	} {
		if got := fast10(c.xs); got != c.want {
			t.Errorf("fast10(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ramp(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v", q1, q2, q3)
	}
}

func TestTenantsInSLO(t *testing.T) {
	tenants := []int{4, 8, 12, 16}
	for _, c := range []struct {
		p99  []float64
		want float64
	}{
		{[]float64{100, 200, 300, 390}, 16}, // never crosses: the last point
		{[]float64{100, 200, 600, 900}, 10}, // halfway between 8 and 12
		{[]float64{800, 900, 950, 990}, 2},  // already over at 4: from the origin
	} {
		if got := tenantsInSLO(tenants, c.p99, 400); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tenantsInSLO(%v) = %v, want %v", c.p99, got, c.want)
		}
	}
}

// TestWorkloads runs every workload at quick sizes: traced at seed 1234,
// and untraced at a second seed. No operation may fail; every end-to-end
// metric is non-zero; the simulated metrics of two executions of the same
// inputs are bit-identical; the traced pass's spans account for its wall
// time.
func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			first := quickRun(t, options{workload: name, seed: 1234, trace: true, outDir: dir})
			for name := range first.layer {
				if !defined(perLayer, name) {
					t.Errorf("per-layer metric %s is computed but not declared", name)
				}
			}
			for name := range first.e2e {
				if !defined(endToEnd, name) {
					t.Errorf("end-to-end metric %s is computed but not declared", name)
				}
			}
			if first.layer["trace.analyzer_match"] != 1 || first.layer["trace.overhead_ratio"] <= 0 {
				t.Errorf("traced pass: analyzer_match %v, overhead_ratio %v",
					first.layer["trace.analyzer_match"], first.layer["trace.overhead_ratio"])
			}
			checkSpans(t, first.spanFile)

			second := quickRun(t, options{workload: name, seed: 4321, outDir: dir})
			if first.usesSeed {
				// Other inputs: repeat the first seed for the comparison.
				second = quickRun(t, options{workload: name, seed: 1234, outDir: dir})
			}
			_, a := reported(first, false)
			_, b := reported(second, false)
			for _, d := range endToEnd {
				host := d.name == "setup_s" || d.name == "simops_per_s" || d.name == "host_peak_mb"
				if !host && a[d.name] != b[d.name] {
					t.Errorf("%s: %v then %v from the same inputs", d.name, a[d.name], b[d.name])
				}
			}
		})
	}
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func quickRun(t *testing.T, o options) *report {
	t.Helper()
	o.quick = true
	rep, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted < 1 || rep.failed != 0 {
		t.Fatalf("seed %d: %d attempted, %d failed: %v", o.seed, rep.attempted, rep.failed, rep.failures)
	}
	_, values := reported(rep, false)
	for _, d := range endToEnd {
		if v := values[d.name]; v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("seed %d: end-to-end metric %s = %v", o.seed, d.name, v)
		}
	}
	return rep
}

// checkSpans verifies that the span file has one root, the traced rep,
// and that the self times of its spans add up to its wall time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wall, self int64
	layers := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Rep != tracedRepID {
			t.Errorf("span %d belongs to rep %d", s.ID, s.Rep)
		}
		if s.Parent < 0 {
			if s.Name != "rep" || wall != 0 {
				t.Errorf("unexpected root span %+v", s)
			}
			wall = s.EndNS - s.StartNS
		}
		self += s.SelfNS
		layers[s.Layer] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if wall == 0 || math.Abs(float64(self-wall)) > 0.01*float64(wall) {
		t.Errorf("self times sum to %d ns, the rep took %d ns", self, wall)
	}
	if !layers["core"] || !layers["trace"] {
		t.Errorf("spans cover layers %v", layers)
	}
}
