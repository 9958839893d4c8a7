// Command benchmark is the repository's one benchmark: four workloads on
// two clocks. It runs one workload per invocation, checks the outputs, and
// prints every metric by name and unit followed by one JSON line. See
// README.md for the metrics, the workloads and the noise rules behind the
// design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	var o options
	var traceFlag, aaRuns int
	flag.StringVar(&o.workload, "workload", "", "workload to run: splash-smp, tardis-wide, oltp-open or short-runs")
	flag.Int64Var(&o.seed, "seed", 1234, "workload seed; only oltp-open has random inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics from untraced reps; 1: also the traced and parallel passes, per-layer metrics")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for the span files")
	flag.IntVar(&aaRuns, "aa", 0, "run every workload this many times in each of two interleaved sets and compare the sets")
	flag.Parse()
	if flag.NArg() > 0 || traceFlag < 0 || traceFlag > 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	if aaRuns > 0 {
		ok, err := runAA(os.Stdout, aaRuns, o.seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported selects the metrics of one run's JSON line: every end-to-end
// metric without tracing, every per-layer metric with it.
func reported(rep *report, traced bool) ([]metricDef, map[string]float64) {
	if traced {
		return perLayer, rep.layer
	}
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.name] = notApplicable
		if v, ok := rep.e2e[d.name]; ok {
			values[d.name] = v
		}
	}
	return endToEnd, values
}

func printReport(w io.Writer, rep *report, o options) error {
	seedNote := ""
	if !rep.usesSeed {
		seedNote = " (unused: this workload has no random inputs)"
	}
	fmt.Fprintf(w, "workload %s  seed %d%s  seconds %g  trace %v\n", rep.workload, o.seed, seedNote, o.seconds, o.trace)
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS 1  %s %s/%s  timed reps %d\n",
		runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, rep.reps)
	phases := make([]string, 0, len(rep.phases))
	for name := range rep.phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	fmt.Fprint(w, "phases:")
	for _, name := range phases {
		fmt.Fprintf(w, "  %s %.2f", name, rep.phases[name])
	}
	fmt.Fprintln(w)

	printMetrics := func(title string, defs []metricDef, values map[string]float64) {
		fmt.Fprintf(w, "%s:\n", title)
		for _, d := range defs {
			if d.name == "parallel.scaling" && values[d.name] == 0 {
				fmt.Fprintf(w, "  %-36s %14s\n", d.name, "unresolved")
				continue
			}
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, values[d.name], d.unit)
		}
	}
	_, e2e := reported(rep, false)
	printMetrics("end-to-end", endToEnd, e2e)
	if o.trace {
		printMetrics("per-layer", perLayer, rep.layer)
		fmt.Fprintf(w, "spans: %s\n", rep.spanFile)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}

	defs, values := reported(rep, o.trace)
	res := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
