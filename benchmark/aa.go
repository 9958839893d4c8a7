package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// runAA runs every workload n times in each of two interleaved sets
// (A B A B ...) of the same code, every run with a seed of its own, and
// compares the sets the way the acceptance pipeline does: each metric's
// spread (interquartile range over median) within a set, and how much
// worse set B's median is than set A's, both against the metric's bound.
// It writes a Markdown report and returns false on any breach.
func runAA(w io.Writer, n int, seconds float64) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	// values[workload][set][metric] holds one value per run.
	values := map[string][2]map[string][]float64{}
	for _, wl := range workloadNames {
		values[wl] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, wl := range workloadNames {
				seed := 1000*(set+1) + i
				res, err := runChild(exe, wl, seed, seconds)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", wl, seed, err)
				}
				if !res.Correct {
					return false, fmt.Errorf("%s seed %d: %d of %d operations failed", wl, seed, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					values[wl][set][name] = append(values[wl][set][name], m.Value)
				}
			}
		}
	}

	fmt.Fprintf(w, "# A/A: two interleaved sets of %d runs of the same code\n\n", n)
	fmt.Fprintf(w, "`--seconds %g`, `--trace 0`, seeds 1000.. (set A) and 2000.. (set B); host: nproc %d, %s %s/%s.\n",
		seconds, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "Spread is (q3 - q1) / median with Python's `statistics.quantiles(values, n=4)`; ")
	fmt.Fprintf(w, "worse is how far B's median is on the wrong side of A's. `setup_s` is gated on worse only.\n")
	ok := true
	for _, wl := range workloadNames {
		fmt.Fprintf(w, "\n## %s\n\n", wl)
		fmt.Fprintf(w, "| metric | median A | median B | spread A | spread B | worse | bound | verdict |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
		for _, d := range endToEnd {
			a, b := values[wl][0][d.name], values[wl][1][d.name]
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case d.exact && !(allEqual(a) && allEqual(b)):
				verdict = "BREACH: simulated metric moved"
			case worse > d.bound:
				verdict = "BREACH: median"
			case d.name != "setup_s" && (spreadA > d.bound || spreadB > d.bound):
				verdict = "BREACH: spread"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Fprintf(w, "| %s | %.6g | %.6g | %.2f%% | %.2f%% | %+.2f%% | %g%% | %s |\n",
				d.name, ma, mb, 100*spreadA, 100*spreadB, 100*worse, 100*d.bound, verdict)
		}
		fmt.Fprintf(w, "\nValues, in run order:\n\n")
		for _, d := range endToEnd {
			a, b := values[wl][0][d.name], values[wl][1][d.name]
			if !(allEqual(a) && allEqual(b)) {
				fmt.Fprintf(w, "- `%s` A %.5g; B %.5g\n", d.name, a, b)
			}
		}
	}
	return ok, nil
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// runChild runs one workload in a process of its own, as the acceptance
// pipeline does, and parses the last line of its output.
func runChild(exe, workload string, seed int, seconds float64) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}
