// shasta-trace summarizes a structured event trace (JSONL) written by
// shasta-run/shasta-bench's -trace flag: the Figure 4/5-style execution-time
// breakdown, a message histogram with service delays, network traffic, the
// directory's migratory-sharing events, Tardis's lease growth, and
// scheduler activity. It exits 1 if an inval-ack answers no inval-req
// (analyze.Summary.CheckInvalAcks), or if a downgrade record a handler left
// open for node-mates was never finished (CheckDowngrades).
//
// Usage:
//
//	shasta-run -app Barnes -trace run.jsonl
//	shasta-trace run.jsonl
package main

import (
	"fmt"
	"os"

	"repro/internal/trace/analyze"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: shasta-trace <trace.jsonl>")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	sum, err := analyze.Read(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(sum.Render())
	failed := false
	for _, err := range []error{sum.CheckInvalAcks(), sum.CheckDowngrades()} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
