// Command bench is the repository's benchmark. It measures what
// running the simulator costs the host — set-up time and the heap each
// operation allocates and each workload retains, and with -trace 1
// operation latency, CPU time, peak memory and per-layer numbers from
// spans around the benchmark's calls into each layer — on four
// workloads, and checks every run's output. README.md holds the workload
// and metric tables.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload hetero-chaos --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1 > a.txt      # every workload, -reps runs each
//	bash bench/run.sh -compare a.txt b.txt
//
// With -workload it measures one workload in this process and prints
// "<workload> <metric> <value> <unit>" lines, the output digest line,
// and as its last line one JSON object {correct, attempted, failed,
// metrics}. Without it, it runs every workload -reps times, one run at a
// time, each in a fresh child process, prints each metric's median with
// the min and max, and as its last line the JSON summary -compare reads.
// The exit status is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "measure one workload in this process (default: every workload, -reps runs each)")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 5, "how long one run measures, 1 to 60")
	trace := fs.Int("trace", 0, "1 traces the run and reports per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -workload and -trace 1, write the spans as JSON Lines to this file")
	reps := fs.Int("reps", 3, "runs per workload without -workload")
	cmp := fs.Bool("compare", false, "compare two saved outputs of this command: -compare a.txt b.txt")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	case *seconds < 1 || *seconds > 60:
		fmt.Fprintln(stderr, "bench: -seconds must be 1 to 60")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	case *spans != "" && (*name == "" || *trace != 1):
		fmt.Fprintln(stderr, "bench: -spans needs -workload and -trace 1")
		return 2
	case *name == "":
		if *reps < 1 {
			fmt.Fprintln(stderr, "bench: -reps must be at least 1")
			return 2
		}
		return orchestrate(*seed, *seconds, *reps, *trace, stdout, stderr)
	}

	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	o := measure(w, *seed, fullSize, time.Duration(*seconds)*time.Second, *trace == 1)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	o.print(stdout, w.name, defs)
	if o.err != nil {
		fmt.Fprintln(stderr, "bench:", o.err)
	}
	if *spans != "" && o.tr != nil {
		if err := writeSpans(*spans, o.tr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printResult(stdout, o.res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !o.res.Correct {
		return 1
	}
	return 0
}

func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// printResult prints the run's result as one JSON line.
func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// compareFiles compares two saved orchestrated outputs under the
// metric directions and bounds in BENCHMARK.json.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	cfg, err := readConfig("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var docs [2]*document
	for i, path := range []string{pathA, pathB} {
		if docs[i], err = readDocument(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	compare(cfg, docs[0], docs[1], stdout)
	return 0
}
