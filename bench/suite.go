package main

// suite.go runs every workload several times, each run in a fresh child
// process, summarizes the runs, and compares two such summaries.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"repro/internal/stats"
)

// config is the part of BENCHMARK.json this command reads.
type config struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readConfig(path string) (*config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// series is one (workload, metric) pair's value in every run.
type series struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// document is the JSON summary of every run, the last line an
// orchestrated invocation prints.
type document struct {
	Seed      uint64                        `json:"seed"`
	Seconds   int                           `json:"seconds"`
	Reps      int                           `json:"reps"`
	Trace     int                           `json:"trace"`
	Failed    int                           `json:"failed_runs"`
	Workloads map[string]map[string]*series `json:"workloads"`
}

// orchestrate runs every workload reps times, one run at a time, each in
// a fresh child process of this binary, and prints each (workload,
// metric) median with the runs' min and max, then the JSON document. It
// answers the exit status: non-zero when any run failed. The runs take
// the workloads in turn, so a stretch of contention on a shared host
// slows a few runs of each workload rather than every run of one.
func orchestrate(seed uint64, seconds, reps, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	doc := document{Seed: seed, Seconds: seconds, Reps: reps, Trace: trace,
		Workloads: map[string]map[string]*series{}}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	for _, w := range workloads {
		doc.Workloads[w.name] = map[string]*series{}
	}
	for rep := 0; rep < reps; rep++ {
		for _, w := range workloads {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			for _, line := range bytes.Split(out, []byte("\n")) {
				if bytes.HasPrefix(line, []byte(w.name+" digest ")) {
					fmt.Fprintf(stdout, "%s (run %d)\n", line, rep)
				}
			}
			if err != nil || perr != nil || !res.Correct {
				doc.Failed++
				fmt.Fprintf(stderr, "bench: %s run %d failed (%v, %v)\n", w.name, rep, err, perr)
				continue
			}
			for name, m := range res.Metrics {
				s := doc.Workloads[w.name][name]
				if s == nil {
					s = &series{Unit: m.Unit}
					doc.Workloads[w.name][name] = s
				}
				s.Samples = append(s.Samples, m.Value)
			}
		}
	}
	for _, w := range workloads {
		for _, def := range defs {
			s := doc.Workloads[w.name][def.name]
			if s == nil {
				continue
			}
			s.Median = stats.Percentile(s.Samples, 50)
			s.Min, s.Max = stats.Min(s.Samples), stats.Max(s.Samples)
			fmt.Fprintf(stdout, "%s %s %v %s (min %v, max %v, %d runs)\n",
				w.name, def.name, s.Median, s.Unit, s.Min, s.Max, len(s.Samples))
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if doc.Failed > 0 {
		return 1
	}
	return 0
}

// unmarshalLastLine parses the JSON object on the last non-empty line of
// out into v: a run prints its result, and an orchestrated
// invocation its summary, last.
func unmarshalLastLine(out []byte, v any) error {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return json.Unmarshal(lines[len(lines)-1], v)
}

// lastResult parses a run's result line.
func lastResult(out []byte) (result, error) {
	var res result
	if err := unmarshalLastLine(out, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// readDocument reads a saved orchestrated invocation's output, or just
// its summary line.
func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := unmarshalLastLine(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: no summary on the last line: %w", path, err)
	}
	return &doc, nil
}

// quartiles answers the first, second and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// minPairs is how many run pairs the pair rule needs before it judges.
const minPairs = 10

// verdict judges b against a for one metric. b improved when there are
// at least minPairs run pairs, b wins at least nine tenths of them (ties
// count for neither side) and the medians differ by more than a's
// interquartile distance. Otherwise, when either side's spread is wider
// than the bound, the metric is unresolved, unless every run of b reads
// better than every run of a. Otherwise b is worse when its median is
// worse than a's by more than the bound. A metric without a bound (a
// per-layer one) is worse by the mirror of the improved rule, and
// unresolved with too few pairs.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	n := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	qa, qb := quartiles(a), quartiles(b)
	ma, mb := qa[1], qb[1]
	iqrA := qa[2] - qa[0]
	enough := n >= minPairs
	if enough && wins*10 >= 9*n && math.Abs(mb-ma) > iqrA && better(mb, ma) {
		return "improved"
	}
	if bound == 0 {
		switch {
		case !enough:
			return "unresolved"
		case losses*10 >= 9*n && math.Abs(mb-ma) > iqrA:
			return "worse"
		}
		return "unchanged"
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	if spread(qa) > bound || spread(qb) > bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return "unresolved"
				}
			}
		}
		return "unchanged"
	}
	worse := (mb - ma) / math.Abs(ma)
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	return "unchanged"
}

// compare prints one row per (workload, metric) the two documents share:
// each side's median and quartiles, and the verdict.
func compare(cfg *config, a, b *document, w io.Writer) {
	type rule struct {
		higher bool
		bound  float64
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range cfg.EndToEnd {
		rules[m.Name] = rule{m.Better == "higher", m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range cfg.PerLayer {
		rules[m.Name] = rule{m.Better == "higher", 0}
		order = append(order, m.Name)
	}
	fmt.Fprintf(w, "%-14s %-26s %-34s %-34s %s\n", "workload", "metric", "a median [q1 q3]", "b median [q1 q3]", "verdict")
	for _, wl := range cfg.Workloads {
		for _, name := range order {
			sa, sb := a.Workloads[wl.Name][name], b.Workloads[wl.Name][name]
			if sa == nil || sb == nil || len(sa.Samples) == 0 || len(sb.Samples) == 0 {
				continue
			}
			qa, qb := quartiles(sa.Samples), quartiles(sb.Samples)
			rl := rules[name]
			fmt.Fprintf(w, "%-14s %-26s %-34s %-34s %s\n", wl.Name, name,
				fmt.Sprintf("%.4g [%.4g %.4g] %s", qa[1], qa[0], qa[2], sa.Unit),
				fmt.Sprintf("%.4g [%.4g %.4g] %s", qb[1], qb[0], qb[2], sb.Unit),
				verdict(sa.Samples, sb.Samples, rl.higher, rl.bound))
		}
	}
}
