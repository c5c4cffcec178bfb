package main

// cli.go is premasim's flag surface, extracted into a testable
// parseCLI: every flag parses into one cli struct and every
// misconfigured combination fails eagerly with a targeted error instead
// of being silently ignored (cli_test.go locks the matrix in).

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	prema "repro"
)

// cli holds the parsed command line.
type cli struct {
	policy       string
	preemptive   bool
	mechanism    string
	tasks        int
	seed         int
	windowMS     int
	batch        int
	oracle       bool
	timeline     bool
	quantum      time.Duration
	npus         int
	routing      string
	parallel     int
	clients      int
	think        time.Duration
	serveHorizon time.Duration
	autoscale    string
	slo          time.Duration
	minNPUs      int
	maxNPUs      int
	fleet        string
	scenario     string
	reportJSON   string
	reportHTML   string
	traceJSONL   string

	// set records which flags the user passed explicitly; defaults
	// never trigger the combination checks.
	set map[string]bool
}

// parseCLI parses and validates the command line. It returns flag.ErrHelp
// unwrapped so main can exit 0 on -h.
func parseCLI(args []string) (*cli, error) {
	c := &cli{}
	fs := flag.NewFlagSet("premasim", flag.ContinueOnError)
	fs.StringVar(&c.policy, "policy", "PREMA",
		"scheduling policy: "+strings.Join(prema.Policies(), "|"))
	fs.BoolVar(&c.preemptive, "preemptive", false, "enable the preemptible-NPU path")
	fs.StringVar(&c.mechanism, "mechanism", "dynamic",
		"preemption mechanism selector: "+strings.Join(prema.Mechanisms(), "|"))
	fs.IntVar(&c.tasks, "tasks", 8, "number of co-scheduled inference tasks")
	fs.IntVar(&c.seed, "seed", 1, "workload seed (run index)")
	fs.IntVar(&c.windowMS, "window", 20, "arrival window in milliseconds")
	fs.IntVar(&c.batch, "batch", 0, "fix all batch sizes (0 = mixed 1/4/16)")
	fs.BoolVar(&c.oracle, "oracle", false, "use exact execution times as estimates")
	fs.BoolVar(&c.timeline, "timeline", true, "render the ASCII occupancy timeline")
	fs.DurationVar(&c.quantum, "quantum", 250*time.Microsecond, "scheduling period time-quota")
	fs.IntVar(&c.npus, "npus", 1, "NPUs in the node (>1 enables the cluster router)")
	fs.StringVar(&c.routing, "routing", "least-work",
		"cluster routing policy: round-robin|least-queued|least-work")
	fs.IntVar(&c.parallel, "parallel", 0,
		"concurrent per-NPU simulations in the cluster path (0 = GOMAXPROCS, 1 = sequential; results identical)")
	fs.IntVar(&c.clients, "clients", 0,
		"closed-loop client population (>0 switches to the streaming node session: each client keeps one request in flight)")
	fs.DurationVar(&c.think, "think", 2*time.Millisecond,
		"mean exponential think time between a completion and the same client's next request")
	fs.DurationVar(&c.serveHorizon, "serve-horizon", 250*time.Millisecond,
		"streaming horizon: closed-loop release window, or the full autoscale load ramp")
	fs.StringVar(&c.autoscale, "autoscale", "",
		"autoscaling policy (switches to an elastic node session under a load ramp): "+
			strings.Join(prema.Scalers(), "|"))
	fs.DurationVar(&c.slo, "slo", 8*time.Millisecond,
		"P95 latency SLO the autoscaler targets")
	fs.IntVar(&c.minNPUs, "min-npus", 1, "autoscaling fleet minimum")
	fs.IntVar(&c.maxNPUs, "max-npus", 4, "autoscaling fleet maximum")
	fs.StringVar(&c.fleet, "fleet", "",
		"weighted hardware-tier template for streaming runs, e.g. 70%:fast,30%:slow (builtin tiers fast|slow, custom name@factor)")
	fs.StringVar(&c.scenario, "scenario", "",
		"declarative chaos scenario file to execute (see scenarios/); conflicts with every other flag")
	fs.StringVar(&c.reportJSON, "report-json", "",
		"write the scenario's run report (the schema premactl exports) as JSON to this file; requires -scenario")
	fs.StringVar(&c.reportHTML, "report-html", "",
		"write the scenario's run report as a self-contained HTML page to this file; requires -scenario")
	fs.StringVar(&c.traceJSONL, "trace-jsonl", "",
		"run the scenario with telemetry attached and write the per-request trace plus tick metrics as JSONL to this file; requires -scenario")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate rejects misconfigured flag combinations eagerly.
func (c *cli) validate() error {
	if c.set["scenario"] {
		// A scenario file declares the whole run — fleet, scheduler,
		// load, seed — so every other flag would be silently ignored.
		// The report exporters are outputs, not run parameters, so they
		// compose with -scenario.
		names := make([]string, 0, len(c.set))
		for name := range c.set {
			if name != "scenario" && name != "report-json" && name != "report-html" && name != "trace-jsonl" {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if len(names) > 0 {
			return fmt.Errorf("-%s conflicts with -scenario: the scenario file declares the whole run", names[0])
		}
		if c.scenario == "" {
			return fmt.Errorf("-scenario needs a file path")
		}
		return nil
	}
	if c.set["report-json"] || c.set["report-html"] {
		return fmt.Errorf("-report-json/-report-html export a scenario's run report: add -scenario <file>")
	}
	if c.set["trace-jsonl"] {
		return fmt.Errorf("-trace-jsonl exports a scenario's telemetry: add -scenario <file>")
	}
	if c.set["routing"] && c.npus == 1 && c.clients == 0 && c.autoscale == "" {
		return fmt.Errorf("-routing needs a multi-NPU node: combine it with -npus > 1, -clients or -autoscale")
	}
	if c.clients > 0 && c.serveHorizon <= 0 {
		return fmt.Errorf("-clients %d needs a positive -serve-horizon (got %v): no request could ever be released",
			c.clients, c.serveHorizon)
	}
	if c.autoscale != "" && c.clients > 0 {
		return fmt.Errorf("-autoscale and -clients are mutually exclusive: closed-loop clients pin to their NPU, autoscaling requires routed traffic")
	}
	if c.autoscale != "" && c.serveHorizon <= 0 {
		return fmt.Errorf("-autoscale needs a positive -serve-horizon (got %v) to spread the load ramp over", c.serveHorizon)
	}
	if c.autoscale == "" && (c.set["slo"] || c.set["min-npus"] || c.set["max-npus"]) {
		return fmt.Errorf("-slo/-min-npus/-max-npus only apply to autoscaling runs: add -autoscale <scaler> (known: %s)",
			strings.Join(prema.Scalers(), "|"))
	}
	if c.autoscale != "" || c.clients > 0 {
		for _, name := range []string{"tasks", "window", "batch", "oracle", "parallel", "timeline"} {
			if c.set[name] {
				return fmt.Errorf("-%s only applies to batch simulation runs; it has no effect with -autoscale/-clients", name)
			}
		}
	}
	if c.autoscale != "" && c.set["think"] {
		return fmt.Errorf("-think only applies to closed-loop runs (-clients)")
	}
	if c.fleet != "" && c.autoscale == "" && c.clients == 0 {
		return fmt.Errorf("-fleet declares hardware tiers for the streaming node session: combine it with -autoscale or -clients")
	}
	return nil
}
