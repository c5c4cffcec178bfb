package ctl

// command.go is the operator vocabulary: one-line commands executed at
// a virtual instant, serialized into the clock loop under the plane
// mutex and recorded (with their output) on the command log that the
// run report exports. Every command is deterministic given its virtual
// timestamp — the REPL, scripts and the HTTP mirror all funnel through
// the same execution path.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/serving"
)

// CommandRecord is one executed command on the run's log.
type CommandRecord struct {
	// AtMS is the virtual instant the command executed at.
	AtMS float64 `json:"at_ms"`
	// Cmd is the command line as given.
	Cmd string `json:"cmd"`
	// Output is the command's rendered output (empty for errors).
	Output string `json:"output,omitempty"`
	// Err is the error text when the command was refused.
	Err string `json:"error,omitempty"`
}

// helpText lists the command vocabulary; kept sorted by verb.
const helpText = `commands:
  list                 per-NPU state: active/draining/cordoned/failed, in-flight, backlog
  get npu<i>           one backend's detail view
  cordon npu<i>        take a backend out of rotation (reversible, no scale credit)
  uncordon npu<i>      return a cordoned backend to rotation
  drain npu<i>         voluntarily retire a backend; its routed work completes
  fail npu<i>          involuntary loss; in-flight work is reclaimed and re-routed
  slow npu<i> x<f>     degrade a backend to f x nominal service time
  restore npu<i>       return a slowed backend to nominal speed
  scale <n>            set the active fleet to n backends
  load <x>             offered load per NPU-capacity, from the next segment boundary
  snapshot             point-in-time metrics: fleet, tick-window P50/P95/P99, SLO, timeline tail
  trace                per-request trace summary and worst requests (needs -trace)
  metrics              recent autoscale-tick metric samples (needs -trace)
  report               the run report so far (JSON/HTML exportable at exit)
  step [dur]           advance the virtual clock (default one step)
  pause | resume       stop or restart paced advancement
  time                 the virtual clock
  quit                 seal the stream, build the final report and exit`

// Exec executes one command line at the current virtual instant — the
// interactive and HTTP entry point. The command and its outcome are
// recorded on the run log.
func (p *Plane) Exec(line string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.execLocked(p.now, line)
}

// execLocked parses and runs one command at virtual cycle at, recording
// it. Callers hold the mutex and have advanced the clock to just before
// at (script mode) or exactly at (interactive mode).
func (p *Plane) execLocked(at int64, line string) (string, error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return "", nil
	}
	out, err := p.dispatch(at, line)
	rec := CommandRecord{AtMS: p.millis(at), Cmd: line, Output: out}
	if err != nil {
		rec.Err = err.Error()
	}
	p.commands = append(p.commands, rec)
	return out, err
}

// dispatch routes one parsed command.
func (p *Plane) dispatch(at int64, line string) (string, error) {
	if p.quit {
		return "", errClosed
	}
	fields := strings.Fields(line)
	verb, args := fields[0], fields[1:]
	switch verb {
	case "help":
		return helpText, nil
	case "time":
		state := "running"
		if p.paused {
			state = "paused"
		}
		return fmt.Sprintf("t=%.2fms (%s, load %g)", p.millis(at), state, p.load), nil
	case "list":
		return p.renderFleet(), nil
	case "get":
		i, err := oneNPUArg(args)
		if err != nil {
			return "", err
		}
		return p.renderBackend(i)
	case "cordon", "uncordon", "fail", "restore":
		i, err := oneNPUArg(args)
		if err != nil {
			return "", err
		}
		kind := map[string]serving.OpKind{
			"cordon": serving.CordonNPU, "uncordon": serving.UncordonNPU,
			"fail": serving.FailNPU, "restore": serving.RestoreNPU,
		}[verb]
		if err := p.ns.ScheduleCycle(at, serving.NodeOp{Kind: kind, NPU: i}); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s npu%d scheduled at %.2fms", verb, i, p.millis(at)), nil
	case "slow":
		if len(args) != 2 || !strings.HasPrefix(args[1], "x") {
			return "", fmt.Errorf("usage: slow npu<i> x<factor>")
		}
		i, err := npuArg(args[0])
		if err != nil {
			return "", err
		}
		factor, err := strconv.ParseFloat(strings.TrimPrefix(args[1], "x"), 64)
		if err != nil {
			return "", fmt.Errorf("bad slow factor %q: %v", args[1], err)
		}
		op := serving.NodeOp{Kind: serving.SlowNPU, NPU: i, Factor: factor}
		if err := p.ns.ScheduleCycle(at, op); err != nil {
			return "", err
		}
		return fmt.Sprintf("slow npu%d x%g scheduled at %.2fms", i, factor, p.millis(at)), nil
	case "drain":
		i, err := oneNPUArg(args)
		if err != nil {
			return "", err
		}
		if err := p.ns.RetireBackend(i); err != nil {
			return "", err
		}
		return fmt.Sprintf("npu%d draining; routed work completes, nothing new lands", i), nil
	case "scale":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: scale <n>")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return "", fmt.Errorf("bad fleet size %q: %v", args[0], err)
		}
		if err := p.ns.ScaleTo(n); err != nil {
			return "", err
		}
		return fmt.Sprintf("fleet scaled to %d active", n), nil
	case "load":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: load <x>")
		}
		x, err := strconv.ParseFloat(args[0], 64)
		if err != nil || !validLoad(x) {
			return "", fmt.Errorf("bad offered load %q", args[0])
		}
		p.load = x
		return fmt.Sprintf("offered load %g from the next segment boundary", x), nil
	case "snapshot":
		return p.snapshotLocked(at).Render(), nil
	case "trace":
		return p.renderTrace()
	case "metrics":
		return p.renderMetrics()
	case "report":
		return p.buildReport().Compact(), nil
	case "step":
		d := p.cfg.Step
		if len(args) == 1 {
			var err error
			if d, err = time.ParseDuration(args[0]); err != nil || d <= 0 {
				return "", fmt.Errorf("bad step duration %q", args[0])
			}
		} else if len(args) > 1 {
			return "", fmt.Errorf("usage: step [duration]")
		}
		if err := p.advanceClockTo(p.now + p.cycles(d)); err != nil {
			return "", err
		}
		return fmt.Sprintf("t=%.2fms", p.millis(p.now)), nil
	case "pause":
		p.paused = true
		return "paused", nil
	case "resume":
		p.paused = false
		return "resumed", nil
	case "quit":
		if err := p.finish(at); err != nil {
			return "", err
		}
		return fmt.Sprintf("sealed at %.2fms: %d requests", p.millis(p.now), p.offered), nil
	default:
		return "", fmt.Errorf("unknown command %q (try help)", verb)
	}
}

// oneNPUArg parses the single npu<i> argument form.
func oneNPUArg(args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("expected one npu<i> argument")
	}
	return npuArg(args[0])
}

// npuArg parses "npu<i>".
func npuArg(s string) (int, error) {
	rest, ok := strings.CutPrefix(s, "npu")
	if !ok {
		return 0, fmt.Errorf("expected npu<i>, got %q", s)
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i < 0 {
		return 0, fmt.Errorf("bad NPU index %q", s)
	}
	return i, nil
}

// renderFleet is the `list` view.
func (p *Plane) renderFleet() string {
	fleet := p.ns.Fleet()
	// The TIER column only appears on heterogeneous fleets, so
	// homogeneous transcripts stay byte-identical to earlier releases.
	tiered := len(fleet) > 0 && fleet[0].Tier != ""
	var b strings.Builder
	if tiered {
		fmt.Fprintf(&b, "%-6s %-8s %-9s %-6s %-9s %-11s %s\n",
			"NPU", "TIER", "STATE", "SPEED", "IN-FLIGHT", "BACKLOG(ms)", "ROUTED")
	} else {
		fmt.Fprintf(&b, "%-6s %-9s %-6s %-9s %-11s %s\n",
			"NPU", "STATE", "SPEED", "IN-FLIGHT", "BACKLOG(ms)", "ROUTED")
	}
	active := 0
	for _, v := range fleet {
		if v.State == "active" {
			active++
		}
		if tiered {
			fmt.Fprintf(&b, "npu%-3d %-8s %-9s x%-5g %-9d %-11.2f %d\n",
				v.NPU, v.Tier, v.State, v.Speed, v.InFlight, v.BacklogMS, v.Routed)
			continue
		}
		fmt.Fprintf(&b, "npu%-3d %-9s x%-5g %-9d %-11.2f %d\n",
			v.NPU, v.State, v.Speed, v.InFlight, v.BacklogMS, v.Routed)
	}
	fmt.Fprintf(&b, "%d/%d active, %d requests routed", active, len(fleet), p.offered)
	return b.String()
}

// renderBackend is the `get npu<i>` view.
func (p *Plane) renderBackend(i int) (string, error) {
	fleet := p.ns.Fleet()
	if i >= len(fleet) {
		return "", fmt.Errorf("unknown NPU %d (node size %d)", i, len(fleet))
	}
	v := fleet[i]
	var b strings.Builder
	fmt.Fprintf(&b, "npu%d: %s\n", v.NPU, v.State)
	if v.Tier != "" {
		fmt.Fprintf(&b, "  tier       %s\n", v.Tier)
	}
	fmt.Fprintf(&b, "  speed      x%g\n", v.Speed)
	fmt.Fprintf(&b, "  in-flight  %d\n", v.InFlight)
	fmt.Fprintf(&b, "  backlog    %.2fms\n", v.BacklogMS)
	fmt.Fprintf(&b, "  routed     %d", v.Routed)
	return b.String(), nil
}

// Commands returns a copy of the command log so far.
func (p *Plane) Commands() []CommandRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]CommandRecord(nil), p.commands...)
}

// sortedVerbs is used by tests to assert help stays complete.
func sortedVerbs() []string {
	verbs := []string{"help", "time", "list", "get", "cordon", "uncordon",
		"fail", "restore", "slow", "drain", "scale", "load", "snapshot",
		"trace", "metrics", "report", "step", "pause", "resume", "quit"}
	sort.Strings(verbs)
	return verbs
}
