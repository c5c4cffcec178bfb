package ctl

// script.go is the non-interactive driver: a command script pins every
// command to a virtual timestamp (`@<time> <command>`), which removes
// the one nondeterministic input an interactive session has — when the
// operator typed. Scripted sessions therefore replay byte-identically
// (transcript and report both) for a fixed seed and script
// (ctl_test.go), and a declarative scenario runs as the script it
// compiles to (internal/scenario). At time-scale 0 a script runs as
// fast as the simulator computes, with no wall-clock dependence — the
// mode CI replays.

import (
	"fmt"
	"strings"
	"time"
)

// scriptCommand is one parsed script line.
type scriptCommand struct {
	at    int64  // virtual cycle
	label string // the original timestamp text, echoed in the transcript
	line  string // the command
}

// parseScript parses the `@<time> <command>` line format. '#' starts a
// comment, blank lines are skipped, and timestamps must be
// nondecreasing — the virtual clock never rewinds.
func (p *Plane) parseScript(src string) ([]scriptCommand, error) {
	var cmds []scriptCommand
	var last int64 = -1
	for n, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "@") {
			return nil, fmt.Errorf("ctl: script line %d: expected \"@<time> <command>\", got %q", n+1, line)
		}
		stamp, rest, ok := strings.Cut(line[1:], " ")
		rest = strings.TrimSpace(rest)
		if !ok || rest == "" {
			return nil, fmt.Errorf("ctl: script line %d: timestamp without a command", n+1)
		}
		d, err := time.ParseDuration(stamp)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("ctl: script line %d: bad timestamp %q", n+1, stamp)
		}
		at := p.cycles(d)
		if at < last {
			return nil, fmt.Errorf("ctl: script line %d: timestamp %s rewinds the clock", n+1, stamp)
		}
		last = at
		cmds = append(cmds, scriptCommand{at: at, label: stamp, line: rest})
	}
	if len(cmds) == 0 {
		return nil, fmt.Errorf("ctl: empty script")
	}
	return cmds, nil
}

// RunScript executes a command script to completion and returns the
// transcript. Each command runs at its virtual timestamp: the clock is
// advanced to just before the instant (so an operation scheduled there
// still fires ahead of any autoscale tick due at the same cycle, as one
// scheduled in advance would), the command executes, and the stream
// catches up on the way to the next command. A script that does not end
// in `quit` is sealed at its last timestamp. With TimeScale > 0 the
// script paces itself against the wall clock; at 0 it runs flat out.
// The first command error aborts the script (and is returned alongside
// the transcript so far).
func (p *Plane) RunScript(src string) (string, error) {
	cmds, err := p.parseScript(src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, c := range cmds {
		p.mu.Lock()
		if p.quit {
			p.mu.Unlock()
			return b.String(), errClosed
		}
		gap := c.at - p.now
		p.mu.Unlock()
		p.sleepVirtual(gap)

		p.mu.Lock()
		if pre := c.at - 1; pre > p.now {
			if err := p.advanceClockTo(pre); err != nil {
				p.err = err
				p.quit = true
				p.mu.Unlock()
				return b.String(), err
			}
		}
		out, err := p.execLocked(c.at, c.line)
		done := p.quit
		p.mu.Unlock()

		fmt.Fprintf(&b, "@%s $ %s\n", c.label, c.line)
		if err != nil {
			fmt.Fprintf(&b, "  error: %v\n", err)
			return b.String(), fmt.Errorf("ctl: script command %q at @%s: %w", c.line, c.label, err)
		}
		for _, line := range strings.Split(out, "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		if done {
			return b.String(), nil
		}
	}
	// No explicit quit: seal at the last command's instant.
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.quit {
		if err := p.finish(cmds[len(cmds)-1].at); err != nil {
			p.err = err
			p.quit = true
			return b.String(), err
		}
	}
	return b.String(), nil
}
