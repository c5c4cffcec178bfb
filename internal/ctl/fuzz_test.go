package ctl

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// FuzzCtlScript: any script text either errors or runs on a small traced
// plane (2–4 NPUs, time-scale 0) without panicking, and runs the same
// way twice — the same transcript, the same error, and an accepted
// script the same report JSON. Scripts that would only cost the fuzzer
// time are skipped: a timestamp past 200 ms, steps adding up to more
// than 200 ms, or a load above 8.
func FuzzCtlScript(f *testing.F) {
	seed, err := os.ReadFile("../../scenarios/cordon-compensate.ctl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(replayScript)
	f.Add("@0ms fail npu0\n@5ms step 10ms\n@20ms slow npu1 x2.5\n@30ms restore npu1\n@35ms trace\n" +
		"@40ms drain npu1\n@50ms scale 3\n@55ms metrics\n@60ms list\n@70ms snapshot\n")
	f.Add("@1ms load 8\n@2ms pause\n@3ms resume\n@4ms help\n@150ms quit\n@160ms time\n")
	f.Add("@0ms scale 4\n@1ms fail npu3\n@2ms drain npu2\n@3ms cordon npu0\n@40ms snapshot\n@45ms get npu3\n@60ms report\n")
	f.Add("@0ms load 0\n@30ms step\n@31ms step 5ms\n@50ms load 0.5\n@90ms uncordon npu0\n@100ms drain npu0\n@110ms fail npu1\n")
	srv := newServer(f)
	f.Fuzz(func(t *testing.T, src string) {
		run := func() (transcript string, report []byte, runErr error, ok bool) {
			p, err := New(srv, Config{
				Node: serving.NodeConfig{
					NPUs:    2,
					Routing: cluster.LeastWork,
					Session: serving.SessionConfig{Policy: "PREMA", Preemptive: true},
					Autoscale: &serving.AutoscaleConfig{
						Scaler: "queue-depth", SLO: 8 * time.Millisecond,
						MinNPUs: 2, MaxNPUs: 4,
					},
					Trace: telemetry.New(),
				},
				Seed:    7,
				Segment: 25 * time.Millisecond,
				Load:    2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			if cmds, err := p.parseScript(src); err != nil || !small(p, cmds) {
				return "", nil, nil, false
			}
			transcript, runErr = p.RunScript(src)
			if report, err = p.Report().JSON(); err != nil {
				t.Fatal(err)
			}
			return transcript, report, runErr, true
		}
		t1, j1, e1, ok := run()
		if !ok {
			return
		}
		t2, j2, e2, _ := run()
		if t1 != t2 || errText(e1) != errText(e2) {
			t.Fatalf("replays of\n%s\ndiverge:\n--- first (%v)\n%s\n--- second (%v)\n%s", src, e1, t1, e2, t2)
		}
		if e1 == nil && !bytes.Equal(j1, j2) {
			t.Fatalf("replays of\n%s\nreport differently:\n--- first\n%s\n--- second\n%s", src, j1, j2)
		}
	})
}

// small reports whether a parsed script stays within the fuzzer's
// budget: every timestamp and the sum of its steps within 200 ms, and
// every load at most 8.
func small(p *Plane, cmds []scriptCommand) bool {
	const budget = 200 * time.Millisecond
	var stepped time.Duration
	for _, c := range cmds {
		if c.at > p.cycles(budget) {
			return false
		}
		fields := strings.Fields(c.line)
		switch fields[0] {
		case "load":
			if len(fields) == 2 {
				if x, err := strconv.ParseFloat(fields[1], 64); err == nil && x > 8 {
					return false
				}
			}
		case "step":
			d := p.cfg.Step
			if len(fields) == 2 {
				var err error
				if d, err = time.ParseDuration(fields[1]); err != nil {
					continue
				}
			}
			if d > budget-stepped {
				return false
			}
			stepped += d
		}
	}
	return true
}

// errText is err's message, empty for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
