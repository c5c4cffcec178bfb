package main

import (
	"strings"
	"testing"
)

// TestParseCLIMatrix locks in the flag-combination rules: which
// command lines parse, which fail eagerly, and with what message.
func TestParseCLIMatrix(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error; "" means must succeed
	}{
		{name: "defaults", args: nil},
		{name: "batch run", args: []string{"-policy", "FCFS", "-tasks", "4", "-seed", "2"}},
		{name: "multi-npu", args: []string{"-npus", "3", "-routing", "round-robin"}},
		{name: "closed loop", args: []string{"-clients", "8", "-think", "1ms"}},
		{name: "autoscale", args: []string{"-autoscale", "queue-depth", "-slo", "8ms", "-min-npus", "1", "-max-npus", "6"}},
		{name: "autoscale tiered fleet", args: []string{"-autoscale", "queue-depth", "-fleet", "70%:fast,30%:slow"}},
		{name: "scenario alone", args: []string{"-scenario", "scenarios/single-failure.txt"}},
		{name: "scenario with report exports",
			args: []string{"-scenario", "x.txt", "-report-json", "out.json", "-report-html", "out.html"}},

		{name: "scenario empty path", args: []string{"-scenario", ""},
			wantErr: "-scenario needs a file path"},
		{name: "scenario with policy", args: []string{"-scenario", "x.txt", "-policy", "FCFS"},
			wantErr: "-policy conflicts with -scenario"},
		{name: "scenario with seed", args: []string{"-scenario", "x.txt", "-seed", "3"},
			wantErr: "-seed conflicts with -scenario"},
		{name: "scenario with autoscale", args: []string{"-scenario", "x.txt", "-autoscale", "queue-depth"},
			wantErr: "-autoscale conflicts with -scenario"},
		{name: "scenario with npus", args: []string{"-scenario", "x.txt", "-npus", "2"},
			wantErr: "-npus conflicts with -scenario"},
		{name: "scenario with clients", args: []string{"-scenario", "x.txt", "-clients", "4"},
			wantErr: "-clients conflicts with -scenario"},
		{name: "scenario conflict reports first flag alphabetically",
			args:    []string{"-scenario", "x.txt", "-seed", "3", "-policy", "FCFS"},
			wantErr: "-policy conflicts with -scenario"},

		{name: "report json without scenario", args: []string{"-report-json", "out.json"},
			wantErr: "add -scenario"},
		{name: "report html without scenario", args: []string{"-report-html", "out.html"},
			wantErr: "add -scenario"},

		{name: "routing alone", args: []string{"-routing", "least-queued"},
			wantErr: "-routing needs a multi-NPU node"},
		{name: "slo without autoscale", args: []string{"-slo", "5ms"},
			wantErr: "-slo/-min-npus/-max-npus only apply to autoscaling runs"},
		{name: "min-npus without autoscale", args: []string{"-min-npus", "2"},
			wantErr: "only apply to autoscaling runs"},
		{name: "autoscale with clients", args: []string{"-autoscale", "queue-depth", "-clients", "4"},
			wantErr: "mutually exclusive"},
		{name: "autoscale with tasks", args: []string{"-autoscale", "queue-depth", "-tasks", "4"},
			wantErr: "-tasks only applies to batch simulation runs"},
		{name: "clients with oracle", args: []string{"-clients", "4", "-oracle"},
			wantErr: "-oracle only applies to batch simulation runs"},
		{name: "autoscale with think", args: []string{"-autoscale", "queue-depth", "-think", "1ms"},
			wantErr: "-think only applies to closed-loop runs"},
		{name: "clients with zero horizon", args: []string{"-clients", "4", "-serve-horizon", "0"},
			wantErr: "needs a positive -serve-horizon"},
		{name: "autoscale with zero horizon", args: []string{"-autoscale", "queue-depth", "-serve-horizon", "0"},
			wantErr: "needs a positive -serve-horizon"},
		{name: "fleet without autoscale", args: []string{"-fleet", "70%:fast,30%:slow"},
			wantErr: "combine it with -autoscale"},
		{name: "fleet with clients", args: []string{"-clients", "4", "-fleet", "70%:fast,30%:slow"}},
		{name: "fleet with scenario", args: []string{"-scenario", "x.txt", "-fleet", "70%:fast,30%:slow"},
			wantErr: "-fleet conflicts with -scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseCLI(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseCLI(%v) = %v, want success", tc.args, err)
				}
				if c == nil {
					t.Fatal("nil cli on success")
				}
				return
			}
			if err == nil {
				t.Fatalf("parseCLI(%v) succeeded, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseCLI(%v) = %q, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestParseCLIScenarioPath checks the scenario path lands in the struct.
func TestParseCLIScenarioPath(t *testing.T) {
	c, err := parseCLI([]string{"-scenario", "scenarios/baseline.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if c.scenario != "scenarios/baseline.txt" {
		t.Fatalf("scenario = %q", c.scenario)
	}
}
