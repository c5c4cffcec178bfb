package ctl

// report_test.go covers the HTML rendering, the snapshot's no-traffic
// explanations, and the HTTP mirror; the schema shared with scenario
// runs is pinned in scenario_test.go. The snapshot benchmark backs
// bench.sh's snapshot-under-load entry.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serving"
)

func TestReportHTML(t *testing.T) {
	p := newPlane(t)
	if _, err := p.RunScript("@30ms cordon npu1\n@50ms list\n@80ms quit\n"); err != nil {
		t.Fatalf("RunScript: %v", err)
	}
	page, err := p.Report().HTML()
	if err != nil {
		t.Fatalf("HTML: %v", err)
	}
	html := string(page)
	for _, want := range []string{
		"<!doctype html", "control-plane", "Fleet timeline",
		"Command log", "cordon npu1", "requests",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML page missing %q", want)
		}
	}
	if strings.Contains(html, "Assertions") {
		t.Errorf("premactl page rendered an assertions section")
	}
	// Byte-identical across renders: the page is a pure function of the
	// report.
	again, err := p.Report().HTML()
	if err != nil {
		t.Fatalf("HTML again: %v", err)
	}
	if html != string(again) {
		t.Errorf("HTML rendering is not deterministic")
	}

	if strings.Contains(html, `class="badge`) {
		t.Errorf("premactl page rendered a verdict badge")
	}

	// A scenario-sourced report renders its verdict, failing or not.
	for _, passed := range []bool{true, false} {
		page, err = (&RunReport{Name: "s", Source: "scenario", Passed: passed}).HTML()
		if err != nil {
			t.Fatalf("scenario HTML: %v", err)
		}
		want := `class="badge fail">FAIL`
		if passed {
			want = `class="badge pass">PASS`
		}
		if !strings.Contains(string(page), want) {
			t.Errorf("scenario page (passed=%v) missing %q", passed, want)
		}
	}
}

func TestSnapshotBeforeTraffic(t *testing.T) {
	p, err := New(newServer(t), Config{
		Node: serving.NodeConfig{
			NPUs: 1, Routing: cluster.LeastWork,
			Session: serving.SessionConfig{Policy: "FCFS"},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	s := p.Snapshot()
	if s.StatsNote == "" {
		t.Errorf("idle snapshot carries no stats note")
	}
	if s.TickWindow != 0 {
		t.Errorf("idle snapshot claims %d tick samples", s.TickWindow)
	}
	out := s.Render()
	if !strings.Contains(out, "no traffic yet") {
		t.Errorf("idle snapshot render: %q", out)
	}
	r := p.Report()
	if r.StatsNote == "" {
		t.Errorf("idle report carries no stats note")
	}
}

func TestHTTPHandler(t *testing.T) {
	p := newPlane(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/cmd?q=step+5ms"); code != http.StatusOK || !strings.Contains(body, "t=5.00ms") {
		t.Errorf("/cmd step: %d %q", code, body)
	}
	if code, body := get("/snapshot"); code != http.StatusOK || !strings.Contains(body, `"fleet"`) {
		t.Errorf("/snapshot: %d %q", code, body)
	}
	if code, body := get("/report"); code != http.StatusOK || !strings.Contains(body, `"source": "premactl"`) {
		t.Errorf("/report: %d %q", code, body)
	}
	if code, body := get("/cmd?q=frobnicate"); code != http.StatusUnprocessableEntity || !strings.Contains(body, "unknown command") {
		t.Errorf("/cmd bad: %d %q", code, body)
	}
	if code, _ := get("/cmd"); code != http.StatusBadRequest {
		t.Errorf("/cmd without q: %d", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "premactl") {
		t.Errorf("index: %d %q", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: %d", code)
	}
}

// BenchmarkPlaneSnapshotUnderLoad measures a snapshot taken against a
// fleet mid-stream — the interactive hot path bench.sh tracks.
func BenchmarkPlaneSnapshotUnderLoad(b *testing.B) {
	p := newPlane(b)
	if _, err := p.Exec("step 40ms"); err != nil {
		b.Fatalf("step: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := p.Snapshot()
		if len(s.Fleet) == 0 {
			b.Fatal("empty fleet")
		}
	}
}
