package dnn

import (
	"testing"
)

func TestGraphBasics(t *testing.T) {
	layers := []Layer{
		NewFC("a", 4, 4, false),
		NewFC("b", 4, 4, false),
		NewFC("c", 4, 4, false),
	}
	g := NewGraph(layers)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self edge should be rejected")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Error("out-of-range edge should be rejected")
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Errorf("topo order %v", order)
	}
	if src := g.Sources(); len(src) != 1 || src[0] != 0 {
		t.Errorf("sources %v", src)
	}
	if snk := g.Sinks(); len(snk) != 1 || snk[0] != 2 {
		t.Errorf("sinks %v", snk)
	}
}

func TestGraphDetectsCycle(t *testing.T) {
	layers := []Layer{NewFC("a", 4, 4, false), NewFC("b", 4, 4, false)}
	g := NewGraph(layers)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 0)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle should be detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("validate should reject a cycle")
	}
}

func TestBuildGraphZooModels(t *testing.T) {
	for _, m := range All() {
		g, err := BuildGraph(m)
		if m.IsRNN() {
			if err == nil {
				t.Errorf("%s: an RNN has no static graph", m.Name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(g.Nodes) != len(m.Static) {
			t.Errorf("%s: node count mismatch", m.Name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		// Every zoo model's layer list must itself be a valid
		// topological order: no edge may point backwards.
		for from, outs := range g.Edges {
			for _, to := range outs {
				if to <= from {
					t.Errorf("%s: edge %d->%d points backwards", m.Name, from, to)
				}
			}
		}
	}
}

func TestGoogLeNetInceptionBranchesParallel(t *testing.T) {
	m := GoogLeNet()
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	// Find module 3a's four branch heads; they must share a producer
	// (pool2) and have no edges among different branches.
	idx := map[string]int{}
	for i, l := range m.Static {
		idx[l.Name] = i
	}
	heads := []int{idx["3a/1x1"], idx["3a/3x3r"], idx["3a/5x5r"], idx["3a/pool"]}
	in := g.InDegrees()
	for _, h := range heads {
		if in[h] != 1 {
			t.Errorf("branch head %s has in-degree %d, want 1", m.Static[h].Name, in[h])
		}
	}
	// The reduce layers feed their spatial layers.
	found := false
	for _, to := range g.Edges[idx["3a/3x3r"]] {
		if to == idx["3a/3x3"] {
			found = true
		}
	}
	if !found {
		t.Error("3a/3x3r should feed 3a/3x3")
	}
	// Critical path must be shorter than the serial sum: the branches
	// are parallel.
	weight := func(l Layer) int64 { return l.MACs(1) }
	cp, err := g.CriticalPathCycles(weight)
	if err != nil {
		t.Fatal(err)
	}
	var serial int64
	for _, l := range m.Static {
		serial += l.MACs(1)
	}
	if cp >= serial {
		t.Errorf("critical path %d should be below serial sum %d for a branched DAG", cp, serial)
	}
}

func TestResNetShortcutParallel(t *testing.T) {
	m := ResNet50()
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, l := range m.Static {
		idx[l.Name] = i
	}
	// res2.0's projection shortcut must run parallel to its main path:
	// same producer as 1x1a, and not downstream of 3x3.
	proj := idx["res2.0/proj"]
	a := idx["res2.0/1x1a"]
	in := g.InDegrees()
	if in[proj] != in[a] {
		t.Errorf("projection in-degree %d differs from main path %d", in[proj], in[a])
	}
	for _, to := range g.Edges[idx["res2.0/3x3"]] {
		if to == proj {
			t.Error("projection must not depend on the main path")
		}
	}
}

func TestLinearChainCriticalPathEqualsSerial(t *testing.T) {
	m := VGG16()
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	weight := func(l Layer) int64 { return l.MACs(1) }
	cp, err := g.CriticalPathCycles(weight)
	if err != nil {
		t.Fatal(err)
	}
	var serial int64
	for _, l := range m.Static {
		serial += l.MACs(1)
	}
	if cp != serial {
		t.Errorf("VGG is a chain: critical path %d should equal serial %d", cp, serial)
	}
}
