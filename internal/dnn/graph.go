package dnn

import (
	"fmt"
	"sort"
)

// Graph is the compile-time dependency DAG of Section II-A: each node is
// a layer, each edge a producer-consumer activation dependency. The
// benchmark zoo's Static layer lists are valid topological orders of
// their graphs; Graph makes the structure explicit so tooling can verify
// it, render it, and reason about fusion or parallel branches (e.g. the
// four branches of a GoogLeNet inception module, or a ResNet block's
// shortcut).
type Graph struct {
	// Nodes are the layers, indexed by position.
	Nodes []Layer
	// Edges[i] lists the node indices consuming node i's output.
	Edges [][]int
}

// NewGraph builds a graph over the given layers with no edges.
func NewGraph(layers []Layer) *Graph {
	return &Graph{Nodes: layers, Edges: make([][]int, len(layers))}
}

// AddEdge records that node to consumes node from's output.
func (g *Graph) AddEdge(from, to int) error {
	if from < 0 || from >= len(g.Nodes) || to < 0 || to >= len(g.Nodes) {
		return fmt.Errorf("dnn: edge %d->%d outside graph of %d nodes", from, to, len(g.Nodes))
	}
	if from == to {
		return fmt.Errorf("dnn: self edge on node %d", from)
	}
	g.Edges[from] = append(g.Edges[from], to)
	return nil
}

// InDegrees returns each node's dependency count.
func (g *Graph) InDegrees() []int {
	in := make([]int, len(g.Nodes))
	for _, outs := range g.Edges {
		for _, to := range outs {
			in[to]++
		}
	}
	return in
}

// TopoOrder returns a deterministic topological ordering (Kahn's
// algorithm with index tie-breaking), or an error if the graph has a
// cycle — which would make the "DAG extracted at compile time" premise
// false for that model.
func (g *Graph) TopoOrder() ([]int, error) {
	in := g.InDegrees()
	var ready []int
	for i, d := range in {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	var order []int
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		var unlocked []int
		for _, to := range g.Edges[n] {
			in[to]--
			if in[to] == 0 {
				unlocked = append(unlocked, to)
			}
		}
		sort.Ints(unlocked)
		ready = append(ready, unlocked...)
		sort.Ints(ready)
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("dnn: graph has a cycle (%d of %d nodes ordered)",
			len(order), len(g.Nodes))
	}
	return order, nil
}

// Validate checks the DAG property and that every non-source node has at
// least one producer.
func (g *Graph) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Sources returns the nodes with no producers (network inputs).
func (g *Graph) Sources() []int {
	var out []int
	for i, d := range g.InDegrees() {
		if d == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Sinks returns the nodes nothing consumes (network outputs).
func (g *Graph) Sinks() []int {
	var out []int
	for i, outs := range g.Edges {
		if len(outs) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// CriticalPathCycles returns the longest path through the graph when each
// node is weighted by weight(node) — the lower bound on latency a
// spatially parallel accelerator could reach, versus the serial sum a
// single time-shared NPU executes.
func (g *Graph) CriticalPathCycles(weight func(Layer) int64) (int64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	dist := make([]int64, len(g.Nodes))
	var max int64
	for _, n := range order {
		d := dist[n] + weight(g.Nodes[n])
		if d > max {
			max = d
		}
		for _, to := range g.Edges[n] {
			if d > dist[to] {
				dist[to] = d
			}
		}
	}
	return max, nil
}

// BuildGraph derives the dependency DAG for a zoo CNN from its layer
// naming structure: sequential layers chain; GoogLeNet inception branches
// ("<mod>/1x1", "<mod>/3x3r"->"<mod>/3x3", ...) fan out from the previous
// module output and re-converge; ResNet bottleneck blocks
// ("<blk>/1x1a"->"<blk>/3x3"->"<blk>/1x1b" with optional "<blk>/proj")
// branch around the block. An RNN has no static DAG to derive: its
// unrolled chain's length depends on the input (Section V-B).
func BuildGraph(m *Model) (*Graph, error) {
	if m.IsRNN() {
		return nil, fmt.Errorf("dnn: %s is an RNN; its unrolled chain has no static graph", m.Name)
	}
	layers := m.Static
	g := NewGraph(layers)

	// group returns the layer's structural group and role: for
	// "3a/5x5r" the group is "3a" and role "5x5r"; plain layers group
	// as themselves.
	group := func(name string) (string, string) {
		for i := 0; i < len(name); i++ {
			if name[i] == '/' {
				return name[:i], name[i+1:]
			}
		}
		return name, ""
	}

	// Walk the layers; whenever a run of same-group layers appears,
	// wire its internal branch structure; otherwise chain sequentially.
	i := 0
	prevOut := []int{} // node indices whose outputs feed the next group
	link := func(from []int, to int) error {
		for _, f := range from {
			if err := g.AddEdge(f, to); err != nil {
				return err
			}
		}
		return nil
	}
	for i < len(layers) {
		grp, role := group(layers[i].Name)
		if role == "" {
			// Plain sequential layer.
			if err := link(prevOut, i); err != nil {
				return nil, err
			}
			prevOut = []int{i}
			i++
			continue
		}
		// Collect the whole group.
		start := i
		for i < len(layers) {
			gr, _ := group(layers[i].Name)
			if gr != grp {
				break
			}
			i++
		}
		members := map[string]int{}
		for j := start; j < i; j++ {
			_, r := group(layers[j].Name)
			members[r] = j
		}
		var outs []int
		wire := func(first string, rest ...string) error {
			idx, ok := members[first]
			if !ok {
				return nil
			}
			if err := link(prevOut, idx); err != nil {
				return err
			}
			last := idx
			for _, r := range rest {
				n, ok := members[r]
				if !ok {
					break
				}
				if err := g.AddEdge(last, n); err != nil {
					return err
				}
				last = n
			}
			outs = append(outs, last)
			return nil
		}
		// Inception branches.
		if err := wire("1x1"); err != nil {
			return nil, err
		}
		if err := wire("3x3r", "3x3"); err != nil {
			return nil, err
		}
		if err := wire("5x5r", "5x5"); err != nil {
			return nil, err
		}
		if err := wire("pool", "poolp"); err != nil {
			return nil, err
		}
		// ResNet bottleneck main path and projection shortcut.
		if err := wire("1x1a", "3x3", "1x1b"); err != nil {
			return nil, err
		}
		if err := wire("proj"); err != nil {
			return nil, err
		}
		if len(outs) == 0 {
			// Unknown structure: chain the whole run sequentially.
			for j := start; j < i; j++ {
				if err := link(prevOut, j); err != nil {
					return nil, err
				}
				prevOut = []int{j}
			}
			continue
		}
		prevOut = outs
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
