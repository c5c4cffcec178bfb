package dnn

import (
	"strings"
	"sync"
	"testing"
)

func TestAllModelsValidate(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("model %s: %v", m.Name, err)
		}
	}
}

func TestSuiteComposition(t *testing.T) {
	suite := Suite()
	if len(suite) != 8 {
		t.Fatalf("suite has %d models, want 8 (Section III)", len(suite))
	}
	want := []string{"CNN-AN", "CNN-GN", "CNN-VN", "CNN-MN",
		"RNN-SA", "RNN-MT1", "RNN-MT2", "RNN-ASR"}
	for i, m := range suite {
		if m.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, m.Name, want[i])
		}
	}
	cnn, rnn := 0, 0
	for _, m := range suite {
		if m.IsRNN() {
			rnn++
		} else {
			cnn++
		}
	}
	if cnn != 4 || rnn != 4 {
		t.Errorf("suite split %d CNN / %d RNN, want 4/4", cnn, rnn)
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("CNN-VN")
	if err != nil || m.Name != "CNN-VN" {
		t.Errorf("ByName(CNN-VN) = %v, %v", m, err)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("ByName with unknown label should error")
	}
	names := Names()
	if len(names) != len(All()) {
		t.Errorf("Names() returned %d entries, want %d", len(names), len(All()))
	}
}

// Published MAC counts (batch 1, multiply-accumulate) for the classic
// CNNs; our shape-derived totals must land within a modest tolerance of
// the literature values.
func TestCNNMACCountsMatchLiterature(t *testing.T) {
	cases := []struct {
		model   string
		wantG   float64
		tolFrac float64
	}{
		{"CNN-AN", 1.1, 0.25},  // AlexNet ~0.7-1.1 GMAC depending on variant
		{"CNN-VN", 15.5, 0.05}, // VGG-16 ~15.5 GMAC
		{"CNN-GN", 1.6, 0.25},  // GoogLeNet ~1.5 GMAC
		{"CNN-MN", 0.57, 0.15}, // MobileNet-v1 ~0.57 GMAC
		{"CNN-RN", 3.9, 0.15},  // ResNet-50 ~3.8-4.1 GMAC
	}
	for _, c := range cases {
		m, err := ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(m.TotalMACs(1, 0, 0)) / 1e9
		lo, hi := c.wantG*(1-c.tolFrac), c.wantG*(1+c.tolFrac)
		if got < lo || got > hi {
			t.Errorf("%s MACs = %.2fG, want within [%.2f, %.2f]G", c.model, got, lo, hi)
		}
	}
}

func TestVGGLayerStructure(t *testing.T) {
	m := VGG16()
	convs, fcs, pools := 0, 0, 0
	for _, l := range m.Static {
		switch l.Kind {
		case Conv:
			convs++
		case FC:
			fcs++
		case Pool:
			pools++
		}
	}
	if convs != 13 || fcs != 3 || pools != 5 {
		t.Errorf("VGG16 has %d conv / %d fc / %d pool, want 13/3/5", convs, fcs, pools)
	}
	// Figure 7 labels c01..c13 must be present.
	names := map[string]bool{}
	for _, l := range m.Static {
		names[l.Name] = true
	}
	for _, want := range []string{"c01", "c07", "c13", "fc1", "fc2"} {
		if !names[want] {
			t.Errorf("VGG16 missing layer %s", want)
		}
	}
}

func TestGoogLeNetInceptionModules(t *testing.T) {
	m := GoogLeNet()
	modules := map[string]bool{}
	for _, l := range m.Static {
		if i := strings.IndexByte(l.Name, '/'); i > 0 {
			modules[l.Name[:i]] = true
		}
	}
	for _, want := range []string{"3a", "3b", "4a", "4b", "4c", "4d", "4e", "5a", "5b"} {
		if !modules[want] {
			t.Errorf("GoogLeNet missing inception module %s", want)
		}
	}
}

func TestMobileNetDepthwiseStructure(t *testing.T) {
	m := MobileNet()
	dw, pw := 0, 0
	for _, l := range m.Static {
		switch {
		case l.Kind == DWConv:
			dw++
		case l.Kind == Conv && l.KH == 1:
			pw++
		}
	}
	if dw != 13 || pw != 13 {
		t.Errorf("MobileNet has %d depthwise / %d pointwise, want 13/13", dw, pw)
	}
}

// numLayers counts the layers an instance executes.
func numLayers(rs []Run) int {
	n := 0
	for _, r := range rs {
		n += r.Times * len(r.Body)
	}
	return n
}

func TestRNNUnrollScalesWithLengths(t *testing.T) {
	for _, m := range Suite() {
		if !m.IsRNN() {
			continue
		}
		short := numLayers(m.Runs(m.MinInLen, m.MinInLen))
		long := numLayers(m.Runs(m.MaxInLen, m.MaxInLen))
		if long <= short {
			t.Errorf("%s: unroll did not grow with length (%d vs %d)", m.Name, short, long)
		}
		// The bodies do not grow: an instance is the same few runs.
		if a, b := m.Runs(m.MinInLen, m.MinInLen), m.Runs(m.MaxInLen, m.MaxInLen); len(a) != len(b) ||
			&a[0].Body[0] != &b[0].Body[0] {
			t.Errorf("%s: instances of different lengths do not share their bodies", m.Name)
		}
	}
}

func TestRNNWeightsSharedAcrossTimesteps(t *testing.T) {
	for _, m := range Suite() {
		if !m.IsRNN() {
			continue
		}
		w1 := m.TotalWeightBytes(m.MinInLen, m.MinInLen)
		w2 := m.TotalWeightBytes(m.MaxInLen, m.MaxInLen)
		if w1 != w2 {
			t.Errorf("%s: weight bytes vary with unroll length (%d vs %d); cell weights must be shared",
				m.Name, w1, w2)
		}
	}
}

func TestCNNLayersIgnoreSequenceLengths(t *testing.T) {
	m := AlexNet()
	a := m.Runs(0, 0)
	b := m.Runs(10, 20)
	if len(a) != 1 || len(b) != 1 || a[0].Times != 1 || b[0].Times != 1 ||
		len(a[0].Body) != len(m.Static) || len(b[0].Body) != len(m.Static) {
		t.Error("a CNN instance is one run of its static layers, whatever the sequence lengths")
	}
}

func TestModelValidateFailures(t *testing.T) {
	fc := []Layer{NewFC("f", 1, 1, false)}
	once := func(a, b int) []Run { return []Run{{fc, 1}} }
	bad := []*Model{
		{Name: "", Class: CNN, Static: []Layer{NewFC("f", 1, 1, false)}},
		{Name: "empty", Class: CNN},
		{Name: "badlayer", Class: CNN, Static: []Layer{{Name: "x", Kind: FC}}},
		{Name: "nounroll", Class: RNN, SeqProfile: "sa", MinInLen: 1, MaxInLen: 2},
		{Name: "badlen", Class: RNN, SeqProfile: "sa", MinInLen: 5, MaxInLen: 2, Unroll: once},
		{Name: "noprofile", Class: RNN, MinInLen: 1, MaxInLen: 2, Unroll: once},
		{Name: "badbody", Class: RNN, SeqProfile: "sa", MinInLen: 1, MaxInLen: 2,
			Unroll: func(a, b int) []Run { return []Run{{[]Layer{{Name: "x", Kind: FC}}, a}} }},
		{Name: "zerotimes", Class: RNN, SeqProfile: "sa", MinInLen: 1, MaxInLen: 2,
			Unroll: func(a, b int) []Run { return []Run{{fc, 0}} }},
		{Name: "namesharedbybodies", Class: RNN, SeqProfile: "sa", MinInLen: 1, MaxInLen: 2,
			Unroll: func(a, b int) []Run { return []Run{{fc, a}, {fc, b}} }},
		{Name: "badclass", Class: Class(9)},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q should fail validation", m.Name)
		}
	}
	ok := &Model{Name: "ok", Class: RNN, SeqProfile: "sa", MinInLen: 1, MaxInLen: 2, Unroll: once}
	if err := ok.Validate(); err != nil {
		t.Errorf("model %q: %v", ok.Name, err)
	}
}

func TestClassString(t *testing.T) {
	if CNN.String() != "CNN" || RNN.String() != "RNN" {
		t.Error("class names wrong")
	}
	if Class(7).String() == "" {
		t.Error("unknown class should render")
	}
}

// The zoo is built once: lookups share the same models, while every
// Suite/All call hands out a slice of its own. The first lookups race
// each other, as the experiment engine's workers do.
func TestZooBuiltOnce(t *testing.T) {
	var wg sync.WaitGroup
	got := make([]*Model, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = ByName("RNN-MT2")
			_ = append(Suite(), All()...)
		}()
	}
	wg.Wait()
	for _, m := range got {
		if m == nil || m != got[0] {
			t.Fatal("concurrent first lookups returned different models")
		}
	}
	a, b := Suite(), Suite()
	a[0] = nil
	if b[0] == nil || Suite()[0] == nil {
		t.Fatal("Suite slices must not alias")
	}
	all := All()
	for i, m := range b {
		if all[i] != m {
			t.Errorf("Suite()[%d] and All()[%d] are different models", i, i)
		}
	}
	for _, m := range all {
		got, err := ByName(m.Name)
		if err != nil || got != m {
			t.Errorf("ByName(%q) = %p, %v; want the zoo's %p", m.Name, got, err, m)
		}
	}
}
