package dnn

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// suiteSize is the length of Suite's prefix of the zoo.
const suiteSize = 8

// zoo is every model, built once: the eight-model suite in the paper's
// presentation order, then the auxiliary models. Models are immutable
// after construction, so every caller shares the same *Model values.
var zoo = sync.OnceValues(func() ([]*Model, map[string]*Model) {
	all := []*Model{
		AlexNet(),
		GoogLeNet(),
		VGG16(),
		MobileNet(),
		SentimentAnalysis(),
		TranslationDE(),
		TranslationZH(),
		SpeechRecognition(),
		ResNet50(),
		TranslationKO(),
	}
	byName := make(map[string]*Model, len(all))
	for _, m := range all {
		byName[m.Name] = m
	}
	return all, byName
})

// Suite returns the eight-model benchmark suite of Section III in the
// paper's presentation order: CNN-AN/GN/VN/MN then RNN-SA/MT1/MT2/ASR.
// The slice is the caller's; the models are shared and must not be
// modified.
func Suite() []*Model {
	all, _ := zoo()
	return slices.Clone(all[:suiteSize])
}

// All returns every model in the zoo, including the auxiliary models that
// are not part of the default suite (CNN-RN for Figure 1, RNN-MT-KO for
// sensitivity studies). The slice is the caller's; the models are shared
// and must not be modified.
func All() []*Model {
	all, _ := zoo()
	return slices.Clone(all)
}

// ByName looks a model up by its workload label.
func ByName(name string) (*Model, error) {
	_, byName := zoo()
	if m, ok := byName[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("dnn: unknown model %q (known: %v)", name, Names())
}

// Names returns the sorted labels of every model in the zoo.
func Names() []string {
	all, _ := zoo()
	names := make([]string, len(all))
	for i, m := range all {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// BatchSizes are the batch sizes the paper evaluates (Figures 5-6).
var BatchSizes = []int{1, 4, 16}
