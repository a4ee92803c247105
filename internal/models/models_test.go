package models

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"accpar/internal/dnn"
)

// nodeNamed returns g's node with the given layer name.
func nodeNamed(t *testing.T, g *dnn.Graph, name string) *dnn.Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Layer.Name == name {
			return n
		}
	}
	t.Fatalf("missing node %q", name)
	return nil
}

func TestNamesAndEvaluationOrder(t *testing.T) {
	// Nine evaluation DNNs plus the inception and mlp extension models.
	if got := len(Names()); got != 11 {
		t.Fatalf("registry has %d models, want 11", got)
	}
	order := EvaluationOrder()
	if len(order) != 9 {
		t.Fatalf("EvaluationOrder has %d entries, want 9", len(order))
	}
	for _, name := range order {
		if _, err := Build(name, 2); err != nil {
			t.Errorf("Build(%q): %v", name, err)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nope", 4); err == nil {
		t.Error("unknown model must error")
	}
	if _, err := BuildNetwork("nope", 4); err == nil {
		t.Error("unknown model must error via BuildNetwork too")
	}
}

// TestBuildBadBatch: a non-positive batch is an input error, not a
// tensor-shape panic, for every model.
func TestBuildBadBatch(t *testing.T) {
	for _, name := range Names() {
		for _, batch := range []int{0, -1} {
			if _, err := BuildNetwork(name, batch); err == nil {
				t.Errorf("%s batch %d: want an error", name, batch)
			}
		}
	}
}

// TestWeightedLayerCounts pins the canonical weighted-layer counts of each
// architecture (conv + fc).
func TestWeightedLayerCounts(t *testing.T) {
	want := map[string]int{
		"lenet":   5,  // 2 conv + 3 fc
		"alexnet": 8,  // 5 conv + 3 fc
		"vgg11":   11, // 8 conv + 3 fc
		"vgg13":   13,
		"vgg16":   16,
		"vgg19":   19,
		// ResNet-18: cv1 + 16 block convs + 3 projections + fc = 21.
		"resnet18": 21,
		// ResNet-34: cv1 + 32 block convs + 3 projections + fc = 37.
		"resnet34": 37,
		// ResNet-50: cv1 + 48 block convs + 4 projections + fc = 54.
		"resnet50": 54,
	}
	for name, wantN := range want {
		net, err := BuildNetwork(name, 2)
		if err != nil {
			t.Fatalf("BuildNetwork(%q): %v", name, err)
		}
		if got := len(net.Layers()); got != wantN {
			t.Errorf("%s: weighted layers = %d, want %d", name, got, wantN)
		}
	}
}

// TestParameterCounts checks model sizes against the published numbers
// (kernel parameters only, no biases/batch-norm, so slightly below the
// usually quoted totals). Tolerance ±2%.
func TestParameterCounts(t *testing.T) {
	want := map[string]int64{
		"alexnet":  61e6,
		"vgg11":    132e6,
		"vgg13":    133e6,
		"vgg16":    138e6,
		"vgg19":    143e6,
		"resnet18": 11.6e6,
		"resnet34": 21.7e6,
		"resnet50": 25.5e6,
	}
	for name, approx := range want {
		g, err := Build(name, 2)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		got := g.ParameterCount()
		lo := int64(float64(approx) * 0.95)
		hi := int64(float64(approx) * 1.02)
		if got < lo || got > hi {
			t.Errorf("%s: parameters = %d, want ≈%d", name, got, approx)
		}
	}
}

// TestVGGDeeperMeansMoreParams: within the VGG series, deeper variants have
// strictly more parameters and FLOPs (Section 6.2 relies on this ordering).
func TestVGGDeeperMeansMoreParams(t *testing.T) {
	series := []string{"vgg11", "vgg13", "vgg16", "vgg19"}
	var prevP, prevF int64
	for _, name := range series {
		g, err := Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		p, f := g.ParameterCount(), g.TrainingFLOPs()
		if p <= prevP || f <= prevF {
			t.Errorf("%s: params/FLOPs must grow along the series (%d, %d)", name, p, f)
		}
		prevP, prevF = p, f
	}
}

// TestResNetComputeDensity: the paper (Section 6.2) observes that ResNets
// have much smaller models than VGG but higher compute density (FLOPs per
// parameter). Verify both properties.
func TestResNetComputeDensity(t *testing.T) {
	vgg, err := Build("vgg16", 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build("resnet50", 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.ParameterCount() >= vgg.ParameterCount() {
		t.Error("ResNet-50 must have fewer parameters than VGG-16")
	}
	vggDensity := float64(vgg.TrainingFLOPs()) / float64(vgg.ParameterCount())
	resDensity := float64(res.TrainingFLOPs()) / float64(res.ParameterCount())
	if resDensity <= vggDensity {
		t.Errorf("ResNet-50 compute density %.1f must exceed VGG-16's %.1f", resDensity, vggDensity)
	}
}

// TestAlexNetFigure7Layers: Figure 7 of the paper names AlexNet's weighted
// layers cv1..cv5, fc1..fc3 — the extracted network must expose exactly
// those, in order.
func TestAlexNetFigure7Layers(t *testing.T) {
	net, err := BuildNetwork("alexnet", 128)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cv1", "cv2", "cv3", "cv4", "cv5", "fc1", "fc2", "fc3"}
	layers := net.Layers()
	if len(layers) != len(want) {
		t.Fatalf("alexnet layers = %d, want %d", len(layers), len(want))
	}
	for i, l := range layers {
		if l.Name != want[i] {
			t.Errorf("layer %d = %q, want %q", i, l.Name, want[i])
		}
	}
	if net.HasParallel() {
		t.Error("alexnet must extract to a linear network")
	}
}

// TestResNetNetworksAreMultiPath: all ResNets must extract into networks
// containing parallel segments with identity shortcuts.
func TestResNetNetworksAreMultiPath(t *testing.T) {
	for _, name := range []string{"resnet18", "resnet34", "resnet50"} {
		net, err := BuildNetwork(name, 4)
		if err != nil {
			t.Fatalf("BuildNetwork(%q): %v", name, err)
		}
		if !net.HasParallel() {
			t.Errorf("%s must contain parallel segments", name)
			continue
		}
		identities, projections := 0, 0
		for _, s := range net.Segments {
			if !s.IsParallel() {
				continue
			}
			for _, p := range s.Paths {
				switch len(p) {
				case 0:
					identities++
				case 1:
					projections++
				}
			}
		}
		if identities == 0 {
			t.Errorf("%s must have identity shortcut paths", name)
		}
		if projections == 0 {
			t.Errorf("%s must have 1-conv projection shortcut paths", name)
		}
	}
}

// TestResNetBlockStructure pins the parallel-segment counts: one residual
// block per parallel segment.
func TestResNetBlockStructure(t *testing.T) {
	want := map[string]int{"resnet18": 8, "resnet34": 16, "resnet50": 16}
	for name, blocks := range want {
		net, err := BuildNetwork(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, s := range net.Segments {
			if s.IsParallel() {
				got++
			}
		}
		// The final block of the network merges into the fc layer, and every
		// block is a parallel segment.
		if got != blocks {
			t.Errorf("%s: parallel segments = %d, want %d", name, got, blocks)
		}
	}
}

// TestBatchPropagation: the requested batch size must reach every weighted
// layer's dims.
func TestBatchPropagation(t *testing.T) {
	for _, name := range EvaluationOrder() {
		net, err := BuildNetwork(name, 512)
		if err != nil {
			t.Fatal(err)
		}
		if net.Batch != 512 {
			t.Errorf("%s: Batch = %d, want 512", name, net.Batch)
		}
		for _, l := range net.Layers() {
			if l.Dims.B != 512 {
				t.Errorf("%s/%s: B = %d, want 512", name, l.Name, l.Dims.B)
			}
		}
	}
}

// TestNetworksValidate: every zoo network satisfies the structural
// invariants.
func TestNetworksValidate(t *testing.T) {
	for _, name := range EvaluationOrder() {
		net, err := BuildNetwork(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestVGGConvShapes pins a few known VGG-16 feature-map shapes.
func TestVGGConvShapes(t *testing.T) {
	g, err := Build("vgg16", 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, c, h int) {
		t.Helper()
		n := nodeNamed(t, g, name)
		if n.Out[1] != c || n.Out[2] != h {
			t.Errorf("%s out = %v, want channels %d spatial %d", name, n.Out, c, h)
		}
	}
	check("cv1", 64, 224)
	check("cv3", 128, 112)
	check("cv13", 512, 14)
	n := nodeNamed(t, g, "flat")
	if n.Out[1] != 25088 {
		t.Errorf("flatten out = %v, want 25088 features", n.Out)
	}
}

// TestResNet50Shapes pins bottleneck stage shapes.
func TestResNet50Shapes(t *testing.T) {
	g, err := Build("resnet50", 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, c, h int) {
		t.Helper()
		n := nodeNamed(t, g, name)
		if n.Out[1] != c || n.Out[2] != h {
			t.Errorf("%s out = %v, want channels %d spatial %d", name, n.Out, c, h)
		}
	}
	check("res2a_c", 256, 56)
	check("res3a_c", 512, 28)
	check("res4a_c", 1024, 14)
	check("res5c_c", 2048, 7)
}

// TestExtractAllNetworksDeterministic: two independent extractions of
// every registered model yield identical networks (guards against
// map-iteration nondeterminism in dnn.ExtractNetwork). It extracts from
// fresh graphs rather than calling BuildNetwork twice, which would only
// compare two clones of one template.
func TestExtractAllNetworksDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, b := extract(t, name, 8), extract(t, name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two extractions differ", name)
		}
	}
}

// extract builds the named model's graph and extracts its network, the
// path BuildNetwork's template stands in for.
func extract(t testing.TB, name string, batch int) *dnn.Network {
	t.Helper()
	g, err := Build(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	net, err := dnn.ExtractNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestBuildNetworkMatchesExtraction: the clone of a model's template,
// stamped with a batch, equals the network extracted from the graph
// built at that batch, for every registered model, small, odd and large
// batches alike.
func TestBuildNetworkMatchesExtraction(t *testing.T) {
	for _, name := range Names() {
		for _, batch := range []int{1, 2, 3, 7, 64, 127, 512, 4099} {
			got, err := BuildNetwork(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			if want := extract(t, name, batch); !reflect.DeepEqual(got, want) {
				t.Errorf("%s batch %d: BuildNetwork differs from ExtractNetwork(Build)", name, batch)
			}
		}
	}
}

// TestBuildNetworkReturnsFreshCopies: a caller may change the network it
// got, its segments, units and chains, without changing what the next
// caller gets.
func TestBuildNetworkReturnsFreshCopies(t *testing.T) {
	for _, name := range []string{"resnet50", "inception", "vgg16"} {
		net, err := BuildNetwork(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		net.Name, net.Batch = "changed", 3
		for _, s := range net.Segments {
			if s.Unit != nil {
				s.Unit.Dims.Di, s.Unit.Name = 1, "changed"
				continue
			}
			for i, p := range s.Paths {
				for j := range p {
					p[j].Dims.Do = 1
				}
				s.Paths[i] = append(p, dnn.WeightedLayer{Name: "appended"})
			}
		}
		net.Segments[0].Unit.Dims.B = 5
		net.Segments = append(net.Segments[:1], dnn.Segment{})
		again, err := BuildNetwork(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		if want := extract(t, name, 16); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: changing one returned network changed the next", name)
		}
	}
}

// TestTemplateConcurrentFirstCalls: callers racing to a model's first
// network build it once and each get the network extraction gives. Run
// under -race, it also checks that cloning reads the template only.
func TestTemplateConcurrentFirstCalls(t *testing.T) {
	m := &model{build: ResNet18}
	want := extract(t, "resnet18", 32)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := m.network(32)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("a concurrent first call got another network")
			}
		}()
	}
	wg.Wait()
}

// templateBytesBudget bounds the memory every registered model's
// template keeps resident once built: units, segments, chains and the
// names they hold. Measured at 36,237 bytes for the eleven models.
const templateBytesBudget = 40 << 10

// TestTemplateFootprint fails when the templates grow, for instance by
// keeping a graph or a unit per allocation again. It counts bytes from
// the templates' lengths.
func TestTemplateFootprint(t *testing.T) {
	total := 0
	for _, name := range Names() {
		if _, err := BuildNetwork(name, 1); err != nil {
			t.Fatal(err)
		}
		tmpl := registry[name].tmpl
		n := int(unsafe.Sizeof(*tmpl)) + len(tmpl.Name) + len(tmpl.Segments)*int(unsafe.Sizeof(dnn.Segment{}))
		for _, s := range tmpl.Segments {
			n += len(s.Paths) * int(unsafe.Sizeof(dnn.Chain{}))
		}
		for _, u := range tmpl.Units() {
			n += int(unsafe.Sizeof(u)) + len(u.Name)
		}
		t.Logf("%s: %d bytes", name, n)
		total += n
	}
	t.Logf("templates hold %d bytes", total)
	if total > templateBytesBudget {
		t.Errorf("templates hold %d bytes, budget %d", total, templateBytesBudget)
	}
}
