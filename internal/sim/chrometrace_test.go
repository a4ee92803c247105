package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/obs"
	"accpar/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyFCNet builds a fixed two-FC-layer network small enough that its
// Chrome trace golden file stays reviewable by hand.
func tinyFCNet(t *testing.T) *dnn.Network {
	t.Helper()
	g := dnn.NewGraph("tinyfc")
	x := g.Input("data", tensor.NewShape(8, 64))
	x = g.Add(dnn.Layer{Name: "fc1", Op: dnn.FCOp{OutFeatures: 32}}, x)
	g.Add(dnn.Layer{Name: "fc2", Op: dnn.FCOp{OutFeatures: 16}}, x)
	if err := g.Infer(); err != nil {
		t.Fatal(err)
	}
	net, err := dnn.ExtractNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// goldenMachines are round-number heterogeneous machines so the golden
// timestamps are stable, human-checkable decimals.
func goldenMachines() [2]Machine {
	return [2]Machine{
		{Name: "big", Compute: 1e12, MemBW: 1e11, NetBW: 1e10, HBMBytes: 1 << 34},
		{Name: "small", Compute: 5e11, MemBW: 5e10, NetBW: 5e9, HBMBytes: 1 << 34},
	}
}

func TestTimelineSortedDeterministically(t *testing.T) {
	res := timelineResult(t)
	sorted := sort.SliceIsSorted(res.Timeline, func(i, j int) bool {
		a, b := res.Timeline[i], res.Timeline[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Name < b.Name
	})
	if !sorted {
		t.Fatal("timeline is not sorted by (start, name)")
	}
	// Ties on start time exist in this schedule (both machines kick off at
	// t=0), so the name tiebreak is exercised, not vacuous.
	ties := 0
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Start == res.Timeline[i-1].Start {
			ties++
		}
	}
	if ties == 0 {
		t.Error("no equal-start pairs; tiebreak untested — pick a denser schedule")
	}
}

func TestChromeTraceGolden(t *testing.T) {
	net := tinyFCNet(t)
	s := Split{Net: net, Types: allTypes(net, cost.TypeII), Alpha: 0.25}
	res, err := Simulate(s, goldenMachines(), Config{RecordTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	events, err := res.ChromeTraceEvents(obs.PidSim, "simulator", [2]string{"big", "small"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, events); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrometrace_tinyfc.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden file (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Independently of the golden bytes, the document must be valid Chrome
	// Trace Event Format: parses, per-task X events on the expected lanes,
	// metadata names present.
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q; want ms", doc.DisplayTimeUnit)
	}
	meta, complete := 0, 0
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			tid := int(e["tid"].(float64))
			if tid < 0 || tid > 3 {
				t.Errorf("event %v on lane %d; want 0..3", e["name"], tid)
			}
			if e["dur"] != nil && e["dur"].(float64) < 0 {
				t.Errorf("event %v has negative duration", e["name"])
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	if complete != res.Tasks {
		t.Errorf("%d X events; want %d tasks", complete, res.Tasks)
	}
	if meta != 5 { // process_name + 2 machines × (compute, network)
		t.Errorf("%d metadata events; want 5", meta)
	}
}

func TestChromeTraceRequiresTimeline(t *testing.T) {
	res := &Result{}
	if _, err := res.ChromeTraceEvents(obs.PidSim, "simulator", [2]string{"a", "b"}); err == nil {
		t.Fatal("exporting an empty timeline must error")
	}
}
