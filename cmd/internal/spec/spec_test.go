package spec

import "testing"

// TestFillZero checks the zero-field rules a decoded body relies on:
// every zero field takes its default, but v2 and v3 only together and
// only when no fleet is set, and a fault run's zero seed becomes 1.
func TestFillZero(t *testing.T) {
	var r Request
	r.FillZero()
	if r != defaults {
		t.Errorf("empty request filled to %+v, want %+v", r, defaults)
	}
	for _, c := range []struct {
		in     Workload
		v2, v3 int
	}{
		{Workload{V2: 4}, 4, 0},
		{Workload{V3: 4}, 0, 4},
		{Workload{Fleet: "tpu-v2:4"}, 0, 0},
		{Workload{V2: -5}, -5, 0},
	} {
		w := c.in
		w.FillZero()
		if w.V2 != c.v2 || w.V3 != c.v3 {
			t.Errorf("%+v filled v2/v3 to %d/%d, want %d/%d", c.in, w.V2, w.V3, c.v2, c.v3)
		}
	}
}

// TestExperiment checks a fault experiment's build: a fleet and counts
// outside TPUFleet's bounds are rejected before anything is planned, and
// an empty fault spec resolves to no scenario.
func TestExperiment(t *testing.T) {
	ok := Default()
	ok.Model, ok.Batch, ok.V2, ok.V3 = "lenet", 8, 2, 3
	net, groups, _, sc, err := ok.Experiment()
	if err != nil || net == nil || sc != nil || len(groups) != 2 || groups[0].Count != 2 || groups[1].Count != 3 {
		t.Fatalf("Experiment() = %v, %+v, %v, %v", net, groups, sc, err)
	}
	ok.Faults = "slowdown:0=2"
	if _, _, _, sc, err := ok.Experiment(); err != nil || sc == nil || sc.Seed != 1 {
		t.Errorf("with faults: scenario %+v, %v", sc, err)
	}
	for name, mutate := range map[string]func(*Request){
		"fleet":       func(r *Request) { r.Fleet = "tpu-v2:4" },
		"negative v2": func(r *Request) { r.V2 = -5 },
		"oversized":   func(r *Request) { r.V3 = 1 << 20 },
		"model":       func(r *Request) { r.Model = "gpt5" },
		"strategy":    func(r *Request) { r.Strategy = "alpa" },
		"faults":      func(r *Request) { r.Faults = "meltdown:0=2" },
	} {
		r := ok
		mutate(&r)
		if _, _, _, _, err := r.Experiment(); err == nil {
			t.Errorf("%s: Experiment() accepted %+v", name, r)
		}
	}
}
