package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"accpar/internal/core"
	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/optimizer"
)

// TestSimulateResultGolden pins Simulate's results bit for bit on the
// root split of the AccPar plans of a chain model (vgg16) and a
// multi-path model (inception) at batch 64 on 8 TPU-v2 + 8 TPU-v3 boards,
// crossed with transfer/compute overlap, the optimizer and a fault
// scenario that slows, retries and loses. Every float is compared as
// math.Float64bits and the recorded timeline as an FNV-1a hash of its
// names, lanes and times, so any change in task order, durations,
// dependencies or fault draws fails here.
func TestSimulateResultGolden(t *testing.T) {
	const boards = 8
	specs := [2]hardware.Spec{hardware.TPUv2(), hardware.TPUv3()}
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: specs[0], Count: boards},
		hardware.GroupSpec{Spec: specs[1], Count: boards})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	var machines [2]Machine
	for i, spec := range specs {
		machines[i] = machineFor(spec)
		machines[i].Compute *= boards
		machines[i].MemBW *= boards
		machines[i].NetBW *= boards
		machines[i].HBMBytes *= boards
	}
	fs, err := faults.Parse("slowdown:0=2.0,transient:1=0.05@0.001,loss:0=0.25")
	if err != nil {
		t.Fatal(err)
	}
	faulty := &faults.Scenario{Faults: fs, Seed: 7, CheckpointOverhead: 0.01}

	seen := map[string]string{}
	for _, model := range []string{"vgg16", "inception"} {
		net := netFor(t, model, 64)
		plan, err := core.PartitionCtx(context.Background(), net, tree, core.StrategyAccPar.Variants()...)
		if err != nil {
			t.Fatal(err)
		}
		split := Split{Net: net, Types: plan.Root.Types, Alpha: plan.Root.Alpha}
		for _, overlap := range []bool{false, true} {
			for _, opt := range []optimizer.Kind{optimizer.SGD, optimizer.Adam} {
				for _, sc := range []*faults.Scenario{nil, faulty} {
					name := fmt.Sprintf("%s/overlap=%v/%s/faults=%v", model, overlap, opt, sc != nil)
					res, err := Simulate(split, machines, Config{
						OverlapComm: overlap, Optimizer: opt, Faults: sc, RecordTimeline: true,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := resultFingerprint(res)
					if got != goldenResults[name] {
						t.Errorf("%s:\n got %s\nwant %s", name, got, goldenResults[name])
					}
					seen[name] = got
				}
			}
		}
	}
	if t.Failed() {
		for name, got := range seen {
			t.Logf("%q: %q,", name, got)
		}
	}
}

// resultFingerprint renders every pinned field of a Result.
func resultFingerprint(r *Result) string {
	b := func(v float64) uint64 { return math.Float64bits(v) }
	pair := func(v [2]float64) string { return fmt.Sprintf("%x,%x", b(v[0]), b(v[1])) }
	h := fnv.New64a()
	for _, tt := range r.Timeline {
		fmt.Fprintf(h, "%s|%d|%v|%x|%x\n", tt.Name, tt.Machine, tt.OnNet, b(tt.Start), b(tt.End))
	}
	return fmt.Sprintf("time=%x compute=%s net=%s util=%s remote=%s flops=%s lost=%s restart=%x mem=%d,%d tasks=%d retries=%d,%d timeline=%x",
		b(r.Time), pair(r.ComputeBusy), pair(r.NetBusy), pair(r.ComputeUtil), pair(r.RemoteBytes), pair(r.FLOPs),
		pair(r.LostTime), b(r.RestartOverhead), r.PeakMemBytes[0], r.PeakMemBytes[1], r.Tasks,
		r.Retries[0], r.Retries[1], h.Sum64())
}

// goldenResults holds the fingerprints, keyed by case name.
var goldenResults = map[string]string{
	"inception/overlap=false/adam/faults=false": "time=3f3198ee7e145bb4 compute=3ea99dba5570deb0,3f2173f042bdad6a net=3eaa4cdd5357c0dc,3f21bdecb96b09fe util=3f674a748e3881cb,3fdfbcbad7908d0f remote=40b87e7800000000,414085ff3c000000 flops=4169f5d800000000,425854bdc5300000 lost=0,0 restart=0 mem=8800764,1211972096 tasks=216 retries=0,0 timeline=644c98468deb0185",
	"inception/overlap=false/adam/faults=true":  "time=3f916724f58750c3 compute=3eb113d18e4b3f22,3f7102b16115f719 net=3eb188938ce52b3e,3f21bdecb96b09fe util=3f0f66c863412a9a,3fcf474ae1a0ba2f remote=40b87e7800000000,414085ff3c000000 flops=4169f5d800000000,425854bdc5300000 lost=3f8a05f9879df9d1,3f707711df0009b2 restart=3f8a05f9879df9d1 mem=8800764,1211972096 tasks=216 retries=0,4 timeline=5f29849cc80d37f1",
	"inception/overlap=false/sgd/faults=false":  "time=3f31937b8b5cec1c compute=3e95f4e8db85512a,3f21690a5d4ece39 net=3eaa4cdd5357c0dc,3f21bdecb96b09fe util=3f53fcdd7afc2789,3fdfb2ba44e58b7b remote=40b87e7800000000,414085ff3c000000 flops=413ff38000000000,4258547c5a600000 lost=0,0 restart=0 mem=4612360,1205736692 tasks=216 retries=0,0 timeline=d269635abee36ed9",
	"inception/overlap=false/sgd/faults=true":   "time=3f91670167df831e compute=3e9d468bcf5c6c39,3f71025a31ea8023 net=3eb188938ce52b3e,3f21bdecb96b09fe util=3efaea999b65d660,3fcf46ea777fa690 remote=40b87e7800000000,414085ff3c000000 flops=413ff38000000000,4258547c5a600000 lost=3f8a05de03e41a04,3f707711df0009b2 restart=3f8a05de03e41a04 mem=4612360,1205736692 tasks=216 retries=0,4 timeline=d3e952cb041cf0a",
	"inception/overlap=true/adam/faults=false":  "time=3f319396e11f6de1 compute=3ea99dba5570deb0,3f2173f042bdad6a net=3eaa4cdd5357c0dc,3f21bdecb96b09fe util=3f675188cb71c7c4,3fdfc6604967b236 remote=40b87e7800000000,414085ff3c000000 flops=4169f5d800000000,425854bdc5300000 lost=0,0 restart=0 mem=8800764,1211972096 tasks=216 retries=0,0 timeline=5de6d05ee1d1d966",
	"inception/overlap=true/adam/faults=true":   "time=3f916703e3d4ec84 compute=3eb113d18e4b3f22,3f7102b16115f719 net=3eb188938ce52b3e,3f21bdecb96b09fe util=3f0f67040f0ca150,3fcf478651953726 remote=40b87e7800000000,414085ff3c000000 flops=4169f5d800000000,425854bdc5300000 lost=3f8a05dff00e6725,3f707711df0009b2 restart=3f8a05dff00e6725 mem=8800764,1211972096 tasks=216 retries=0,4 timeline=7768d6983118019a",
	"inception/overlap=true/sgd/faults=false":   "time=3f318e23ee67fe49 compute=3e95f4e8db85512a,3f21690a5d4ece39 net=3eaa4cdd5357c0dc,3f21bdecb96b09fe util=3f5402f298573ff6,3fdfbc5faa069fb6 remote=40b87e7800000000,414085ff3c000000 flops=413ff38000000000,4258547c5a600000 lost=0,0 restart=0 mem=4612360,1205736692 tasks=216 retries=0,0 timeline=ba62044e6713113d",
	"inception/overlap=true/sgd/faults=true":    "time=3f9166e0562d1edf compute=3e9d468bcf5c6c39,3f71025a31ea8023 net=3eb188938ce52b3e,3f21bdecb96b09fe util=3efaeaccc1c0a81e,3fcf4725e7365aec remote=40b87e7800000000,414085ff3c000000 flops=413ff38000000000,4258547c5a600000 lost=3f8a05c46c548757,3f707711df0009b2 restart=3f8a05c46c548757 mem=4612360,1205736692 tasks=216 retries=0,4 timeline=995cc25dd42ac83d",
	"vgg16/overlap=false/adam/faults=false":     "time=3f6f66c9c75906ac compute=3ee712f57a2c3ca0,3f5e44b7e90e9ac6 net=3f234d7e13926a36,3f5f555cef88fe30 util=3f67838a3ec27be9,3fded866d8934f78 remote=4131fa1f9e000000,417d2e79f9e00000 flops=41a832a140000000,42959ccbb4fb8000 lost=0,0 restart=0 mem=121694752,6909088224 tasks=151 retries=0,0 timeline=d7f987a55247054d",
	"vgg16/overlap=false/adam/faults=true":      "time=3f97a8086f673b74 compute=3eeec3f1f83afb83,3f7864b7b91aa16d net=3f29bca81a188d9e,3f5f555cef88fe30 util=3f44cee5f5c97aca,3fd07f9df214e06a remote=4131fa1f9e000000,417d2e79f9e00000 flops=41a832a140000000,42959ccbb4fb8000 lost=3f8ef2e55c1c8eb0,3f70d389bed6fabc restart=3f8ef2e55c1c8eb0 mem=121694752,6909088224 tasks=151 retries=0,4 timeline=b2107d240fe2d332",
	"vgg16/overlap=false/sgd/faults=false":      "time=3f6f2a5b91949db3 compute=3ed4634ae64ad2ac,3f5dcbdb7d85c8cb net=3f234d7e13926a36,3f5f555cef88fe30 util=3f54ef0daaa4b426,3fde981d351664f1 remote=4131fa1f9e000000,417d2e79f9e00000 flops=418379db40000000,42959b60f67e6000 lost=0,0 restart=0 mem=62732160,6355832448 tasks=151 retries=0,0 timeline=69100ecf811819ae",
	"vgg16/overlap=false/sgd/faults=true":       "time=3f979b118fa68fd0 compute=3edb2f0e8863c392,3f784517aaeb6bfc net=3f29bca81a188d9e,3f5f555cef88fe30 util=3f326cdba690bc10,3fd0733e0da9ac49 remote=4131fa1f9e000000,417d2e79f9e00000 flops=418379db40000000,42959b60f67e6000 lost=3f8ee8c7a3b2d220,3f70d220cb89f9c9 restart=3f8ee8c7a3b2d220 mem=62732160,6355832448 tasks=151 retries=0,4 timeline=c951490449b8126e",
	"vgg16/overlap=true/adam/faults=false":      "time=3f6f66c9c75906ac compute=3ee712f57a2c3ca0,3f5e44b7e90e9ac6 net=3f234d7e13926a36,3f5f555cef88fe30 util=3f67838a3ec27be9,3fded866d8934f78 remote=4131fa1f9e000000,417d2e79f9e00000 flops=41a832a140000000,42959ccbb4fb8000 lost=0,0 restart=0 mem=121694752,6909088224 tasks=151 retries=0,0 timeline=d7f987a55247054d",
	"vgg16/overlap=true/adam/faults=true":       "time=3f97a8086f673b74 compute=3eeec3f1f83afb83,3f7864b7b91aa16d net=3f29bca81a188d9e,3f5f555cef88fe30 util=3f44cee5f5c97aca,3fd07f9df214e06a remote=4131fa1f9e000000,417d2e79f9e00000 flops=41a832a140000000,42959ccbb4fb8000 lost=3f8ef2e55c1c8eb0,3f70d389bed6fabc restart=3f8ef2e55c1c8eb0 mem=121694752,6909088224 tasks=151 retries=0,4 timeline=b2107d240fe2d332",
	"vgg16/overlap=true/sgd/faults=false":       "time=3f6f2a5b91949db3 compute=3ed4634ae64ad2ac,3f5dcbdb7d85c8cb net=3f234d7e13926a36,3f5f555cef88fe30 util=3f54ef0daaa4b426,3fde981d351664f1 remote=4131fa1f9e000000,417d2e79f9e00000 flops=418379db40000000,42959b60f67e6000 lost=0,0 restart=0 mem=62732160,6355832448 tasks=151 retries=0,0 timeline=69100ecf811819ae",
	"vgg16/overlap=true/sgd/faults=true":        "time=3f979b118fa68fd0 compute=3edb2f0e8863c392,3f784517aaeb6bfc net=3f29bca81a188d9e,3f5f555cef88fe30 util=3f326cdba690bc10,3fd0733e0da9ac49 remote=4131fa1f9e000000,417d2e79f9e00000 flops=418379db40000000,42959b60f67e6000 lost=3f8ee8c7a3b2d220,3f70d220cb89f9c9 restart=3f8ee8c7a3b2d220 mem=62732160,6355832448 tasks=151 retries=0,4 timeline=c951490449b8126e",
}
