package hardware

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestTPUSpecs pins the Table 7 numbers.
func TestTPUSpecs(t *testing.T) {
	v2 := TPUv2()
	if v2.FLOPS != 180e12 {
		t.Errorf("TPU-v2 FLOPS = %g, want 180T", v2.FLOPS)
	}
	if v2.HBMBytes != 64*GiB {
		t.Errorf("TPU-v2 HBM = %d, want 64 GiB", v2.HBMBytes)
	}
	if v2.MemBandwidth != 2400e9 {
		t.Errorf("TPU-v2 mem BW = %g, want 2400 GB/s", v2.MemBandwidth)
	}
	if v2.NetBandwidth != 1e9 {
		t.Errorf("TPU-v2 net BW = %g B/s, want 8 Gb/s = 1e9 B/s", v2.NetBandwidth)
	}
	v3 := TPUv3()
	if v3.FLOPS != 420e12 {
		t.Errorf("TPU-v3 FLOPS = %g, want 420T", v3.FLOPS)
	}
	if v3.HBMBytes != 128*GiB {
		t.Errorf("TPU-v3 HBM = %d, want 128 GiB", v3.HBMBytes)
	}
	if v3.MemBandwidth != 4800e9 {
		t.Errorf("TPU-v3 mem BW = %g, want 4800 GB/s", v3.MemBandwidth)
	}
	if v3.NetBandwidth != 2e9 {
		t.Errorf("TPU-v3 net BW = %g B/s, want 16 Gb/s = 2e9 B/s", v3.NetBandwidth)
	}
	for _, s := range []Spec{v2, v3} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := TPUv2()
	bad.FLOPS = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero FLOPS must be rejected")
	}
	bad = TPUv2()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name must be rejected")
	}
}

// TestSpecValidateCapacityTyped: zero or negative HBM yields the typed
// *CapacityError so construction and parse paths can branch on it.
func TestSpecValidateCapacityTyped(t *testing.T) {
	for _, hbm := range []int64{0, -1} {
		bad := TPUv2()
		bad.HBMBytes = hbm
		err := bad.Validate()
		var ce *CapacityError
		if !errors.As(err, &ce) {
			t.Fatalf("HBMBytes=%d: got %v, want *CapacityError", hbm, err)
		}
		if ce.Name != "tpu-v2" || ce.HBMBytes != hbm {
			t.Errorf("CapacityError = %+v, want name tpu-v2 and capacity %d", ce, hbm)
		}
		if !strings.Contains(ce.Error(), "non-positive HBM capacity") {
			t.Errorf("error text %q does not name the defect", ce.Error())
		}
	}
	// A positive capacity is not a CapacityError even when another field
	// is invalid.
	bad := TPUv2()
	bad.FLOPS = 0
	var ce *CapacityError
	if errors.As(bad.Validate(), &ce) {
		t.Error("FLOPS defect must not surface as CapacityError")
	}
}

func TestHomogeneousArray(t *testing.T) {
	a, err := NewHomogeneous(TPUv3(), 128)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 128 {
		t.Errorf("Size = %d", a.Size())
	}
	if a.Heterogeneous() {
		t.Error("homogeneous array must not report heterogeneous")
	}
	if a.Name != "128×tpu-v3" {
		t.Errorf("Name = %q", a.Name)
	}
	if _, err := NewHomogeneous(TPUv3(), 0); err == nil {
		t.Error("zero-size array must be rejected")
	}
}

func TestHeterogeneousArray(t *testing.T) {
	// The paper's evaluation array (Section 6.2).
	a, err := NewHeterogeneous(GroupSpec{TPUv2(), 128}, GroupSpec{TPUv3(), 128})
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 256 {
		t.Errorf("Size = %d, want 256", a.Size())
	}
	if !a.Heterogeneous() {
		t.Error("mixed array must report heterogeneous")
	}
	if _, err := NewHeterogeneous(); err == nil {
		t.Error("empty group list must be rejected")
	}
	if _, err := NewHeterogeneous(GroupSpec{TPUv2(), 0}); err == nil {
		t.Error("zero-count group must be rejected")
	}
}

func TestGroupAggregates(t *testing.T) {
	g := &Group{Accel: []Spec{TPUv2(), TPUv2(), TPUv3()}}
	if got := g.ComputeDensity(); got != 2*180e12+420e12 {
		t.Errorf("ComputeDensity = %g", got)
	}
	if got := g.NetBandwidth(); got != 2*1e9+2e9 {
		t.Errorf("NetBandwidth = %g", got)
	}
	if got := g.MemBandwidth(); got != 2*2400e9+4800e9 {
		t.Errorf("MemBandwidth = %g", got)
	}
	if got := g.HBMBytes(); got != 2*64*GiB+128*GiB {
		t.Errorf("HBMBytes = %d", got)
	}
	if g.Homogeneous() {
		t.Error("mixed group must not be homogeneous")
	}
	if g.String() != "2×tpu-v2+1×tpu-v3" {
		t.Errorf("String = %q", g.String())
	}
}

func TestBisectHeterogeneousSplitsBySpec(t *testing.T) {
	a, _ := NewHeterogeneous(GroupSpec{TPUv2(), 4}, GroupSpec{TPUv3(), 4})
	g := &Group{Accel: a.Accel}
	l, r, err := g.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if !l.Homogeneous() || l.Accel[0].Name != "tpu-v2" || l.Size() != 4 {
		t.Errorf("left = %v", &l)
	}
	if !r.Homogeneous() || r.Accel[0].Name != "tpu-v3" || r.Size() != 4 {
		t.Errorf("right = %v", &r)
	}
}

// TestBisectHeterogeneousViews: a heterogeneous split whose first
// spec's boards come first returns views of the group's members, each
// capped at its own length; one whose boards are interleaved returns
// the halves in a new slice and leaves the group as it was.
func TestBisectHeterogeneousViews(t *testing.T) {
	v2, v3 := TPUv2(), TPUv3()
	g := &Group{Accel: []Spec{v2, v2, v3, v3, v3}}
	l, r, err := g.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 2 || r.Size() != 3 || &l.Accel[0] != &g.Accel[0] || &r.Accel[0] != &g.Accel[2] {
		t.Errorf("grouped split: left %v, right %v, want views of 2 and 3 members", &l, &r)
	}
	if cap(l.Accel) != 2 || cap(r.Accel) != 3 {
		t.Errorf("grouped split: caps %d, %d, want 2, 3", cap(l.Accel), cap(r.Accel))
	}

	mixed := []Spec{v2, v3, v2}
	g = &Group{Accel: slices.Clone(mixed)}
	l, r, err = g.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if l.String() != "2×tpu-v2" || r.String() != "1×tpu-v3" {
		t.Errorf("interleaved split: left %v, right %v", &l, &r)
	}
	if &l.Accel[0] == &g.Accel[0] || !slices.Equal(g.Accel, mixed) {
		t.Error("interleaved split must copy, not reorder the group in place")
	}
}

// TestBuildTreeMatchesBisect: BuildTree, which skips the homogeneity
// scan where it already knows the answer, splits every node exactly as
// Bisect does, on random fleets of three kinds in any order.
func TestBuildTreeMatchesBisect(t *testing.T) {
	kinds := []Spec{TPUv2(), TPUv3(), GPUClassA()}
	var same func(t *Tree, g *Group, level, maxLevels int) bool
	same = func(t *Tree, g *Group, level, maxLevels int) bool {
		if !slices.Equal(t.Group.Accel, g.Accel) || t.Level != level {
			return false
		}
		if level > maxLevels || g.Size() < 2 {
			return t.IsLeaf()
		}
		l, r, err := g.Bisect()
		return err == nil && !t.IsLeaf() &&
			same(t.Left, &l, level+1, maxLevels) && same(t.Right, &r, level+1, maxLevels)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := &Array{}
		for range 1 + r.Intn(40) {
			a.Accel = append(a.Accel, kinds[r.Intn(len(kinds))])
		}
		levels := 1 + r.Intn(8)
		tree, err := BuildTree(a, levels)
		return err == nil && same(tree, &Group{Accel: a.Accel}, 1, levels)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBisectHomogeneousSplitsEvenly(t *testing.T) {
	g := &Group{}
	for i := 0; i < 8; i++ {
		g.Accel = append(g.Accel, TPUv3())
	}
	l, r, err := g.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 4 || r.Size() != 4 {
		t.Errorf("sizes = %d, %d", l.Size(), r.Size())
	}
	if _, _, err := (&Group{Accel: []Spec{TPUv2()}}).Bisect(); err == nil {
		t.Error("singleton bisect must error")
	}
}

func TestBuildTreeFull(t *testing.T) {
	a, _ := NewHomogeneous(TPUv3(), 8)
	tree, err := BuildTree(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 8 = 2^3 accelerators → depth 4 (root level 1 + 3 splits per path).
	if got := tree.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4", got)
	}
	leaves := 0
	tree.Walk(func(n *Tree) {
		if n.IsLeaf() {
			leaves++
			if n.Group.Size() != 1 {
				t.Errorf("leaf group size = %d, want 1", n.Group.Size())
			}
		}
	})
	if leaves != 8 {
		t.Errorf("leaves = %d, want 8", leaves)
	}
}

func TestBuildTreeLevelLimited(t *testing.T) {
	a, _ := NewHomogeneous(TPUv3(), 16)
	tree, err := BuildTree(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	// maxLevels=2: root (level 1) splits, children (level 2) split,
	// grandchildren (level 3) stop.
	if got := tree.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	tree.Walk(func(n *Tree) {
		if n.Level == 3 && !n.IsLeaf() {
			t.Error("level-3 node must be a leaf under maxLevels=2")
		}
	})
	if _, err := BuildTree(a, 0); err == nil {
		t.Error("maxLevels=0 must be rejected")
	}
	if _, err := BuildTree(&Array{}, 1); err == nil {
		t.Error("empty array must be rejected")
	}
}

func TestBuildTreePaperArray(t *testing.T) {
	a, _ := NewHeterogeneous(GroupSpec{TPUv2(), 128}, GroupSpec{TPUv3(), 128})
	tree, err := BuildTree(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	// 256 = 2^8 accelerators → 8 split levels, depth 9.
	if got := tree.Depth(); got != 9 {
		t.Errorf("Depth = %d, want 9", got)
	}
	// Top split must separate the two TPU generations.
	if !tree.Left.Group.Homogeneous() || !tree.Right.Group.Homogeneous() {
		t.Error("top split of the paper array must be homogeneous per side")
	}
	if tree.Left.Group.Accel[0].Name == tree.Right.Group.Accel[0].Name {
		t.Error("top split must separate the TPU generations")
	}
}

// TestPropertyBisectConserves: bisecting any group conserves members,
// compute density, and bandwidth.
func TestPropertyBisectConserves(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &Group{}
		n := 2 + r.Intn(30)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				g.Accel = append(g.Accel, TPUv2())
			} else {
				g.Accel = append(g.Accel, TPUv3())
			}
		}
		l, rr, err := g.Bisect()
		if err != nil {
			// Only possible if one spec dominates entirely and the group is
			// heterogeneous — cannot happen — or size < 2 — cannot happen.
			return false
		}
		if l.Size()+rr.Size() != g.Size() {
			return false
		}
		if l.ComputeDensity()+rr.ComputeDensity() != g.ComputeDensity() {
			return false
		}
		return l.NetBandwidth()+rr.NetBandwidth() == g.NetBandwidth()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyTreeLeavesPartition: the leaves of any tree partition the
// array exactly.
func TestPropertyTreeLeavesPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		a, err := NewHomogeneous(TPUv2(), n)
		if err != nil {
			return false
		}
		tree, err := BuildTree(a, 1+r.Intn(8))
		if err != nil {
			return false
		}
		total := 0
		tree.Walk(func(t *Tree) {
			if t.IsLeaf() {
				total += t.Group.Size()
			}
		})
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
