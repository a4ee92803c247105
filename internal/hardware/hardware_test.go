package hardware

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"accpar/internal/wordhash"
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
	if a.Name != "128×tpu-v2 + 128×tpu-v3" {
		t.Errorf("Name = %q", a.Name)
	}
	// Every group is named in order, adjacent identical groups included.
	b, err := NewHeterogeneous(GroupSpec{TPUv2(), 32}, GroupSpec{TPUv3(), 1000}, GroupSpec{TPUv3(), 7}, GroupSpec{TPUv2(), 32})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "32×tpu-v2 + 1000×tpu-v3 + 7×tpu-v3 + 32×tpu-v2" {
		t.Errorf("Name = %q", b.Name)
	}
	if _, err := NewHeterogeneous(); err == nil {
		t.Error("empty group list must be rejected")
	}
	if _, err := NewHeterogeneous(GroupSpec{TPUv2(), 0}); err == nil {
		t.Error("zero-count group must be rejected")
	}
}

// TestFewBoardsNeverMix: an array or a group of fewer than two boards
// mixes nothing, and asking does not panic.
func TestFewBoardsNeverMix(t *testing.T) {
	one, err := NewHomogeneous(TPUv2(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Array{{}, one} {
		if a.Heterogeneous() {
			t.Errorf("array of %d boards reports heterogeneous", a.Size())
		}
	}
	for _, g := range []*Group{NewGroup(), NewGroup(TPUv3())} {
		if !g.homogeneous() {
			t.Errorf("group of %d boards reports mixed", g.Size())
		}
	}
	if g := NewGroup(); g.Size() != 0 || g.String() != "group{}" || g.ComputeDensity() != 0 {
		t.Errorf("empty group: size %d, %q, %g FLOPS", g.Size(), g, g.ComputeDensity())
	}
}

func TestGroupAggregates(t *testing.T) {
	g := NewGroup(TPUv2(), TPUv2(), TPUv3())
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
	if g.homogeneous() {
		t.Error("mixed group must not be homogeneous")
	}
	if g.String() != "2×tpu-v2+1×tpu-v3" {
		t.Errorf("String = %q", g.String())
	}
}

func TestBisectHeterogeneousSplitsBySpec(t *testing.T) {
	g := NewGroup(append(boards(TPUv2(), 4), boards(TPUv3(), 4)...)...)
	l, r, err := g.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if !l.homogeneous() || l.String() != "4×tpu-v2" {
		t.Errorf("left = %v", l)
	}
	if !r.homogeneous() || r.String() != "4×tpu-v3" {
		t.Errorf("right = %v", r)
	}
}

// TestBisectHeterogeneousViews: a heterogeneous split whose first
// spec's boards come first returns views of the group's runs; one whose
// boards are interleaved returns the halves in a new run list, each
// side's equal boards merged into one run, and leaves the group as it
// was.
func TestBisectHeterogeneousViews(t *testing.T) {
	v2, v3 := TPUv2(), TPUv3()
	g := NewGroup(v2, v2, v3, v3, v3)
	l, r, err := g.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 2 || r.Size() != 3 || &l.runs[0] != &g.runs[0] || &r.runs[0] != &g.runs[1] {
		t.Errorf("grouped split: left %v, right %v, want views of 2 and 3 members", l, r)
	}

	g = NewGroup(v2, v3, v2)
	l, r, err = g.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if l.String() != "2×tpu-v2" || r.String() != "1×tpu-v3" || len(l.runs) != 1 {
		t.Errorf("interleaved split: left %v in %d runs, right %v", l, len(l.runs), r)
	}
	if &l.runs[0] == &g.runs[0] || len(g.runs) != 3 || g.count(0) != 1 || g.String() != "2×tpu-v2+1×tpu-v3" {
		t.Error("interleaved split must copy, not reorder the group in place")
	}
}

// refBisect is Bisect on a plain member list: a group of one spec name
// halves at its middle board; otherwise the boards named like the first
// go left and the rest right, each side in member order.
func refBisect(accel []Spec) (left, right []Spec) {
	name := accel[0].Name
	if !slices.ContainsFunc(accel, func(s Spec) bool { return s.Name != name }) {
		mid := len(accel) / 2
		return accel[:mid], accel[mid:]
	}
	for _, s := range accel {
		if s.Name == name {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	return left, right
}

// refString is Group.String on a plain member list.
func refString(accel []Spec) string {
	counts := map[string]int{}
	var order []string
	for _, s := range accel {
		if counts[s.Name] == 0 {
			order = append(order, s.Name)
		}
		counts[s.Name]++
	}
	parts := make([]string, len(order))
	for i, n := range order {
		parts[i] = fmt.Sprintf("%d×%s", counts[n], n)
	}
	return strings.Join(parts, "+")
}

// refIdentity digests a plain member list board by board, given its
// children's identities (none for a leaf): the member count, each
// maximal run of equal fingerprints and its length, the marker, then
// the children.
func refIdentity(accel []Spec, children ...Identity) Identity {
	h := wordhash.New()
	h.Word(uint64(len(accel)))
	var id Identity
	for i := 0; i < len(accel); {
		fp, j := accel[i].Fingerprint(), i+1
		for j < len(accel) && accel[j].Fingerprint() == fp {
			j++
		}
		h.Word(fp)
		h.Word(uint64(j - i))
		i = j
	}
	for _, s := range accel {
		id.HBMBytes += s.HBMBytes
	}
	if len(children) == 0 {
		h.Word(leafMarker)
		id.CapFloorHalf = id.HBMBytes
	} else {
		h.Word(splitMarker)
		for _, c := range children {
			h.Digest(&c.Digest)
		}
		id.CapFloorHalf = 2 * min(children[0].CapFloorHalf, children[1].CapFloorHalf)
	}
	id.Digest = h.Sum()
	return id
}

// randomArray mixes equal boards in long runs, boards of one name with
// different specs (one at an arbitrary degraded rate), and interleaved
// kinds. It returns the array and its member list.
func randomArray(r *rand.Rand) (*Array, []Spec) {
	slowV2 := TPUv2()
	slowV2.FLOPS /= 3
	slowV3 := TPUv3()
	slowV3.FLOPS /= 1.7
	slowV3.NetBandwidth /= 2.9
	kinds := []Spec{TPUv2(), TPUv3(), GPUClassA(), slowV2, slowV3}
	kinds = kinds[:1+r.Intn(len(kinds))]
	var groups []GroupSpec
	var accel []Spec
	for range 1 + r.Intn(6) {
		g := GroupSpec{kinds[r.Intn(len(kinds))], 1 + r.Intn(40)}
		groups = append(groups, g)
		accel = append(accel, boards(g.Spec, g.Count)...)
	}
	a, err := NewHeterogeneous(groups...)
	if err != nil {
		panic(err)
	}
	return a, accel
}

// TestBuildTreeMatchesBisect: on random arrays under random level
// budgets, BuildTree's tree, expanded position by position, matches a
// reference expansion of plain member lists: level, size, String, the
// four aggregates bit for bit, and the identity. Twin halves are one
// node exactly when the group is one run of identical boards of even
// count.
func TestBuildTreeMatchesBisect(t *testing.T) {
	var match func(t *Tree, accel []Spec, level, maxLevels int) (Identity, error)
	match = func(t *Tree, accel []Spec, level, maxLevels int) (Identity, error) {
		g := t.Group
		var flops, netBW, memBW float64
		var hbm int64
		for _, s := range accel {
			flops += s.FLOPS
			netBW += s.NetBandwidth
			memBW += s.MemBandwidth
			hbm += s.HBMBytes
		}
		bits := math.Float64bits
		switch {
		case t.Level != level || g.Size() != len(accel) || g.String() != refString(accel):
			return Identity{}, fmt.Errorf("level %d: node level %d, %v, want %s", level, t.Level, g, refString(accel))
		case bits(g.ComputeDensity()) != bits(flops) || bits(g.NetBandwidth()) != bits(netBW) ||
			bits(g.MemBandwidth()) != bits(memBW) || g.HBMBytes() != hbm:
			return Identity{}, fmt.Errorf("level %d %v: aggregates differ from the member-order sums", level, g)
		}
		var want Identity
		if level > maxLevels || len(accel) < 2 {
			if !t.IsLeaf() {
				return Identity{}, fmt.Errorf("level %d %v: split past the budget", level, g)
			}
			want = refIdentity(accel)
		} else {
			if t.IsLeaf() {
				return Identity{}, fmt.Errorf("level %d %v: not split", level, g)
			}
			oneRun := !slices.ContainsFunc(accel, func(s Spec) bool { return !sameFingerprintInputs(&s, &accel[0]) })
			if twins := oneRun && len(accel)%2 == 0; (t.Left == t.Right) != twins {
				return Identity{}, fmt.Errorf("level %d %v: halves shared = %v, want %v", level, g, t.Left == t.Right, twins)
			}
			l, r := refBisect(accel)
			lid, err := match(t.Left, l, level+1, maxLevels)
			if err != nil {
				return Identity{}, err
			}
			rid, err := match(t.Right, r, level+1, maxLevels)
			if err != nil {
				return Identity{}, err
			}
			want = refIdentity(accel, lid, rid)
		}
		if got := t.Identity(); !sameIdentity(got, want) {
			return Identity{}, fmt.Errorf("level %d %v: identity %+v, want %+v", level, g, got, want)
		}
		return want, nil
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, accel := randomArray(r)
		levels := 1 + r.Intn(10)
		tree, err := BuildTree(a, levels)
		if err == nil {
			_, err = match(tree, accel, 1, levels)
		}
		if err != nil {
			t.Logf("seed %d, %d boards, %d levels: %v", seed, a.Size(), levels, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuildTreeSharesEqualHalves: twin halves are one node, so the 511
// positions of the 128×TPU-v2 + 128×TPU-v3 hierarchy take 17 nodes: the
// root, and one per level of each kind's chain.
func TestBuildTreeSharesEqualHalves(t *testing.T) {
	a, _ := NewHeterogeneous(GroupSpec{TPUv2(), 128}, GroupSpec{TPUv3(), 128})
	tree, err := BuildTree(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	positions, distinct := 0, map[*Tree]bool{}
	tree.Walk(func(n *Tree) {
		positions++
		distinct[n] = true
	})
	if positions != 511 || len(distinct) > 17 {
		t.Errorf("%d positions in %d nodes, want 511 in at most 17", positions, len(distinct))
	}
}

func TestBisectHomogeneousSplitsEvenly(t *testing.T) {
	g := groupOf(TPUv3(), 8)
	l, r, err := g.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 4 || r.Size() != 4 {
		t.Errorf("sizes = %d, %d", l.Size(), r.Size())
	}
	if _, _, err := NewGroup(TPUv2()).Bisect(); err == nil {
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
	if !tree.Left.Group.homogeneous() || !tree.Right.Group.homogeneous() {
		t.Error("top split of the paper array must be homogeneous per side")
	}
	if tree.Left.Group.String() != "128×tpu-v2" || tree.Right.Group.String() != "128×tpu-v3" {
		t.Error("top split must separate the TPU generations")
	}
}

// TestPropertyBisectConserves: bisecting any group conserves members,
// compute density, and bandwidth.
func TestPropertyBisectConserves(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		accel := make([]Spec, 2+r.Intn(30))
		for i := range accel {
			if r.Intn(2) == 0 {
				accel[i] = TPUv2()
			} else {
				accel[i] = TPUv3()
			}
		}
		g := NewGroup(accel...)
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

// NewGroup returns the group of the given boards, in order.
func NewGroup(accel ...Spec) *Group {
	var s span
	for _, spec := range accel {
		s.add(run{spec: spec, fp: spec.Fingerprint()}, 1)
	}
	return new(Group).set(s)
}
