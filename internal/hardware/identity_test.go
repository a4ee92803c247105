package hardware

import (
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"
)

// v2v3Tree builds the n×TPU-v2 + n×TPU-v3 hierarchy, with group
// degradations applied first when degs is non-nil.
func v2v3Tree(t *testing.T, n int, degs map[int]Degradation) *Tree {
	t.Helper()
	groups := []GroupSpec{{Spec: TPUv2(), Count: n}, {Spec: TPUv3(), Count: n}}
	if degs != nil {
		var err error
		if groups, err = DegradeGroups(groups, degs); err != nil {
			t.Fatal(err)
		}
	}
	arr, err := NewHeterogeneous(groups...)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// slowV3 slows the TPU-v3 group's compute by 2×.
var slowV3 = map[int]Degradation{1: {Compute: 2, MemBW: 1, NetBW: 1}}

func leftmostLeaf(t *Tree) *Tree {
	for !t.IsLeaf() {
		t = t.Left
	}
	return t
}

func rightmostLeaf(t *Tree) *Tree {
	for !t.IsLeaf() {
		t = t.Right
	}
	return t
}

func sameIdentity(a, b Identity) bool {
	return a.Digest == b.Digest &&
		a.HBMBytes == b.HBMBytes && a.CapFloorHalf == b.CapFloorHalf
}

// nodes returns the tree's nodes in pre-order.
func nodes(t *Tree) []*Tree {
	var out []*Tree
	t.Walk(func(n *Tree) { out = append(out, n) })
	return out
}

// TestIdentityPinnedDigests pins the run-length wordhash digests of a
// fixed pristine and degraded fleet. Digests live only in memory, so
// they may change between versions; subproblem keys are built from these
// bytes, so the pin guards that digesting is deterministic and that any
// change to it is deliberate.
func TestIdentityPinnedDigests(t *testing.T) {
	pristine := v2v3Tree(t, 128, nil)
	degraded := v2v3Tree(t, 128, slowV3)
	for _, c := range []struct {
		name string
		node *Tree
		want string
	}{
		{"pristine root", pristine, "6212b39ca24d1d7394cbce8d0f358a4d"},
		{"pristine v2 leaf", leftmostLeaf(pristine), "821101872be2095fd70238a920fbc3c5"},
		{"pristine v3 leaf", rightmostLeaf(pristine), "72e0b42202f8856aa1bdfa6ef226e7b4"},
		{"degraded root", degraded, "8b54367c3d4f4a7f849b3dc2f36bc426"},
		{"degraded v2 leaf", leftmostLeaf(degraded), "821101872be2095fd70238a920fbc3c5"},
		{"degraded v3 leaf", rightmostLeaf(degraded), "737fe2b6c155cde7bfd27311d7505d1f"},
	} {
		d := c.node.Identity().Digest
		if got := hex.EncodeToString(d[:]); got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
		}
	}
	id := pristine.Identity()
	if id.HBMBytes != 24<<40 {
		t.Errorf("root HBM = %d, want 24 TiB", id.HBMBytes)
	}
	// 64 GiB v2 leaves, eight levels below the root.
	if id.CapFloorHalf != 16<<40 {
		t.Errorf("root equal-ratio floor = %d, want 16 TiB", id.CapFloorHalf)
	}
}

// TestIdentitySameContent: separately built trees with the same content
// agree node for node, and the two halves of a homogeneous group digest
// equally.
func TestIdentitySameContent(t *testing.T) {
	a, b := nodes(v2v3Tree(t, 8, nil)), nodes(v2v3Tree(t, 8, nil))
	if len(a) != len(b) {
		t.Fatalf("trees have %d and %d nodes", len(a), len(b))
	}
	for i := range a {
		if !sameIdentity(a[i].Identity(), b[i].Identity()) {
			t.Fatalf("node %d (level %d, %s) identities differ", i, a[i].Level, a[i].Group)
		}
	}
	v3 := a[0].Right
	if v3.Left.Identity().Digest != v3.Right.Identity().Digest {
		t.Error("halves of a homogeneous group digest differently")
	}
	if a[0].Left.Identity().Digest == v3.Identity().Digest {
		t.Error("the v2 and v3 groups digest equally")
	}
}

// TestIdentitySpecRuns: a node's spec list is digested as its runs of
// equal fingerprints, so member order and run lengths both count —
// leaves [A,B,A], [A,A,B] and [A,B,B] digest apart — while a list
// rebuilt from copies of the same specs digests the same. Specs that
// differ only in a float's sign bit fingerprint apart, so they must not
// be folded into one run.
func TestIdentitySpecRuns(t *testing.T) {
	a, b := TPUv2(), TPUv3()
	leaf := func(accel ...Spec) [16]byte {
		return (&Tree{Group: NewGroup(accel...), Level: 1}).Identity().Digest
	}
	aba, aab, abb := leaf(a, b, a), leaf(a, a, b), leaf(a, b, b)
	if aba == aab || aab == abb || aba == abb {
		t.Errorf("[A,B,A] %x, [A,A,B] %x, [A,B,B] %x: want three distinct digests", aba, aab, abb)
	}
	a2, b2 := TPUv2(), TPUv3()
	if leaf(a2, a2, b2) != aab {
		t.Error("copies of the same specs digest differently")
	}
	if leaf(a) == leaf(a, a) {
		t.Error("one board and two boards of a spec digest equally")
	}
	pos, neg := a, a
	pos.NetBandwidth, neg.NetBandwidth = 0, math.Copysign(0, -1)
	if pos.Fingerprint() == neg.Fingerprint() {
		t.Fatal("±0 bandwidths fingerprint equally; the sign case is moot")
	}
	if leaf(pos, neg) == leaf(pos, pos) {
		t.Error("specs differing in a float's sign bit were folded into one run")
	}
}

// TestIdentityAcrossBuilds: content-equal subtrees of two different
// fleets, each from its own BuildTree call, digest equally — the 4×v3
// block is the right half of one fleet and the left half of the other.
func TestIdentityAcrossBuilds(t *testing.T) {
	build := func(groups ...GroupSpec) *Tree {
		arr, err := NewHeterogeneous(groups...)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BuildTree(arr, 64)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	x := build(GroupSpec{Spec: TPUv2(), Count: 4}, GroupSpec{Spec: TPUv3(), Count: 4})
	y := build(GroupSpec{Spec: TPUv3(), Count: 4}, GroupSpec{Spec: TPUv2(), Count: 8})
	if !sameIdentity(x.Right.Identity(), y.Left.Identity()) {
		t.Error("the 4×v3 block digests differently in two fleets")
	}
	if x.Identity().Digest == y.Identity().Digest {
		t.Error("different fleets digest equally")
	}
}

// TestIdentityLevelIndependent: a block digests the same as a whole tree
// and as a subtree at depth 2 of a larger fleet.
func TestIdentityLevelIndependent(t *testing.T) {
	arr, err := NewHomogeneous(TPUv3(), 8)
	if err != nil {
		t.Fatal(err)
	}
	block, err := BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	sub := v2v3Tree(t, 8, nil).Right
	if block.Level == sub.Level {
		t.Fatalf("both nodes at level %d; the test needs different depths", sub.Level)
	}
	if !sameIdentity(block.Identity(), sub.Identity()) {
		t.Error("the same block at different depths has different identities")
	}
}

// TestIdentityDegradedSpec: degrading one group changes the digest of
// every subtree containing it and of nothing else.
func TestIdentityDegradedSpec(t *testing.T) {
	pristine, degraded := v2v3Tree(t, 4, nil), v2v3Tree(t, 4, slowV3)
	p, d := pristine.Identity(), degraded.Identity()
	if p.Digest == d.Digest {
		t.Error("degraded root digests like the pristine root")
	}
	if !sameIdentity(pristine.Left.Identity(), degraded.Left.Identity()) {
		t.Error("untouched v2 subtree changed identity")
	}
	if pristine.Right.Identity().Digest == degraded.Right.Identity().Digest {
		t.Error("degraded v3 subtree kept its digest")
	}
}

// TestIdentityHandBuilt: a tree assembled without BuildTree gets the
// identity BuildTree's tree of the same content gets.
func TestIdentityHandBuilt(t *testing.T) {
	v2, v3 := TPUv2(), TPUv3()
	hand := &Tree{
		Group: NewGroup(v2, v3),
		Level: 1,
		Left:  &Tree{Group: NewGroup(v2), Level: 2},
		Right: &Tree{Group: NewGroup(v3), Level: 2},
	}
	built := v2v3Tree(t, 1, nil)
	got := hand.Identity()
	if !sameIdentity(got, built.Identity()) {
		t.Error("hand-built tree's identity differs from BuildTree's")
	}
	if got.HBMBytes != v2.HBMBytes+v3.HBMBytes {
		t.Errorf("HBM = %d, want %d", got.HBMBytes, v2.HBMBytes+v3.HBMBytes)
	}
	if got.CapFloorHalf != 2*v2.HBMBytes {
		t.Errorf("equal-ratio floor = %d, want %d", got.CapFloorHalf, 2*v2.HBMBytes)
	}
}

// undigested returns a copy of t's nodes, over the same groups, whose
// identities are not yet computed (BuildTree digests the trees it
// returns).
func undigested(t *Tree) *Tree {
	c := &Tree{Group: t.Group, Level: t.Level}
	if !t.IsLeaf() {
		c.Left, c.Right = undigested(t.Left), undigested(t.Right)
	}
	return c
}

// TestIdentityConcurrentFirstCalls: goroutines racing to compute a fresh
// tree's identities, from the root and from the leaves up, all agree
// with a serially computed reference.
func TestIdentityConcurrentFirstCalls(t *testing.T) {
	want := nodes(v2v3Tree(t, 32, nil))
	got := nodes(undigested(v2v3Tree(t, 32, nil)))
	var wg sync.WaitGroup
	errs := make(chan int, 8*len(got))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range got {
				i := k
				if w%2 == 1 {
					i = len(got) - 1 - k
				}
				if !sameIdentity(got[i].Identity(), want[i].Identity()) {
					errs <- i
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for i := range errs {
		t.Fatalf("node %d identity differs from the serial reference", i)
	}
}

// shape is a hand-built hierarchy: a leaf of n boards, or a split into
// two shapes.
type shape struct {
	n    int
	l, r *shape
}

func leafOf(n int) *shape        { return &shape{n: n} }
func splitOf(l, r *shape) *shape { return &shape{l: l, r: r} }

func (s *shape) size() int {
	if s.l == nil {
		return s.n
	}
	return s.l.size() + s.r.size()
}

// handTree builds s over accel, every node its own group.
func handTree(accel []Spec, s *shape, level int) *Tree {
	t := &Tree{Group: NewGroup(accel...), Level: level}
	if s.l != nil {
		k := s.l.size()
		t.Left = handTree(accel[:k], s.l, level+1)
		t.Right = handTree(accel[k:], s.r, level+1)
	}
	return t
}

// TestIdentityTwinHalves: a group of equal boards split into halves of
// equal size digests its halves equally only when they also have the
// same shape. BuildTree, which makes twin halves one node, digests the
// twins' tree as the hand-built one.
func TestIdentityTwinHalves(t *testing.T) {
	for _, c := range []struct {
		name  string
		s     *shape
		twins bool
	}{
		{"twins", splitOf(splitOf(leafOf(2), leafOf(2)), splitOf(leafOf(2), leafOf(2))), true},
		{"split vs leaf", splitOf(splitOf(leafOf(2), leafOf(2)), leafOf(4)), false},
		{"deeper mismatch", splitOf(
			splitOf(leafOf(2), splitOf(leafOf(1), leafOf(1))),
			splitOf(splitOf(leafOf(1), leafOf(1)), leafOf(2))), false},
		{"uneven below", splitOf(
			splitOf(leafOf(1), leafOf(3)),
			splitOf(leafOf(3), leafOf(1))), false},
	} {
		accel := make([]Spec, c.s.size())
		for i := range accel {
			accel[i] = TPUv3()
		}
		hand := handTree(accel, c.s, 1)
		if got := hand.Left.Identity().Digest == hand.Right.Identity().Digest; got != c.twins {
			t.Errorf("%s: halves digest equally = %v, want %v", c.name, got, c.twins)
		}
		if !c.twins {
			continue
		}
		arr, err := NewHomogeneous(TPUv3(), len(accel))
		if err != nil {
			t.Fatal(err)
		}
		built, err := BuildTree(arr, 2)
		if err != nil {
			t.Fatal(err)
		}
		if built.Left != built.Right || !sameIdentity(built.Identity(), hand.Identity()) {
			t.Errorf("%s: BuildTree's shared halves digest apart from the hand-built tree", c.name)
		}
	}
}

// TestIdentityTwinNeedsMembers: halves of equal size and shape whose
// right half does not hold its parent's boards keep their own identity.
func TestIdentityTwinNeedsMembers(t *testing.T) {
	v3 := []Spec{TPUv3(), TPUv3()}
	other := &Tree{Group: NewGroup(TPUv2()), Level: 2}
	hand := &Tree{
		Group: NewGroup(v3...),
		Level: 1,
		Left:  &Tree{Group: NewGroup(v3[0]), Level: 2},
		Right: other,
	}
	hand.Identity()
	lone := &Tree{Group: NewGroup(TPUv2()), Level: 1}
	if !sameIdentity(other.Identity(), lone.Identity()) {
		t.Error("a right half holding other boards took its sibling's identity")
	}
}

// BenchmarkBuildTree times BuildTree, which digests the tree it builds,
// on two fleets.
func BenchmarkBuildTree(b *testing.B) {
	for _, n := range []int{64, 128} {
		arr, err := NewHeterogeneous(GroupSpec{Spec: TPUv2(), Count: n}, GroupSpec{Spec: TPUv3(), Count: n})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%d+%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildTree(arr, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
