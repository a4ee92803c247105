package trace

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"accpar/internal/cost"
	"accpar/internal/tensor"
)

func TestSplitShare(t *testing.T) {
	cases := []struct {
		total int
		alpha float64
		want  int
	}{
		{10, 0.5, 5},
		{10, 0.7, 7},
		{10, 0.0, 0},
		{10, 1.0, 10},
		{7, 0.5, 4}, // round half up
		{10, 1.5, 10},
		{10, -0.5, 0},
	}
	for _, c := range cases {
		if got := SplitShare(c.total, c.alpha); got != c.want {
			t.Errorf("SplitShare(%d, %g) = %d, want %d", c.total, c.alpha, got, c.want)
		}
	}
}

func TestAssignmentValidate(t *testing.T) {
	d := tensor.FC(8, 4, 6)
	ok := Assignment{Dims: d, Type: cost.TypeI, Share: 8}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	bad := Assignment{Dims: d, Type: cost.TypeI, Share: 9}
	if err := bad.Validate(); err == nil {
		t.Error("share > B must be rejected")
	}
	if got := (Assignment{Dims: d, Type: cost.TypeII}).PartitionedTotal(); got != 4 {
		t.Errorf("Type-II total = %d, want Di=4", got)
	}
	if got := (Assignment{Dims: d, Type: cost.TypeIII}).PartitionedTotal(); got != 6 {
		t.Errorf("Type-III total = %d, want Do=6", got)
	}
}

// TestRemoteMatchesTable4: the remote traffic of each side equals the
// Table 4 intra-layer communication amount, independent of the ratio.
func TestRemoteMatchesTable4(t *testing.T) {
	d := tensor.Conv(8, 4, 6, 5, 5, 5, 5, 3, 3)
	for _, ty := range cost.Types {
		for _, alpha := range []float64{0.25, 0.5, 0.75} {
			i, j, err := GeneratePair(d, ty, alpha)
			if err != nil {
				t.Fatal(err)
			}
			want := cost.IntraCommElements(ty, d)
			if got := i.Totals()[OpRemoteLoad]; got != want {
				t.Errorf("%v α=%g: side i remote = %d, want %d", ty, alpha, got, want)
			}
			if got := j.Totals()[OpRemoteLoad]; got != want {
				t.Errorf("%v α=%g: side j remote = %d, want %d", ty, alpha, got, want)
			}
		}
	}
}

// TestMultConservation: the multiplications across both sides equal the
// exact single-device count for every phase, type and ratio — partitioning
// redistributes work, it never changes it.
func TestMultConservation(t *testing.T) {
	d := tensor.Conv(8, 4, 6, 5, 5, 5, 5, 3, 3)
	wantByPhase := map[cost.Phase]int64{
		cost.PhaseForward:  d.AFNext() * int64(d.Di*d.KH*d.KW),
		cost.PhaseBackward: d.AF() * int64(d.Do*d.KH*d.KW),
		cost.PhaseGradient: d.AW() * int64(d.B*d.HOut*d.WOut),
	}
	for _, ty := range cost.Types {
		for _, alpha := range []float64{0.25, 0.5, 0.625} {
			i, j, err := GeneratePair(d, ty, alpha)
			if err != nil {
				t.Fatal(err)
			}
			for phase, want := range wantByPhase {
				var got int64
				for _, tr := range []*Trace{i, j} {
					for _, r := range tr.PhaseRecords(phase) {
						if r.Op == OpMult {
							got += r.Elements()
						}
					}
				}
				if got != want {
					t.Errorf("%v α=%g %v: mults = %d, want %d", ty, alpha, phase, got, want)
				}
			}
		}
	}
}

// TestAddsAtLeastSingleDevice: total additions are never below the
// single-device count (psum combination adds the replicated combine step).
func TestAddsAtLeastSingleDevice(t *testing.T) {
	d := tensor.FC(16, 8, 12)
	single := d.AFNext()*int64(d.Di-1) + d.AF()*int64(d.Do-1) + d.AW()*int64(d.B-1)
	for _, ty := range cost.Types {
		i, j, err := GeneratePair(d, ty, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var adds int64
		for _, tr := range []*Trace{i, j} {
			adds += tr.Totals()[OpAdd]
		}
		if adds < single {
			t.Errorf("%v: total adds %d below single-device %d", ty, adds, single)
		}
	}
}

// TestReplicatedTensorLoads: the tensor each type replicates is loaded in
// full by both sides.
func TestReplicatedTensorLoads(t *testing.T) {
	d := tensor.FC(8, 4, 6)
	find := func(tr *Trace, phase cost.Phase, name string) int64 {
		var n int64
		for _, r := range tr.PhaseRecords(phase) {
			if r.Tensor == name && (r.Op == OpLoad) {
				n += r.Elements()
			}
		}
		return n
	}
	// Type-I replicates W_l: both sides load all of it in forward.
	i, j, _ := GeneratePair(d, cost.TypeI, 0.25)
	if find(i, cost.PhaseForward, "W_l") != d.AW() || find(j, cost.PhaseForward, "W_l") != d.AW() {
		t.Error("Type-I: both sides must load the whole kernel")
	}
	// Type-II replicates E_{l+1}: both sides load all of it in backward.
	i, j, _ = GeneratePair(d, cost.TypeII, 0.25)
	if find(i, cost.PhaseBackward, "E_l+1") != d.AFNext() || find(j, cost.PhaseBackward, "E_l+1") != d.AFNext() {
		t.Error("Type-II: both sides must load the whole E_{l+1}")
	}
	// Type-III replicates F_l: both sides load all of it in forward.
	i, j, _ = GeneratePair(d, cost.TypeIII, 0.25)
	if find(i, cost.PhaseForward, "F_l") != d.AF() || find(j, cost.PhaseForward, "F_l") != d.AF() {
		t.Error("Type-III: both sides must load the whole F_l")
	}
}

// TestKernelGranule: CONV kernel records use the KH·KW granule, FC records
// granule 1 — the paper's trace granularity.
func TestKernelGranule(t *testing.T) {
	conv := tensor.Conv(2, 3, 4, 5, 5, 5, 5, 3, 3)
	tr, err := Generate(Assignment{Dims: conv, Type: cost.TypeI, Share: 2})
	if err != nil {
		t.Fatal(err)
	}
	sawKernel := false
	for _, r := range tr.Records {
		if r.Tensor == "W_l" && r.Op == OpLoad {
			sawKernel = true
			if r.Granule != 9 {
				t.Errorf("kernel granule = %d, want 9", r.Granule)
			}
		}
	}
	if !sawKernel {
		t.Fatal("no kernel load traced")
	}
	fc := tensor.FC(2, 3, 4)
	tr, err = Generate(Assignment{Dims: fc, Type: cost.TypeI, Share: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records {
		if r.Tensor == "W_l" && r.Granule != 1 {
			t.Errorf("FC kernel granule = %d, want 1 (element-wise)", r.Granule)
		}
	}
}

// TestZeroShareEmptyTrace: a zero share generates nothing.
func TestZeroShareEmptyTrace(t *testing.T) {
	tr, err := Generate(Assignment{Dims: tensor.FC(4, 4, 4), Type: cost.TypeI, Share: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 0 {
		t.Errorf("zero share produced %d records", len(tr.Records))
	}
}

// TestExpandPreservesTotals: expansion to singleton records preserves every
// per-op total exactly (the justification for aggregated ImageNet traces).
func TestExpandPreservesTotals(t *testing.T) {
	d := tensor.Conv(2, 2, 3, 3, 3, 3, 3, 2, 2)
	tr, err := Generate(Assignment{Dims: d, Type: cost.TypeII, Share: 1})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := tr.Expand(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr.Totals(), exp.Totals()
	for op, v := range a {
		if b[op] != v {
			t.Errorf("%v: expanded %d != aggregated %d", op, b[op], v)
		}
	}
	for _, r := range exp.Records {
		if r.Count != 1 {
			t.Errorf("expanded record has count %d", r.Count)
		}
	}
}

// TestExpandRefusesHugeTraces: the cap protects against materializing
// ImageNet-scale traces.
func TestExpandRefusesHugeTraces(t *testing.T) {
	d := tensor.Conv(64, 64, 128, 56, 56, 56, 56, 3, 3)
	tr, err := Generate(Assignment{Dims: d, Type: cost.TypeI, Share: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Expand(1000); err == nil {
		t.Error("expanding a huge trace under a small cap must fail")
	}
}

// TestTraceAccessors: byte and FLOP accessors agree with totals.
func TestTraceAccessors(t *testing.T) {
	d := tensor.FC(4, 4, 4)
	tr, err := Generate(Assignment{Dims: d, Type: cost.TypeII, Share: 2})
	if err != nil {
		t.Fatal(err)
	}
	tot := tr.Totals()
	if tr.LocalBytes() != (tot[OpLoad]+tot[OpStore])*2 {
		t.Error("LocalBytes mismatch")
	}
	if tr.RemoteBytes() != tot[OpRemoteLoad]*2 {
		t.Error("RemoteBytes mismatch")
	}
	if tr.FLOPs() != tot[OpMult]+tot[OpAdd] {
		t.Error("FLOPs mismatch")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestOpString names all ops.
func TestOpString(t *testing.T) {
	for _, o := range []Op{OpLoad, OpStore, OpMult, OpAdd, OpRemoteLoad} {
		if s := o.String(); s == "" || s[0] == 'O' {
			t.Errorf("op %d has bad name %q", int(o), s)
		}
	}
}

// TestPropertyShareConservation: for random dims, types and ratios the two
// sides' shares always sum to the partitioned total, and the FLOP totals
// never depend on alpha.
func TestPropertyShareConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := tensor.LayerDims{
			B: 1 + r.Intn(8), Di: 1 + r.Intn(8), Do: 1 + r.Intn(8),
			HIn: 1 + r.Intn(4), WIn: 1 + r.Intn(4), HOut: 1 + r.Intn(4), WOut: 1 + r.Intn(4),
			KH: 1 + r.Intn(3), KW: 1 + r.Intn(3),
		}
		ty := cost.Types[r.Intn(3)]
		a1, a2 := r.Float64(), r.Float64()
		i1, j1, err := GeneratePair(d, ty, a1)
		if err != nil {
			return false
		}
		i2, j2, err := GeneratePair(d, ty, a2)
		if err != nil {
			return false
		}
		m1 := i1.Totals()[OpMult] + j1.Totals()[OpMult]
		m2 := i2.Totals()[OpMult] + j2.Totals()[OpMult]
		return m1 == m2 && m1 > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// GeneratePair derives the traces of both accelerators of a bi-partition:
// side i gets SplitShare(total, alpha), side j the remainder.
func GeneratePair(d tensor.LayerDims, t cost.Type, alpha float64) (i, j *Trace, err error) {
	si, sj := pairOf(d, t, alpha)
	i, err = Generate(si)
	if err != nil {
		return nil, nil, err
	}
	j, err = Generate(sj)
	if err != nil {
		return nil, nil, err
	}
	return i, j, nil
}

// PhaseRecords returns the records of one phase.
func (t *Trace) PhaseRecords(p cost.Phase) []Record {
	var out []Record
	for _, r := range t.Records {
		if r.Phase == p {
			out = append(out, r)
		}
	}
	return out
}

// Expand materializes every record as Count singleton records (Granule
// preserved). It refuses traces above maxRecords to protect callers from
// accidentally expanding an ImageNet-scale trace.
func (t *Trace) Expand(maxRecords int64) (*Trace, error) {
	var total int64
	for _, r := range t.Records {
		total += r.Count
	}
	if total > maxRecords {
		return nil, fmt.Errorf("trace: expansion needs %d records, cap is %d", total, maxRecords)
	}
	out := &Trace{Records: make([]Record, 0, total)}
	for _, r := range t.Records {
		for i := int64(0); i < r.Count; i++ {
			out.Records = append(out.Records, Record{Phase: r.Phase, Op: r.Op, Tensor: r.Tensor, Count: 1, Granule: r.Granule})
		}
	}
	return out, nil
}
