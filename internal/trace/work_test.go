package trace

import (
	"math"
	"math/rand"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/models"
	"accpar/internal/tensor"
)

// recordWork sums one phase of a materialized trace the way a simulation
// priced records before work tables: record by record, in trace order.
func recordWork(tr *Trace, p cost.Phase) PhaseWork {
	var w PhaseWork
	for _, r := range tr.Records {
		if r.Phase != p {
			continue
		}
		switch r.Op {
		case OpMult, OpAdd:
			w.FLOPs += float64(r.Elements())
		case OpLoad, OpStore:
			w.LocalBytes += float64(r.Elements()) * tensor.BytesPerElement
		case OpRemoteLoad:
			w.RemoteBytes += float64(r.Elements()) * tensor.BytesPerElement
		}
	}
	return w
}

// checkWork fails unless WorkOf(a) equals the per-phase sums over
// Generate(a)'s records bit for bit.
func checkWork(t *testing.T, what string, a Assignment) {
	t.Helper()
	tr, err := Generate(a)
	if err != nil {
		t.Fatalf("%s: Generate: %v", what, err)
	}
	w, err := WorkOf(a)
	if err != nil {
		t.Fatalf("%s: WorkOf: %v", what, err)
	}
	for p := range w {
		got, want := w[p], recordWork(tr, cost.Phase(p))
		for _, f := range [...]struct {
			name      string
			got, want float64
		}{
			{"FLOPs", got.FLOPs, want.FLOPs},
			{"LocalBytes", got.LocalBytes, want.LocalBytes},
			{"RemoteBytes", got.RemoteBytes, want.RemoteBytes},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("%s %v: %s = %v in the table, %v over the records", what, cost.Phase(p), f.name, f.got, f.want)
			}
		}
	}
}

// TestWorkTableMatchesRecords: the work table a simulation prices equals
// the per-phase sums over the records Generate emits, for every type, on
// random dims, at every share (zero and whole included) of small dims,
// and on every unit of every registered model at batches 1, 64 and 512.
// The pair form must split as GeneratePair does.
func TestWorkTableMatchesRecords(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	// Extents reach 8192 (batch and channels) and 128 (spatial), so many
	// sums pass 2^53 and round: the table must add its terms in record
	// order, not merely add up the same terms. A table that sums a phase's
	// FLOPs in reverse order fails here.
	for trial := 0; trial < 2000; trial++ {
		d := tensor.LayerDims{
			B: 1 + rnd.Intn(8192), Di: 1 + rnd.Intn(8192), Do: 1 + rnd.Intn(8192),
			HIn: 1 + rnd.Intn(128), WIn: 1 + rnd.Intn(128), HOut: 1 + rnd.Intn(128), WOut: 1 + rnd.Intn(128),
			KH: 1 + rnd.Intn(3), KW: 1 + rnd.Intn(3),
		}
		for _, ty := range cost.Types {
			a := Assignment{Dims: d, Type: ty}
			a.Share = rnd.Intn(a.PartitionedTotal() + 1)
			checkWork(t, "random", a)
		}
	}

	for _, d := range []tensor.LayerDims{
		tensor.FC(1, 1, 1),
		tensor.FC(5, 3, 7),
		tensor.Conv(4, 3, 6, 5, 5, 5, 5, 3, 3),
		tensor.Conv(7, 1, 2, 3, 3, 1, 1, 3, 3),
	} {
		for _, ty := range cost.Types {
			a := Assignment{Dims: d, Type: ty}
			for share := 0; share <= a.PartitionedTotal(); share++ {
				a.Share = share
				checkWork(t, "small", a)
			}
		}
	}

	for _, name := range models.Names() {
		for _, batch := range []int{1, 64, 512} {
			net, err := models.BuildNetwork(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range net.Units() {
				for _, ty := range cost.Types {
					for _, alpha := range []float64{cost.MinRatio, 0.3, 0.5} {
						i, j, err := WorkPair(u.Dims, ty, alpha)
						if err != nil {
							t.Fatal(err)
						}
						ai, aj := pairOf(u.Dims, ty, alpha)
						for _, side := range [...]struct {
							a Assignment
							w Work
						}{{ai, i}, {aj, j}} {
							checkWork(t, name, side.a)
							if want, _ := WorkOf(side.a); side.w != want {
								t.Fatalf("%s/%d %s %v α=%g: WorkPair side %v, WorkOf %v", name, batch, u.Name, ty, alpha, side.w, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestZeroShareNoWork: a zero share's table is empty, as its trace is.
func TestZeroShareNoWork(t *testing.T) {
	for _, ty := range cost.Types {
		w, err := WorkOf(Assignment{Dims: tensor.FC(4, 4, 4), Type: ty})
		if err != nil {
			t.Fatal(err)
		}
		if w != (Work{}) {
			t.Errorf("%v: zero share has work %v", ty, w)
		}
	}
}

// TestWorkOfRejectsInvalid: WorkOf validates as Generate does.
func TestWorkOfRejectsInvalid(t *testing.T) {
	if _, err := WorkOf(Assignment{Dims: tensor.FC(8, 4, 6), Type: cost.TypeI, Share: 9}); err == nil {
		t.Error("share > B must be rejected")
	}
}
