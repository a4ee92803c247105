package core_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"accpar"
	"accpar/internal/core"
	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/models"
)

// referenceJSON is the oracle WriteJSON is pinned to: encoding/json's
// indented encoding of the typed wire view.
func referenceJSON(p *core.Plan) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.ToJSON()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkMatchesReference asserts WriteJSON and AppendJSON agree with the
// reference byte for byte, or all fail together with nothing written.
func checkMatchesReference(t *testing.T, name string, p *core.Plan) {
	t.Helper()
	want, wantErr := referenceJSON(p)
	var got bytes.Buffer
	err := p.WriteJSON(&got)
	prefix := []byte("prefix")
	appended, appendErr := p.AppendJSON(prefix)
	if wantErr != nil {
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) || !errors.As(appendErr, &uve) {
			t.Fatalf("%s: reference fails with %v; WriteJSON = %v, AppendJSON = %v, want *json.UnsupportedValueError", name, wantErr, err, appendErr)
		}
		if got.Len() != 0 || string(appended) != "prefix" {
			t.Fatalf("%s: failed encode wrote %d bytes and appended %q", name, got.Len(), appended[len(prefix):])
		}
		return
	}
	if err != nil || appendErr != nil {
		t.Fatalf("%s: WriteJSON = %v, AppendJSON = %v; reference succeeds", name, err, appendErr)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: WriteJSON differs from encoding/json at byte %d:\ngot:  %q\nwant: %q",
			name, firstDiff(got.Bytes(), want), clip(got.Bytes(), want), clip(want, got.Bytes()))
	}
	if !bytes.Equal(appended[len(prefix):], want) || string(appended[:len(prefix)]) != "prefix" {
		t.Fatalf("%s: AppendJSON does not append the WriteJSON document", name)
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// clip returns a's bytes around its first difference from b.
func clip(a, b []byte) []byte {
	i := firstDiff(a, b)
	lo, hi := max(i-60, 0), min(i+60, len(a))
	return a[lo:hi]
}

// TestWriteJSONMatchesEncodingJSON pins the hand-streamed encoder to
// encoding/json on real plans: every model, four fleets, every
// strategy, plus inference, memory-penalize and Adam variants. The
// decoded document must also equal the typed wire view. The 256-board
// homogeneous fleet's root split has one shared child, so its plans take
// the encoder's sibling-copy path from the root down.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	sess := accpar.NewSession(0)
	type variant struct {
		name string
		opt  func() accpar.Options
	}
	variants := []variant{}
	for _, st := range accpar.Strategies {
		variants = append(variants, variant{st.String(), st.Options})
	}
	variants = append(variants,
		variant{"inference", func() accpar.Options {
			o := accpar.StrategyAccPar.Options()
			o.Mode = accpar.ModeInference
			return o
		}},
		variant{"penalize", func() accpar.Options {
			o := accpar.StrategyAccPar.Options()
			o.MemoryLimit = accpar.MemoryPenalize
			return o
		}},
		variant{"adam", func() accpar.Options {
			o := accpar.StrategyAccPar.Options()
			o.Optimizer = accpar.OptimizerAdam
			return o
		}})
	fleets := [][2]int{{64, 64}, {32, 96}, {128, 128}, {0, 256}}
	for _, model := range models.Names() {
		net, err := accpar.BuildModel(model, 512)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fleets {
			arr, err := accpar.TPUFleet(f[0], f[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				name := fmt.Sprintf("%s@%d+%d/%s", model, f[0], f[1], v.name)
				p, err := sess.PartitionWithOptions(net, arr, v.opt(), 64)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if f[0] == 0 && p.Root.Left != p.Root.Right {
					t.Fatalf("%s: the homogeneous root split does not share its child", name)
				}
				checkMatchesReference(t, name, p)
				var buf bytes.Buffer
				if err := p.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				back, err := core.ReadPlanJSON(&buf)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(back, p.ToJSON()) {
					t.Fatalf("%s: decoded plan differs from ToJSON", name)
				}
			}
		}
	}
}

func resnet50Plan(tb testing.TB) *core.Plan {
	tb.Helper()
	net, err := accpar.BuildModel("resnet50", 512)
	if err != nil {
		tb.Fatal(err)
	}
	arr, err := accpar.HeterogeneousArray(
		accpar.ArrayGroup{Spec: accpar.TPUv2(), Count: 128},
		accpar.ArrayGroup{Spec: accpar.TPUv3(), Count: 128})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := accpar.PartitionWithOptions(net, arr, accpar.StrategyAccPar.Options(), 64)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestWriteJSONAllocs holds steady-state WriteJSON into a reused buffer
// to no allocations: the document is streamed from the plan tree
// straight into the buffer, with no scratch copy and no intermediate
// wire tree.
func TestWriteJSONAllocs(t *testing.T) {
	p := resnet50Plan(t)
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(50, func() {
		buf.Reset()
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteJSON: %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkPlanWriteJSON(b *testing.B) {
	p := resnet50Plan(b)
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := p.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// fuzzPlan decodes an arbitrary byte string into a plan. Every split
// consumes input and exhausted input reads as zeros (a leaf), so a tree
// holds no more nodes than its input has bytes; depth is capped past the
// indent that needs more than one run of indentSpaces. A split may link
// one child on both sides, as the planner does for the equal halves of a
// homogeneous group, so the document repeats that subtree. Each shared
// split doubles the positions below it, so a node splits only while the
// positions placed so far stay under maxFuzzPositions.
type fuzzPlan struct {
	data      []byte
	positions int
}

// maxFuzzPositions caps the node positions a fuzzed document expands to:
// a chain of 40 shared splits would otherwise expand to 2^40.
const maxFuzzPositions = 4096

func (d *fuzzPlan) u8() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *fuzzPlan) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], d.data)
	d.data = d.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// fuzzFloats are the values whose encoding takes a distinct path:
// signed zeros, the 'f'/'e' cutoffs, subnormals, extremes, non-finites.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21,
	5e-324, 2.2250738585072014e-308, 1e-300, 1e300, math.MaxFloat64,
	123456789.125, 1.5e-9, math.NaN(), math.Inf(1), math.Inf(-1),
}

func (d *fuzzPlan) f64() float64 {
	sel := d.u8()
	switch {
	case int(sel) < len(fuzzFloats):
		return fuzzFloats[sel]
	case sel < 0xC0:
		// 53-bit mantissas scaled by 10^(3k), k in [-100, 100].
		k := max(min(int(int8(d.u8())), 100), -100)
		return float64(int64(d.u64())>>11) * math.Pow(10, float64(k)*3)
	default:
		return math.Float64frombits(d.u64())
	}
}

// fuzzRunes are string fragments encoding/json escapes or replaces.
var fuzzRunes = []string{
	"<", ">", "&", `"`, `\`, "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"\u2028", "\u2029", "\xff", "\xe2\x80", "\xc0\xaf", "é", "\U0001F600", "\ufffd",
}

func (d *fuzzPlan) str() string {
	n := int(d.u8() % 24)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		c := d.u8()
		if c >= 0xE0 {
			sb.WriteString(fuzzRunes[int(c-0xE0)%len(fuzzRunes)])
			continue
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

func (d *fuzzPlan) types() []cost.Type {
	switch n := int(d.u8() % 8); n {
	case 0:
		return nil
	case 1:
		return []cost.Type{}
	default:
		out := make([]cost.Type, n-1)
		for i := range out {
			out[i] = cost.Type(d.u8() % 4) // 3 is out of range: "?"
		}
		return out
	}
}

// node decodes a node that the document writes at copies positions.
func (d *fuzzPlan) node(depth, copies int) *core.PlanNode {
	d.positions += copies
	n := &core.PlanNode{
		GroupDesc: d.str(),
		Alpha:     d.f64(),
		Types:     d.types(),
	}
	if split := d.u8(); depth < 40 && d.positions < maxFuzzPositions && split&1 == 1 {
		n.Eval.CommTime = d.f64()
		n.Eval.CommBytes = d.f64()
		if split&2 == 2 {
			n.Left = d.node(depth+1, 2*copies)
			n.Right = n.Left
			return n
		}
		n.Left = d.node(depth+1, copies)
		n.Right = d.node(depth+1, copies)
		return n
	}
	n.LeafComputeTime = d.f64()
	n.LeafMemTime = d.f64()
	n.LeafCommTime = d.f64()
	n.LeafResidencyBytes = int64(d.u64()) >> (d.u8() % 64)
	n.LeafHBMBytes = -int64(d.u8())
	return n
}

func (d *fuzzPlan) plan() *core.Plan {
	net := &dnn.Network{Name: d.str(), Batch: int(int32(d.u64()))}
	for i := int(d.u8() % 5); i > 0; i-- {
		if d.u8()&1 == 0 {
			net.Segments = append(net.Segments, dnn.Segment{Unit: &dnn.WeightedLayer{Name: d.str()}})
			continue
		}
		var paths []dnn.Chain
		for j := int(d.u8() % 3); j > 0; j-- {
			var chain dnn.Chain
			for k := int(d.u8() % 3); k > 0; k-- {
				chain = append(chain, dnn.WeightedLayer{Name: d.str()})
			}
			paths = append(paths, chain)
		}
		net.Segments = append(net.Segments, dnn.Segment{Paths: paths})
	}
	return &core.Plan{Network: net, Strategy: d.str(), Root: d.node(0, 1)}
}

// FuzzPlanJSONEncode: on any plan tree WriteJSON and AppendJSON match
// encoding/json byte for byte, and a non-finite value fails them with an
// *json.UnsupportedValueError and nothing written.
func FuzzPlanJSONEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05net<&>\x02\x01\x04\x07\x01\xe3\xe4\xe5\xed\xee\x02\x04\x0e\x0f\x10\x11\x01\x06\x08\x09\x01\x02"))
	f.Add([]byte("\x10\xff\xe0\xe1\xe2\xe3\xe4\xe5\xe6\xe7\xe8\xe9\xea\xeb\xec\xed\xee\xef\x00\x80"))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x01\x07\x01\x03\x00\x00\x12\x01\x0b\x0c\x00\x13\x14\x15"))
	f.Add(bytes.Repeat([]byte{0xC1, 0xFF, 0x3F, 0x01, 0x80, 0x7F}, 40))
	f.Add(bytes.Repeat([]byte{0x81, 0x90, 0xA0, 0x01, 0x05, 0x09, 0x0D}, 60))
	f.Add(bytes.Repeat([]byte{0x01}, 600)) // a split chain deeper than 32 levels
	f.Add(bytes.Repeat([]byte{0x03}, 600)) // shared splits until the position cap
	f.Add(bytes.Repeat([]byte{0x01, 0x03, 0x41, 0x07}, 150))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzPlan{data: data}
		checkMatchesReference(t, "fuzz", d.plan())
	})
}
