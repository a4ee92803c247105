package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"accpar/internal/cost"
	"accpar/internal/dnn"
)

// This file serializes plans so downstream tooling (schedulers, runtime
// launchers, dashboards) can consume partitioning decisions without
// linking the search engine.

// PlanJSON is the typed view of a plan document: what ReadPlanJSON
// decodes and ToJSON builds. The document itself is written by
// AppendJSON without going through this type.
type PlanJSON struct {
	Network  string        `json:"network"`
	Batch    int           `json:"batch"`
	Strategy string        `json:"strategy"`
	Units    []string      `json:"units"`
	TimeSec  float64       `json:"time_sec"`
	Root     *PlanNodeJSON `json:"root"`
}

// PlanNodeJSON is the wire form of one PlanNode.
type PlanNodeJSON struct {
	Level          int           `json:"level"`
	Group          string        `json:"group"`
	Alpha          float64       `json:"alpha,omitempty"`
	Types          []string      `json:"types,omitempty"`
	CommTimeSec    float64       `json:"comm_time_sec,omitempty"`
	CommBytes      float64       `json:"comm_bytes,omitempty"`
	LeafComputeSec float64       `json:"leaf_compute_sec,omitempty"`
	LeafMemSec     float64       `json:"leaf_mem_sec,omitempty"`
	LeafCommSec    float64       `json:"leaf_comm_sec,omitempty"`
	ResidencyBytes int64         `json:"residency_bytes,omitempty"`
	HBMBytes       int64         `json:"hbm_bytes,omitempty"`
	Left           *PlanNodeJSON `json:"left,omitempty"`
	Right          *PlanNodeJSON `json:"right,omitempty"`
}

// ToJSON converts the plan to its typed wire view; WriteJSON's document
// decodes to exactly this value.
func (p *Plan) ToJSON() *PlanJSON {
	units := p.Network.Units()
	names := make([]string, len(units))
	for i, u := range units {
		names[i] = u.Name
	}
	var conv func(n *PlanNode, level int) *PlanNodeJSON
	conv = func(n *PlanNode, level int) *PlanNodeJSON {
		if n == nil {
			return nil
		}
		out := &PlanNodeJSON{
			Level: level,
			Group: n.GroupDesc,
		}
		if n.IsLeaf() {
			out.LeafComputeSec = n.LeafComputeTime
			out.LeafMemSec = n.LeafMemTime
			out.LeafCommSec = n.LeafCommTime
			out.ResidencyBytes = n.LeafResidencyBytes
			out.HBMBytes = n.LeafHBMBytes
			return out
		}
		out.Alpha = n.Alpha
		out.Types = make([]string, len(n.Types))
		for i, t := range n.Types {
			out.Types[i] = t.Short()
		}
		out.CommTimeSec = n.Eval.CommTime
		out.CommBytes = n.Eval.CommBytes
		out.Left = conv(n.Left, level+1)
		out.Right = conv(n.Right, level+1)
		return out
	}
	return &PlanJSON{
		Network:  p.Network.Name,
		Batch:    p.Network.Batch,
		Strategy: p.Strategy,
		Units:    names,
		TimeSec:  p.Time(),
		Root:     conv(p.Root, 1),
	}
}

// WriteJSON writes the plan as indented JSON — the document AppendJSON
// produces — with a single w.Write. On error nothing is written.
//
// A *bytes.Buffer gets the document appended straight into its spare
// capacity, so a caller that reuses its buffer encodes with no scratch
// memory at all. There is deliberately no sync.Pool of scratch buffers:
// a collection drops a pooled buffer whenever the caller has moved to
// another P, and each refill regrows the whole document, so the cost
// of an encode would follow the garbage collector's rhythm.
func (p *Plan) WriteJSON(w io.Writer) error {
	var dst []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		dst = buf.AvailableBuffer()
	}
	b, err := p.AppendJSON(dst)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// AppendJSON appends the plan's JSON document to dst and returns the
// extended buffer. The bytes, trailing newline included, are exactly
// what encoding/json's Encoder with SetIndent("", "  ") writes for
// ToJSON(): the same member order and omitempty rules, float form and
// HTML-safe string escaping. A NaN or infinite value makes it return dst
// unchanged and an error wrapping *json.UnsupportedValueError.
func (p *Plan) AppendJSON(dst []byte) ([]byte, error) {
	e := planEncoder{b: dst}
	e.b = append(e.b, '{')
	e.key(1, "network", true)
	e.string(p.Network.Name)
	e.key(1, "batch", false)
	e.b = strconv.AppendInt(e.b, int64(p.Network.Batch), 10)
	e.key(1, "strategy", false)
	e.string(p.Strategy)
	e.key(1, "units", false)
	e.b = append(e.b, '[')
	units := 0
	eachUnit(p.Network, func(u *dnn.WeightedLayer) {
		e.item(2, units)
		e.string(u.Name)
		units++
	})
	e.closeArray(1, units)
	e.key(1, "time_sec", false)
	e.float(p.Time())
	e.key(1, "root", false)
	e.node(p.Root, 1, 2)
	e.b = append(e.b, "\n}\n"...)
	if e.err != nil {
		return dst, fmt.Errorf("core: encoding plan: %w", e.err)
	}
	return e.b, nil
}

// planEncoder appends one plan document; err keeps the first unsupported
// float, after which the output is discarded.
type planEncoder struct {
	b   []byte
	err error
}

// node appends n, the node at the given hierarchy level, as an object
// whose members sit at the given indent depth, emitting the fields ToJSON
// sets for a leaf or a split. A split whose two children are one shared
// node (the equal halves of a homogeneous group) copies the left child's
// bytes for the right child: both sit at the same level and indent, so
// the bytes are equal, and a shared subtree is formatted once per split
// rather than once per position. The offsets are absolute, so the copy
// holds however much precedes the document in b.
func (e *planEncoder) node(n *PlanNode, level, depth int) {
	e.b = append(e.b, '{')
	e.key(depth, "level", true)
	e.b = strconv.AppendInt(e.b, int64(level), 10)
	e.key(depth, "group", false)
	e.string(n.GroupDesc)
	if n.IsLeaf() {
		e.floatField(depth, "leaf_compute_sec", n.LeafComputeTime)
		e.floatField(depth, "leaf_mem_sec", n.LeafMemTime)
		e.floatField(depth, "leaf_comm_sec", n.LeafCommTime)
		e.intField(depth, "residency_bytes", n.LeafResidencyBytes)
		e.intField(depth, "hbm_bytes", n.LeafHBMBytes)
	} else {
		e.floatField(depth, "alpha", n.Alpha)
		if len(n.Types) > 0 {
			e.key(depth, "types", false)
			e.b = append(e.b, '[')
			for i, t := range n.Types {
				e.item(depth+1, i)
				e.b = append(e.b, '"')
				e.b = append(e.b, t.Short()...)
				e.b = append(e.b, '"')
			}
			e.closeArray(depth, len(n.Types))
		}
		e.floatField(depth, "comm_time_sec", n.Eval.CommTime)
		e.floatField(depth, "comm_bytes", n.Eval.CommBytes)
		e.key(depth, "left", false)
		start := len(e.b)
		e.node(n.Left, level+1, depth+1)
		end := len(e.b)
		switch {
		case n.Right == n.Left:
			e.key(depth, "right", false)
			e.b = append(e.b, e.b[start:end]...)
		case n.Right != nil:
			e.key(depth, "right", false)
			e.node(n.Right, level+1, depth+1)
		}
	}
	e.newline(depth - 1)
	e.b = append(e.b, '}')
}

// key appends the separator, indent and name of an object member; the
// first member follows the opening brace directly.
func (e *planEncoder) key(depth int, name string, first bool) {
	if !first {
		e.b = append(e.b, ',')
	}
	e.newline(depth)
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, `": `...)
}

// item appends the separator and indent of array element i.
func (e *planEncoder) item(depth, i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
	e.newline(depth)
}

// closeArray ends an array of n elements whose enclosing member sits at
// depth; an empty array stays "[]".
func (e *planEncoder) closeArray(depth, n int) {
	if n > 0 {
		e.newline(depth)
	}
	e.b = append(e.b, ']')
}

// newline appends a line break and depth levels of two-space indent.
func (e *planEncoder) newline(depth int) {
	e.b = append(e.b, '\n')
	for n := 2 * depth; n > 0; n -= len(indentSpaces) {
		e.b = append(e.b, indentSpaces[:min(n, len(indentSpaces))]...)
	}
}

const indentSpaces = "                                                                "

// floatField appends an omitempty float member: zero, either sign, is
// left out.
func (e *planEncoder) floatField(depth int, name string, f float64) {
	if f != 0 {
		e.key(depth, name, false)
		e.float(f)
	}
}

// intField appends an omitempty integer member.
func (e *planEncoder) intField(depth int, name string, v int64) {
	if v != 0 {
		e.key(depth, name, false)
		e.b = strconv.AppendInt(e.b, v, 10)
	}
}

// float appends f in encoding/json's form: like ES6 number-to-string,
// with exponent notation outside [1e-6, 1e21) and no padded exponent.
func (e *planEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// string appends s quoted the way encoding/json does with HTML escaping
// on: <, > and & as \u escapes, control bytes escaped, U+2028 and U+2029
// escaped, and each invalid UTF-8 byte replaced by \ufffd.
func (e *planEncoder) string(s string) {
	e.b = append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			e.b = append(e.b, s[start:i]...)
			switch c {
			case '\\', '"':
				e.b = append(e.b, '\\', c)
			case '\b':
				e.b = append(e.b, '\\', 'b')
			case '\f':
				e.b = append(e.b, '\\', 'f')
			case '\n':
				e.b = append(e.b, '\\', 'n')
			case '\r':
				e.b = append(e.b, '\\', 'r')
			case '\t':
				e.b = append(e.b, '\\', 't')
			default:
				e.b = append(e.b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	e.b = append(e.b, s[start:]...)
	e.b = append(e.b, '"')
}

// ParseTypeShort converts a short type label ("I", "II", "III") back to a
// partition type.
func ParseTypeShort(s string) (cost.Type, error) {
	switch s {
	case "I":
		return cost.TypeI, nil
	case "II":
		return cost.TypeII, nil
	case "III":
		return cost.TypeIII, nil
	default:
		return 0, fmt.Errorf("core: unknown type label %q", s)
	}
}

// ReadPlanJSON decodes a serialized plan.
func ReadPlanJSON(r io.Reader) (*PlanJSON, error) {
	var out PlanJSON
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("core: decoding plan: %w", err)
	}
	if out.Root == nil {
		return nil, fmt.Errorf("core: plan JSON has no root")
	}
	return &out, nil
}

// TypesOf returns the decoded per-unit types at the root split.
func (p *PlanJSON) TypesOf() ([]cost.Type, error) {
	out := make([]cost.Type, len(p.Root.Types))
	for i, s := range p.Root.Types {
		t, err := ParseTypeShort(s)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}
