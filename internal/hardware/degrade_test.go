package hardware

import (
	"math"
	"testing"
)

func TestSpecDegrade(t *testing.T) {
	s := TPUv2()
	d := Degradation{Compute: 2, MemBW: 1, NetBW: 4}
	out, err := s.Degrade(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.FLOPS != s.FLOPS/2 || out.MemBandwidth != s.MemBandwidth || out.NetBandwidth != s.NetBandwidth/4 {
		t.Errorf("degraded spec %+v", out)
	}
	if out.Name == s.Name {
		t.Error("degraded spec must get a distinct name")
	}
	if err := out.Validate(); err != nil {
		t.Errorf("degraded spec invalid: %v", err)
	}
}

func TestSpecDegradePristineIdentity(t *testing.T) {
	s := TPUv3()
	out, err := s.Degrade(Degradation{Compute: 1, MemBW: 1, NetBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out != s {
		t.Errorf("pristine degradation changed the spec: %+v", out)
	}
}

func TestDegradationValidate(t *testing.T) {
	bad := []Degradation{
		{},                                 // zero divisors
		{Compute: 0.5, MemBW: 1, NetBW: 1}, // divisor < 1
		{Compute: math.NaN(), MemBW: 1, NetBW: 1}, // NaN
		{Compute: 1, MemBW: 1, NetBW: math.Inf(1)},
		{Compute: 1, MemBW: 1, NetBW: 1, LostFraction: 1},
		{Compute: 1, MemBW: 1, NetBW: 1, LostFraction: -0.1},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("%+v: want error", d)
		}
	}
	if err := (Degradation{Compute: 1, MemBW: 1, NetBW: 1}).Validate(); err != nil {
		t.Errorf("pristine: %v", err)
	}
}

func TestDegradeGroups(t *testing.T) {
	groups := []GroupSpec{{Spec: TPUv2(), Count: 128}, {Spec: TPUv3(), Count: 128}}
	degs := map[int]Degradation{
		0: {Compute: 2, MemBW: 1, NetBW: 1},
		1: {Compute: 1, MemBW: 1, NetBW: 1, LostFraction: 0.5},
	}
	out, err := DegradeGroups(groups, degs)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Count != 128 || out[0].Spec.FLOPS != TPUv2().FLOPS/2 {
		t.Errorf("group 0: %+v", out[0])
	}
	if out[1].Count != 64 || out[1].Spec.FLOPS != TPUv3().FLOPS {
		t.Errorf("group 1: %+v", out[1])
	}
	// The degraded groups must still build a valid heterogeneous array.
	if _, err := NewHeterogeneous(out...); err != nil {
		t.Errorf("degraded array: %v", err)
	}
}

func TestDegradeGroupsKeepsSurvivor(t *testing.T) {
	groups := []GroupSpec{{Spec: TPUv2(), Count: 2}}
	out, err := DegradeGroups(groups, map[int]Degradation{0: {Compute: 1, MemBW: 1, NetBW: 1, LostFraction: 0.99}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Count != 1 {
		t.Errorf("count %d, want 1 survivor", out[0].Count)
	}
}

func TestDegradeGroupsRejectsUnknownGroup(t *testing.T) {
	groups := []GroupSpec{{Spec: TPUv2(), Count: 2}}
	if _, err := DegradeGroups(groups, map[int]Degradation{3: Degradation{Compute: 1, MemBW: 1, NetBW: 1}}); err == nil {
		t.Fatal("want error for out-of-range group")
	}
}

func TestSpecValidateRejectsNonFinite(t *testing.T) {
	for _, mod := range []func(*Spec){
		func(s *Spec) { s.FLOPS = math.NaN() },
		func(s *Spec) { s.FLOPS = math.Inf(1) },
		func(s *Spec) { s.MemBandwidth = math.NaN() },
		func(s *Spec) { s.NetBandwidth = math.Inf(1) },
		func(s *Spec) { s.NetBandwidth = 0 },
	} {
		s := TPUv2()
		mod(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: want validation error", s)
		}
	}
}
