package core

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/threads"
)

func TestNexusOrderOfMagnitudeSlower(t *testing.T) {
	tham := nullRMITime(t, machine.SP1997(), Options{})
	nex := nullRMITime(t, machine.SP1997(), Options{Nexus: true})
	ratio := float64(nex) / float64(tham)
	// The paper reports 5-35x application gaps; the null RMI itself should
	// be well over an order of magnitude apart.
	if ratio < 10 {
		t.Fatalf("Nexus/ThAM null-RMI ratio = %.1f, want >= 10 (tham=%v nexus=%v)", ratio, tham, nex)
	}
	if ratio > 100 {
		t.Fatalf("Nexus/ThAM null-RMI ratio = %.1f, implausibly large", ratio)
	}
	// The profile composes with the reception model: interrupts cost what
	// they cost under ThAM, two messages' worth per round trip.
	both := nullRMITime(t, machine.SP1997(), Options{Nexus: true, InterruptDriven: true})
	if delta := both - nex; delta < 100*time.Microsecond {
		t.Fatalf("interrupt surcharge under Nexus %v, want >= 100µs for two messages", delta)
	}
}

func TestNexusCorrectness(t *testing.T) {
	// Semantics must be identical to ThAM: only costs change.
	rt := newRig(2, Options{Nexus: true})
	gp := rt.CreateObject(1, "Counter")
	var got float64
	rt.OnNode(0, func(th *threads.Thread) {
		var ret F64
		rt.Call(th, gp, "sum", []Arg{&F64Slice{V: []float64{20, 22}}}, &ret)
		got = ret.V
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("sum returned %v", got)
	}
	if rt.TransportName() != "Nexus" {
		t.Fatalf("transport %q", rt.TransportName())
	}
	if name := newRig(2, Options{}).TransportName(); name != "ThAM" {
		t.Fatalf("default transport %q", name)
	}
}

func TestNexusGPReads(t *testing.T) {
	rt := newRig(2, Options{Nexus: true})
	seg := rt.AddF64([][]float64{nil, {6.5}})
	var got float64
	rt.OnNode(0, func(th *threads.Thread) {
		got = rt.ReadF64(th, NewGPF64(1, seg, 0))
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 6.5 {
		t.Fatalf("GP read over Nexus returned %v", got)
	}
}
