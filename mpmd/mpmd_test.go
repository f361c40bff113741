package mpmd_test

import (
	"testing"
	"time"

	"repro/mpmd"
)

// ping is a processor-object class defined purely through the public API.
type ping struct{ hits int64 }

func pingClass() *mpmd.Class {
	return &mpmd.Class{
		Name: "Ping",
		New:  func() any { return &ping{} },
		Methods: []*mpmd.Method{
			{
				Name: "hit",
				Fn: func(t *mpmd.Thread, self any, args []mpmd.Arg, ret mpmd.Arg) {
					self.(*ping).hits++
				},
			},
			{
				Name:   "hits",
				NewRet: func() mpmd.Arg { return &mpmd.I64{} },
				Fn: func(t *mpmd.Thread, self any, args []mpmd.Arg, ret mpmd.Arg) {
					ret.(*mpmd.I64).V = self.(*ping).hits
				},
			},
		},
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	m := mpmd.NewMachine(mpmd.SPConfig(), 3)
	rt := mpmd.NewRuntime(m)
	rt.RegisterClass(pingClass())
	gp := rt.CreateObject(2, "Ping")
	bar := rt.NewBarrier(0, 2)

	var got int64
	for node := 0; node < 2; node++ {
		node := node
		rt.OnNode(node, func(th *mpmd.Thread) {
			for i := 0; i < 5; i++ {
				rt.Call(th, gp, "hit", nil, nil)
			}
			bar.Arrive(th)
			if node == 0 {
				var ret mpmd.I64
				rt.Call(th, gp, "hits", nil, &ret)
				got = ret.V
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("hits = %d, want 10", got)
	}
}

func TestPublicAPISplitC(t *testing.T) {
	m := mpmd.NewMachine(mpmd.SPConfig(), 2)
	w := mpmd.NewSplitC(m)
	x := w.Share([][]float64{nil, {1.5}})
	var got float64
	err := w.Run(func(p *mpmd.SplitCProc) {
		if p.MyPC() == 0 {
			got = p.Read(mpmd.SCPtr{PC: 1, Seg: x})
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.5 {
		t.Fatalf("read %v", got)
	}
}

func TestPublicAPINexusTransport(t *testing.T) {
	m := mpmd.NewMachine(mpmd.SPConfig(), 2)
	rt := mpmd.NewRuntimeOpts(m, mpmd.Options{Nexus: true})
	rt.RegisterClass(pingClass())
	gp := rt.CreateObject(1, "Ping")
	var elapsed time.Duration
	rt.OnNode(0, func(th *mpmd.Thread) {
		start := th.Now()
		rt.Call(th, gp, "hit", nil, nil)
		elapsed = time.Duration(th.Now() - start)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 500*time.Microsecond {
		t.Fatalf("Nexus RMI took only %v; surcharges missing", elapsed)
	}
}

func TestPublicAPIParForAndGPF64(t *testing.T) {
	m := mpmd.NewMachine(mpmd.SPConfig(), 2)
	rt := mpmd.NewRuntime(m)
	rt.RegisterClass(pingClass())
	remote := []float64{1, 2, 3, 4}
	local := make([]float64, 4)
	seg := rt.AddF64([][]float64{nil, remote})
	rt.OnNode(0, func(th *mpmd.Thread) {
		mpmd.ParFor(th, 4, func(t2 *mpmd.Thread, i int) {
			local[i] = rt.ReadF64(t2, mpmd.NewGPF64(1, seg, i))
		})
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Fatalf("local[%d] = %v", i, local[i])
		}
	}
}
