package main

import (
	"testing"
	"time"

	"pardis/internal/obs"
)

// TestSmokeMatchesSpec is the benchmark's self-check: a short untraced and
// a short traced run of every workload pass all output checks, and measure
// exactly the metrics BENCHMARK.json declares for the mode, under names it
// declares.
func TestSmokeMatchesSpec(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s has no implementation", w.Name)
		}
	}
	declared := map[string]bool{}
	for _, n := range sp.names() {
		declared[n] = true
	}
	for name, setup := range workloads {
		for _, traced := range []bool{false, true} {
			m, f, err := measureWorkload(setup, 7, 600*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if f.attempted == 0 || f.failed != 0 {
				t.Errorf("%s traced=%v: %s", name, traced, f)
			}
			for k := range m {
				if !declared[k] {
					t.Errorf("%s traced=%v: measured %s is not declared", name, traced, k)
				}
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			for _, d := range want {
				if _, ok := m[d.Name]; !ok {
					t.Errorf("%s traced=%v: declared %s is not measured", name, traced, d.Name)
				}
			}
			if traced || !sp.hasWorkload(name) {
				continue
			}
			// A gated metric must never read 0.
			for _, d := range sp.EndToEnd {
				if m[d.Name] <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, m[d.Name])
				}
			}
		}
	}
}

// TestSelfTimes pins the self-time rule on a hand-built trace: nested
// spans linked either way are subtracted from their encloser, spans on the
// other side or another rank are not, and poa.servant spans nest in the
// poa.dispatch that contains them.
func TestSelfTimes(t *testing.T) {
	spans := []obs.Span{
		// Client: stub.invoke [0,100] > orb.send [10,30] > pgiop.encode [12,15].
		{ID: 1, Layer: obs.LayerStub, Name: "stub.invoke", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: obs.LayerORB, Name: "orb.send", Start: 10, End: 30},
		{ID: 3, Parent: 2, Layer: obs.LayerPGIOP, Name: "pgiop.encode", Start: 12, End: 15},
		// Server, same rank number: pgiop.decode is the parent of the
		// poa.dispatch that encloses it, and the servant runs inside.
		{ID: 4, Parent: 2, Layer: obs.LayerPGIOP, Name: "pgiop.decode", Start: 40, End: 45},
		{ID: 5, Parent: 4, Layer: obs.LayerPOA, Name: "poa.dispatch", Start: 38, End: 80},
		{ID: 6, Layer: benchLayer, Name: "poa.servant", Start: 50, End: 60},
		// Another rank's agreement, whose broadcast covers all of it.
		{ID: 7, Layer: obs.LayerPOA, Name: "poa.agreement", Rank: 1, Start: 0, End: 20},
		{ID: 8, Parent: 7, Layer: obs.LayerRTS, Name: "rts.bcast", Rank: 1, Start: 0, End: 20},
	}
	st := newSelfTimes()
	st.add(spans)
	for name, want := range map[string]int64{
		"stub.invoke":   80,
		"orb.send":      17,
		"pgiop.encode":  3,
		"pgiop.decode":  5,
		"poa.dispatch":  27,
		"poa.servant":   10,
		"poa.agreement": 0,
		"rts.bcast":     20,
	} {
		if got := st.ns[name]; got != want {
			t.Errorf("%s self = %d, want %d", name, got, want)
		}
	}
	if got := st.perOp("orb.send", 1); got != 0.017 {
		t.Errorf("orb.send per op = %v µs, want 0.017", got)
	}
}
